/**
 * @file
 * Implementation of the energy-proportional networking baseline.
 */

#include "network/energy_proportional.hpp"

#include "common/logging.hpp"

namespace dhl {
namespace network {

void
validate(const SleepConfig &cfg)
{
    fatal_if(cfg.idle_power_fraction < 0.0 ||
                 cfg.idle_power_fraction > 1.0,
             "idle power fraction must be in [0, 1]");
    fatal_if(cfg.wake_latency < 0.0,
             "wake latency must be non-negative");
    fatal_if(cfg.min_sleep_gap < 0.0,
             "sleep hysteresis must be non-negative");
}

EnergyProportionalModel::EnergyProportionalModel(
    const Route &route, const SleepConfig &sleep,
    const PowerConstants &pc)
    : model_(route, pc), sleep_(sleep)
{
    validate(sleep_);
}

qty::JoulesPerByte
EnergyProportionalModel::activeJoulesPerByte() const
{
    return model_.linkPower() / model_.linkRate();
}

DutyCycleResult
EnergyProportionalModel::periodicDuty(qty::Bytes bytes, qty::Seconds period,
                                      std::uint64_t n_periods) const
{
    fatal_if(!(bytes.value() > 0.0), "transfer size must be positive");
    fatal_if(!(period.value() > 0.0), "period must be positive");
    fatal_if(n_periods == 0, "need at least one period");

    const qty::Seconds transfer_time = bytes / model_.linkRate();
    const qty::Seconds busy =
        transfer_time + qty::Seconds{sleep_.wake_latency};
    if (busy > period) [[unlikely]]
        fatal("duty does not fit its period: transfer + wake = " +
              std::to_string(busy.value()) + " s > " +
              std::to_string(period.value()) + " s");
    const qty::Seconds gap = period - busy;
    const bool sleeps = gap >= qty::Seconds{sleep_.min_sleep_gap};
    const qty::Watts power = model_.linkPower();

    DutyCycleResult r{};
    r.active_time = busy * static_cast<double>(n_periods);
    if (sleeps) {
        r.sleep_time = gap * static_cast<double>(n_periods);
        r.wakes = n_periods;
    } else {
        r.idle_time = gap * static_cast<double>(n_periods);
    }
    r.energy = power * r.active_time +
               power * sleep_.idle_power_fraction * r.sleep_time +
               power * r.idle_time;
    return r;
}

DutyCycleResult
EnergyProportionalModel::alwaysOnDuty(qty::Bytes bytes, qty::Seconds period,
                                      std::uint64_t n_periods) const
{
    fatal_if(!(bytes.value() > 0.0), "transfer size must be positive");
    fatal_if(!(period.value() > 0.0), "period must be positive");
    fatal_if(n_periods == 0, "need at least one period");

    const qty::Seconds transfer_time = bytes / model_.linkRate();
    fatal_if(transfer_time > period, "duty does not fit its period");

    DutyCycleResult r{};
    r.active_time = transfer_time * static_cast<double>(n_periods);
    r.idle_time =
        (period - transfer_time) * static_cast<double>(n_periods);
    r.energy = model_.linkPower() * (r.active_time + r.idle_time);
    return r;
}

double
EnergyProportionalModel::savingFactor(qty::Bytes bytes, qty::Seconds period,
                                      std::uint64_t n_periods) const
{
    return alwaysOnDuty(bytes, period, n_periods).energy /
           periodicDuty(bytes, period, n_periods).energy;
}

} // namespace network
} // namespace dhl
