/**
 * @file
 * Implementation of the planned-maintenance scheduler.
 */

#include "ops/maintenance.hpp"

#include "common/logging.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace ops {

void
validate(const MaintenanceConfig &cfg, std::size_t tracks)
{
    fatal_if(!(cfg.horizon > 0.0),
             "maintenance horizon must be positive");
    for (const auto &w : cfg.windows) {
        fatal_if(w.start < 0.0,
                 "maintenance window start must be non-negative");
        fatal_if(!(w.duration > 0.0),
                 "maintenance window duration must be positive");
        fatal_if(w.period != 0.0 && w.period <= w.duration,
                 "a periodic maintenance window must have period > "
                 "duration (or period = 0 for a one-shot)");
        fatal_if(w.track < -1 ||
                     w.track >= static_cast<int>(tracks),
                 "maintenance window targets an unknown track");
    }
}

MaintenanceScheduler::MaintenanceScheduler(
    sim::Simulator &sim, std::vector<faults::FaultState *> states,
    const MaintenanceConfig &cfg, std::string name)
    : sim::SimObject(sim, std::move(name)),
      states_(std::move(states)),
      cfg_(cfg),
      open_(cfg.windows.size(), false),
      pending_(cfg.windows.size())
{
    fatal_if(states_.empty(),
             "maintenance scheduler needs at least one track registry");
    for (const auto *state : states_)
        fatal_if(state == nullptr, "null fault registry");
    validate(cfg_, states_.size());

    auto &sg = statsGroup();
    stat_started_ =
        &sg.addCounter("windows_started", "maintenance windows opened");
    stat_completed_ = &sg.addCounter("windows_completed",
                                     "maintenance windows closed");

    for (std::size_t w = 0; w < cfg_.windows.size(); ++w)
        scheduleOccurrence(w, cfg_.windows[w].start);
}

bool
MaintenanceScheduler::windowOpen(std::size_t w) const
{
    fatal_if(w >= open_.size(), "window index out of range");
    return open_[w];
}

std::string
MaintenanceScheduler::reason(std::size_t w) const
{
    const auto &win = cfg_.windows[w];
    return "maintenance window " + std::to_string(w) +
           (win.track < 0 ? " (fleet-wide)"
                          : " (track " + std::to_string(win.track) + ")");
}

std::vector<faults::FaultState *>
MaintenanceScheduler::targets(std::size_t w)
{
    const auto &win = cfg_.windows[w];
    if (win.track < 0)
        return states_;
    return {states_[static_cast<std::size_t>(win.track)]};
}

void
MaintenanceScheduler::scheduleOccurrence(std::size_t w, double start)
{
    Pending &p = pending_[w];
    p.active = false;
    if (start >= cfg_.horizon)
        return; // plan exhausted: this window opens no more
    p.active = true;
    p.when = start;
    p.is_end = false;
    p.occurrence = start;
    p.handle = schedule(start - now(), [this, w, start] { begin(w, start); });
}

void
MaintenanceScheduler::begin(std::size_t w, double start)
{
    panic_if(open_[w], "maintenance window reopened while still open");
    open_[w] = true;
    ++started_;
    stat_started_->increment();
    for (auto *state : targets(w))
        state->pushLaunchInhibit(reason(w));
    Pending &p = pending_[w];
    p.active = true;
    p.when = now() + cfg_.windows[w].duration;
    p.is_end = true;
    p.occurrence = start;
    p.handle = schedule(cfg_.windows[w].duration,
                        [this, w, start] { end(w, start); });
}

void
MaintenanceScheduler::end(std::size_t w, double start)
{
    for (auto *state : targets(w))
        state->popLaunchInhibit(reason(w));
    open_[w] = false;
    ++completed_;
    stat_completed_->increment();
    pending_[w].active = false;
    const double period = cfg_.windows[w].period;
    if (period > 0.0)
        scheduleOccurrence(w, start + period);
}

void
MaintenanceScheduler::cancelPending()
{
    for (auto &p : pending_) {
        simulator().cancel(p.handle);
        p.active = false;
    }
}

template <class Self, class Ar>
void
MaintenanceScheduler::visit(Self &self, Ar &ar)
{
    if constexpr (Ar::loading)
        for (const Pending &p : self.pending_)
            fatal_if(p.active, "maintenance restore requires stop() first");
    ar.count("windows", self.cfg_.windows.size());
    ar.each("w", sim::indices(self.cfg_.windows.size()), [&](std::size_t w) {
        ar.io("open", self.open_[w]);
        auto &p = self.pending_[w];
        ar.io("pending", p.active);
        if (!p.active)
            return;
        ar.io("when", p.when);
        ar.io("is_end", p.is_end);
        ar.io("occurrence", p.occurrence);
        if constexpr (Ar::loading) {
            const double start = p.occurrence;
            p.handle = p.is_end
                           ? self.simulator().scheduleAt(
                                 p.when,
                                 [&self, w, start] { self.end(w, start); })
                           : self.simulator().scheduleAt(
                                 p.when, [&self, w, start] {
                                     self.begin(w, start);
                                 });
        }
    });
    ar.io("started", self.started_);
    ar.io("completed", self.completed_);
}

DHL_SNAPSHOT_VISIT(MaintenanceScheduler);

} // namespace ops
} // namespace dhl
