/**
 * @file
 * Seeded, deterministic fault injection for the DES (Discussion §VI:
 * serviceability — false-floor access for track/LIM/station repairs,
 * cart removal via the library — is a first-class design concern).
 *
 * A FaultInjector drives a FaultState by scheduling alternating
 * failure/repair events for every repairable component: exponentially
 * distributed uptimes with the configured MTBF and fixed MTTR repairs
 * (the steady-state availability MTBF / (MTBF + MTTR) holds for any
 * uptime/downtime distributions, and fixed repairs cut the variance of
 * finite-horizon measurements).  Each component draws from its own
 * xoshiro256** stream derived from the injector seed via deriveSeed,
 * so the fault timeline is a pure function of (seed, config) — never
 * of event interleaving or thread count.
 *
 * Per-trip cart breakdowns are demand-driven: the controller rolls
 * them at trip completion through FaultState::rollCartBreakdown, and
 * the injector supplies the per-cart dice (again one stream per cart).
 *
 * Failures are only scheduled before the configured horizon, so the
 * event queue drains shortly after it; an unbounded horizon is for
 * callers that step the simulator rather than running it dry.
 */

#ifndef DHL_FAULTS_FAULT_INJECTOR_HPP
#define DHL_FAULTS_FAULT_INJECTOR_HPP

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "faults/fault_state.hpp"
#include "sim/sim_object.hpp"

namespace dhl {
namespace faults {

/**
 * Fault-injection parameters.  The MTBF/MTTR fields mirror
 * core::ReliabilityConfig (hours; build one from the other with
 * core::toFaultConfig so the analytical and event-driven models always
 * agree); the rest configures the injection process itself.
 */
struct FaultConfig
{
    /** Master switch; a disabled config makes the injector inert. */
    bool enabled = false;

    /** Seed of every derived component stream. */
    std::uint64_t seed = 1;

    /** No failure is scheduled at or after this time, s (repairs of
     *  earlier failures still complete, so the queue drains). */
    double horizon = std::numeric_limits<double>::infinity();

    /** Each LIM (there are two). MTBF/MTTR in hours.  Defaults mirror
     *  core::ReliabilityConfig (see the source citations there). */
    double lim_mtbf = 43800.0;
    double lim_mttr = 6.0;

    /** Track + vacuum assembly (one). */
    double track_mtbf = 87600.0;
    double track_mttr = 12.0;

    /** Each rack docking station. */
    double station_mtbf = 61320.0;
    double station_mttr = 2.0;

    /** Probability a cart needs repair after a trip (mechanical). */
    double cart_repair_per_trip = 2e-5;

    /** Cart repair turnaround at the library, hours. */
    double cart_repair_hours = 2.0;

    /** Parked-trip retry policy installed into the FaultState. */
    RetryPolicy retry{};
};

bool operator==(const FaultConfig &a, const FaultConfig &b);

/** Validate; throws FatalError on nonsense.  Accepts exactly the
 *  MTBF/MTTR edge cases core::validate(ReliabilityConfig) accepts
 *  (zero MTTRs, zero cart breakdown probability, ...). */
void validate(const FaultConfig &cfg);

/** The fault-injection process (one per DHL system). */
class FaultInjector : public sim::SimObject
{
  public:
    /**
     * @param sim      Owning simulator.
     * @param state    Registry to drive (must outlive the injector).
     * @param cfg      Injection parameters.
     * @param stations Docking stations of the driven system.
     * @param name     SimObject name.
     */
    FaultInjector(sim::Simulator &sim, FaultState &state,
                  const FaultConfig &cfg, std::size_t stations,
                  std::string name = "faults");

    const FaultConfig &config() const { return cfg_; }

    /** Failure + repair events injected so far. */
    std::uint64_t eventsInjected() const { return injected_; }

    //------------------------------------------------------------------
    // Wear coupling (ops layer).  The base process is memoryless; these
    // hooks let accumulated wear make rates state-dependent.  Both
    // consume exactly the same RNG stream positions as the unhooked
    // process, so a hook that returns 1.0 is byte-identical to no hook.
    //------------------------------------------------------------------

    /** Multiplies cart_repair_per_trip at roll time (per cart).  The
     *  scaled probability is clamped to [0, 1]. */
    using BreakdownScale = std::function<double(std::uint32_t cart)>;

    /** Multiplies a unit's MTBF when its next uptime is drawn.  Must
     *  return a positive factor. */
    using MtbfScale =
        std::function<double(Component kind, std::uint32_t index)>;

    void setBreakdownScale(BreakdownScale scale);
    void setMtbfScale(MtbfScale scale);

    /** Cancel all pending fault events (the registry keeps its current
     *  state; already-failed components still get their repair). */
    void stop();

    //------------------------------------------------------------------
    // Checkpoint/restore.  Each unit's pending event is tracked as
    // (absolute time, fail-or-repair), so a checkpoint captures the
    // exact fault timeline position: RNG stream per unit and per cart,
    // plus which transition fires next and when.  Restoring requires
    // stop() first (the constructor-scheduled failures must go),
    // restores every stream, and re-schedules the saved transitions at
    // their absolute times — byte-identical continuation of the
    // timeline.
    //------------------------------------------------------------------

    template <class Self, class Ar>
    static void visit(Self &self, Ar &ar);

  private:
    struct Unit
    {
        Component kind;
        std::uint32_t index;
        double mtbf; ///< s
        double mttr; ///< s
        Rng rng;
        sim::EventHandle pending;
        bool has_pending = false;
        double pending_when = 0.0;
        bool pending_is_repair = false;
    };

    void scheduleFailure(std::size_t unit);
    void failUnit(std::size_t unit);
    void repairUnit(std::size_t unit);
    void addUnit(Component kind, std::uint32_t index, double mtbf_hours,
                 double mttr_hours, std::uint64_t stream);
    bool rollBreakdown(std::uint32_t cart);

    // dhl-analyze: transient(state_, cfg_): constructor wiring — the
    // shared FaultState snapshots itself; the config is a constructor
    // input validated against the checkpointed unit count
    FaultState &state_;
    FaultConfig cfg_;
    // dhl-analyze: transient(breakdown_scale_, mtbf_scale_): host-side
    // policy callbacks, re-installed by the experiment harness
    BreakdownScale breakdown_scale_;
    MtbfScale mtbf_scale_;
    std::vector<Unit> units_;
    // dhl-analyze: transient(cart_stream_base_): derived from cfg_.seed
    // by the constructor, never mutated afterwards
    std::uint64_t cart_stream_base_;
    std::map<std::uint32_t, Rng> cart_rngs_;
    std::uint64_t injected_ = 0;

    // dhl-analyze: transient(stat_failures_, stat_repairs_,
    // stat_cart_repairs_): host-side stats tallies, restart from the
    // boundary
    stats::Counter *stat_failures_;
    stats::Counter *stat_repairs_;
    stats::Counter *stat_cart_repairs_;
};

} // namespace faults
} // namespace dhl

#endif // DHL_FAULTS_FAULT_INJECTOR_HPP
