/**
 * @file
 * Policy-driven dispatch of bulk-transfer work across a DHL fleet.
 *
 * DhlFleet::runBulkTransfer pre-assigns carts round-robin and never
 * looks back — fine while every track is healthy, pathological when one
 * is down for repairs or maintenance: its share of the work queues
 * behind the outage while other tracks idle.  The FleetDispatcher is
 * the fleet-level scheduler that closes that gap, with four policies:
 *
 *  - RoundRobin:        DhlFleet::runBulkTransfer itself (static
 *                       pre-assignment + serial per-track chains), the
 *                       backwards-compatible default and the E18
 *                       baseline.
 *  - LeastQueued:       tracks pull jobs from one fleet-level queue as
 *                       they free up, so a slow track automatically
 *                       takes less work.
 *  - AvailabilityAware: LeastQueued plus (a) down tracks (fault,
 *                       maintenance window, plant outage) are not
 *                       offered work, (b) queued opens are drained off
 *                       a track the moment its launches block and the
 *                       jobs re-routed fleet-wide, and (c) while the
 *                       fleet is degraded, jobs below a priority floor
 *                       are deferred (admission control, reusing
 *                       core::RequestMeta).
 *  - Te:                LeastQueued plus a TeController (src/te): jobs
 *                       the controller routes optical ride a shared
 *                       fat-tree uplink instead of a cart, and
 *                       contended bulk jobs below the TE priority
 *                       floor are downgraded to optical or held until
 *                       a control tick clears the contention.
 *
 * The pull decisions — the degraded verdict, the priority floor and
 * the most-free-track choice — are the header-inline functions below,
 * shared with the serving loop (serve::ServingSim).  They read the
 * per-track view through callables so the per-arrival path inlines.
 *
 * Work is re-routed at the *job* level: carts are track-local, so a
 * drained QueuedOpen's cart stays in its library and the job's payload
 * is re-created on the receiving track.
 */

#ifndef DHL_OPS_DISPATCHER_HPP
#define DHL_OPS_DISPATCHER_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dhl/fleet.hpp"
#include "dhl/scheduler.hpp"
#include "dhl/simulation.hpp"
#include "network/shared_link.hpp"
#include "te/controller.hpp"

namespace dhl {
namespace ops {

/** Fleet-level dispatch policy. */
enum class DispatchPolicy
{
    RoundRobin,       ///< Static pre-assignment (today's behaviour).
    LeastQueued,      ///< Dynamic pull from one fleet-level queue.
    AvailabilityAware,///< Pull + outage re-routing + admission control.
    Te                ///< Pull + TeController hybrid substrate split.
};

std::string to_string(DispatchPolicy policy);

/** Parse "round-robin" / "least-queued" / "availability" / "te";
 *  fatal() on anything else. */
DispatchPolicy parseDispatchPolicy(const std::string &name);

/** Dispatcher parameters. */
struct DispatchConfig
{
    DispatchPolicy policy = DispatchPolicy::RoundRobin;

    /** AvailabilityAware admission floor: while any track is down,
     *  only jobs with meta.priority >= this are dispatched. */
    int min_priority_degraded = 0;

    /** AvailabilityAware in-flight jobs per track beyond its docking
     *  stations; the excess queues in the track's controller (and is
     *  what an outage drains off it). */
    std::size_t overcommit = 1;

    /** Traffic engineering (policy == Te requires te.enabled). */
    te::TeConfig te{};
};

/** Validate; fatal() on nonsense. */
void validate(const DispatchConfig &cfg);

/** @p te with a zero dhl_capacity defaulted to the aggregate launch
 *  bandwidth of @p tracks tracks of @p dhl. */
te::TeConfig teConfigForFleet(te::TeConfig te, const core::DhlConfig &dhl,
                              std::size_t tracks);

//===========================================================================
// Pull decisions shared by FleetDispatcher and serve::ServingSim
//===========================================================================

/** mostFreeTrack's answer when no track can take work. */
inline constexpr std::size_t kNoTrack =
    std::numeric_limits<std::size_t>::max();

/**
 * The degraded verdict: under AvailabilityAware the fleet is degraded
 * while any of its @p tracks is down (`up(t)` false).  The other
 * policies never degrade and skip the O(tracks) scan.
 */
template <class Up>
inline bool
fleetDegraded(DispatchPolicy policy, std::size_t tracks, Up &&up)
{
    if (policy != DispatchPolicy::AvailabilityAware)
        return false;
    for (std::size_t t = 0; t < tracks; ++t)
        if (!up(t))
            return true;
    return false;
}

/** The degraded-mode priority floor: work of @p priority is held
 *  while the fleet is @p degraded and it ranks below @p floor. */
inline bool
belowPriorityFloor(bool degraded, int priority, int floor)
{
    return degraded && priority < floor;
}

/**
 * The pull track choice: the track with the most free slots
 * (`free(t)`), lowest index on ties.  A track with no free slot never
 * qualifies, and while @p degraded neither does a down one (`up(t)`
 * false).  kNoTrack when no track qualifies.
 */
template <class Free, class Up>
inline std::size_t
mostFreeTrack(std::size_t tracks, bool degraded, Free &&free, Up &&up)
{
    std::size_t best = kNoTrack;
    std::size_t best_free = 0;
    for (std::size_t t = 0; t < tracks; ++t) {
        if (degraded && !up(t))
            continue;
        const std::size_t f = free(t);
        if (f > best_free) {
            best = t;
            best_free = f;
        }
    }
    return best;
}

/** Observables of one dispatcher run. */
struct DispatchMetrics
{
    /** Jobs pulled back off a blocked track and re-routed. */
    std::uint64_t reroutes = 0;

    /** Outage drains that actually moved work. */
    std::uint64_t drains = 0;

    /** Jobs deferred at least once by the degraded-mode priority
     *  floor. */
    std::uint64_t deferrals = 0;

    /** Te: jobs the controller routed onto the optical substrate. */
    std::uint64_t offloads = 0;

    /** Te: bytes moved optically instead of by cart. */
    double optical_bytes = 0.0;

    /** Te: energy spent on the optical substrate, J. */
    double optical_energy = 0.0;

    /** Per-open latency, issue -> docked, s. */
    std::vector<double> open_latency;
};

/** The fleet-level dispatcher. */
class FleetDispatcher
{
  public:
    /**
     * @param fleet The fleet to dispatch over (must outlive this).
     *              AvailabilityAware requires the fleet's fault
     *              registries (DhlFleet::ensureFaultStates).
     * @param cfg   Dispatch parameters.
     */
    FleetDispatcher(core::DhlFleet &fleet, const DispatchConfig &cfg);

    const DispatchConfig &config() const { return cfg_; }

    /**
     * Move @p bytes through the fleet under the configured policy and
     * run the simulation to completion.  @p meta optionally assigns
     * per-job scheduling metadata (indexed by job = cart; missing
     * entries default).  Semantics otherwise match
     * DhlFleet::runBulkTransfer.
     */
    core::BulkRunResult
    runBulkTransfer(double bytes, const core::BulkRunOptions &opts = {},
                    const std::vector<core::RequestMeta> &meta = {});

    /** Metrics of the last (or in-progress) run. */
    const DispatchMetrics &metrics() const { return metrics_; }

  private:
    struct Job
    {
        double load;
        core::RequestMeta meta;
        bool deferral_counted = false;
    };

    core::BulkRunResult runPull(double bytes,
                                const core::BulkRunOptions &opts,
                                const std::vector<core::RequestMeta> &meta);

    void installListeners();
    bool trackUp(std::size_t t) const;
    std::size_t capacity(std::size_t t) const;
    void pump();
    void assign(std::size_t t, std::size_t j);
    void finishJob(std::size_t t, core::CartId id);
    void drainTrack(std::size_t t);
    void setupTe();
    void offload(std::size_t j);

    core::DhlFleet &fleet_;
    DispatchConfig cfg_;
    DispatchMetrics metrics_;

    // Pull-engine state, valid during a runPull.
    bool active_ = false;
    bool listeners_installed_ = false;
    core::BulkRunOptions opts_{};
    std::vector<Job> jobs_;
    std::vector<std::size_t> queue_; ///< pending job indices
    std::vector<std::size_t> outstanding_;
    std::vector<std::unordered_map<core::CartId, std::size_t>> cart_job_;
    std::uint64_t completed_ = 0;
    double bytes_read_ = 0.0;

    // Te substrate, rebuilt per runPull (policy == Te only).
    std::unique_ptr<te::TeController> te_ctl_;
    std::unique_ptr<network::SharedLink> te_flow_;
    double te_power_ = 0.0;
};

} // namespace ops
} // namespace dhl

#endif // DHL_OPS_DISPATCHER_HPP
