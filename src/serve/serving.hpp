/**
 * @file
 * Open-loop serving mode: a DHL fleet under a staged load profile,
 * measured per stage against SLOs, checkpointable between DES epochs.
 *
 * The existing harnesses are closed-loop: they build a batch of work,
 * run the kernel dry, and report aggregates — fine for bandwidth and
 * energy, blind to what a *service* cares about (tail latency under a
 * ramp, availability of a faulted fleet, how much load had to be shed).
 * A ServingSim instead consumes arrivals from a StagedArrivalProcess
 * epoch by epoch:
 *
 *   per epoch:  pump the admission queue -> inject the epoch's
 *               arrivals -> runEpoch(boundary) -> drain in-flight
 *               requests (admission paused, backlog preserved)
 *
 * The epoch boundary is *drained*: no request is mid-trip, so the only
 * pending events belong to Snapshotable processes (fault injectors,
 * maintenance windows, plant outages) that record their own absolute
 * event times.  That is what makes the checkpoint exact: restore() on
 * a freshly built ServingSim rewinds the kernel clock, re-arms those
 * processes, and continues the run byte-for-byte — per-stage SLO
 * tables, trace, and energy totals all land identical to a run that
 * was never interrupted (the equivalence is epoch-grid-relative: both
 * sides consume arrivals on the same grid, which the grid's definition
 * guarantees).
 *
 * Epoch discipline is part of the serving semantics, not an artefact:
 * requests admitted in an epoch complete within it (a long-trip fleet
 * simply stretches the epoch), while *unadmitted* backlog carries
 * across epochs, so overload shows up as deferred/shed counts and
 * fat tails, never as silently dropped work.
 */

#ifndef DHL_SERVE_SERVING_HPP
#define DHL_SERVE_SERVING_HPP

#include <cstdint>
#include <deque>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "dhl/config.hpp"
#include "dhl/controller.hpp"
#include "exp/slo.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_state.hpp"
#include "network/flowsim.hpp"
#include "ops/correlated.hpp"
#include "ops/dispatcher.hpp"
#include "ops/maintenance.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"
#include "sim/trace.hpp"
#include "te/controller.hpp"
#include "workloads/arrival.hpp"

namespace dhl {
namespace serve {

/** Configuration of one serving run. */
struct ServeConfig
{
    /** Per-track DHL design point. */
    core::DhlConfig dhl{};

    /** Fleet size (>= 1). */
    std::size_t tracks = 1;

    /** Master seed; every stream (arrivals, per-track SSD dice,
     *  per-component fault streams) derives from it. */
    std::uint64_t seed = 1;

    /** The staged load profile (non-empty). */
    std::vector<workloads::StageSpec> stages;

    /** Epoch length, s (> 0): checkpoint granularity and the arrival
     *  injection batch size. */
    double epoch = 600.0;

    /** Cart pool per track (>= 1): concurrent requests a track takes. */
    std::size_t carts_per_track = 4;

    /** Admission queue bound; arrivals beyond it are shed (>= 1). */
    std::size_t max_pending = 1024;

    /** Fleet dispatch policy (reuses the ops-layer vocabulary). */
    ops::DispatchPolicy policy = ops::DispatchPolicy::LeastQueued;

    /** AvailabilityAware floor: while any track's service is down,
     *  only requests with priority >= this are admitted. */
    int min_priority_degraded = 0;

    /** Component fault injection (per track; seed is re-derived per
     *  track from this config's seed). */
    faults::FaultConfig faults{};

    /** Planned maintenance windows (empty = none). */
    ops::MaintenanceConfig maintenance{};

    /** Shared-plant correlated outages (disabled by default). */
    ops::SharedDomainConfig domains{};

    /** Retained trace records (rotation bound; see TraceRecorder). */
    std::size_t trace_capacity = 65536;

    /**
     * Traffic engineering (src/te).  When enabled, a TeController is
     * consulted at admission: small requests ride the optical
     * substrate (a FlowSim sharing one fat-tree uplink max-min
     * fairly), bulk requests ride the carts, and contended bulk
     * traffic below the priority floor is downgraded to optical or
     * held.  A request's substrate is fixed at admission.  TE runs
     * the DES on a single shard (the controller needs zero-lookahead
     * visibility of every track), so `des_shards` is ignored — which
     * also makes `--des-shards N` trivially byte-identical.  Disabled
     * leaves every stream and table byte-identical to pre-TE builds.
     */
    te::TeConfig te{};

    /**
     * DES shards for the fleet event loop (>= 1).  With N > 1 the
     * tracks are dealt — whole plant domains at a time
     * (sim::partitionShards) — onto N simulators driven with
     * conservative time windows: while the admission queue is empty
     * the shards run in parallel up to the next arrival or epoch
     * boundary; while backlog could start on any freed track the
     * coordinator falls back to global-order lockstep.  Results are
     * byte-identical to des_shards = 1, checkpoints stay legal at
     * every epoch boundary, and every dispatch policy is supported
     * (dispatch happens at coordinator barriers only).
     */
    std::size_t des_shards = 1;
};

/** Validate; fatal() on nonsense. */
void validate(const ServeConfig &cfg);

/** One serving fleet under an open-loop staged load. */
class ServingSim
{
  public:
    explicit ServingSim(const ServeConfig &cfg);

    const ServeConfig &config() const { return cfg_; }

    //------------------------------------------------------------------
    // Stepping
    //------------------------------------------------------------------

    /**
     * Run one epoch: admit backlog, inject this epoch's arrivals, run
     * the kernel to the boundary, drain in-flight requests.  Returns
     * false (doing nothing) once the run is complete — profile
     * exhausted, queue empty, nothing in flight.
     */
    bool stepEpoch();

    /** Step until done, or at most @p max_epochs (0 = unbounded). */
    void run(std::size_t max_epochs = 0);

    bool done() const;
    std::size_t epochsCompleted() const { return epochs_; }

    /** Fleet clock: the single kernel's clock, or — sharded — the
     *  maximum over the shard clocks (they agree at every barrier). */
    double now() const;

    /** DES shards actually in use (<= config().des_shards). */
    std::size_t numShards() const
    {
        return parts_.empty() ? 1 : parts_.size();
    }

    //------------------------------------------------------------------
    // Checkpoint/restore
    //------------------------------------------------------------------

    /**
     * Write a checkpoint of the drained boundary to @p os.  Includes a
     * config fingerprint; restore() validates it, so a checkpoint can
     * only resume the run it came from.
     */
    void checkpoint(std::ostream &os) const;

    /**
     * Restore from a checkpoint into this freshly constructed fleet
     * (same ServeConfig).  After restore(), stepEpoch()/run() continue
     * the original run byte-for-byte.
     */
    void restore(std::istream &is);

    //------------------------------------------------------------------
    // Measurement
    //------------------------------------------------------------------

    /** Per-stage SLO accounting (index = stage). */
    const stats::SloAccumulator &stageSlo(std::size_t stage) const;

    /** The formatted per-stage outcome (exp/slo.hpp). */
    std::vector<exp::StageSlo> sloTable() const;

    /** Mean per-track service availability over a stage's window. */
    double stageAvailability(std::size_t stage) const;

    /** Fleet totals.  totalEnergy() includes the optical substrate's
     *  route energy when TE is enabled. */
    double totalEnergy() const;
    std::uint64_t totalLaunches() const;
    std::uint64_t totalServed() const { return served_; }
    std::uint64_t totalShed() const;
    std::size_t queueDepth() const { return queue_.size(); }
    std::size_t inFlight() const { return in_flight_; }

    //------------------------------------------------------------------
    // Traffic engineering (cfg.te.enabled only)
    //------------------------------------------------------------------

    bool teEnabled() const { return te_ != nullptr; }

    /** The TE controller (fatal() unless enabled). */
    const te::TeController &teController() const;

    /** Per-(class, substrate) outcome rows, tenant-major with the DHL
     *  row first (goodput = delivered bytes over the elapsed
     *  makespan, so a slowly draining backlog scores lower). */
    std::vector<exp::ClassSlo> teTable() const;

    /** One (class, substrate) accumulator; @p tenant indexes the
     *  classes in teTable() order (fatal() unless enabled). */
    const stats::SloAccumulator &teClassSlo(std::size_t tenant,
                                            te::Substrate s) const;

    /** Joules spent by offloaded flows on the optical route. */
    double opticalEnergy() const { return optical_energy_; }

    /** Requests completed on the optical substrate. */
    std::uint64_t opticalServed() const { return optical_served_; }

    /** Bulk requests pushed to optical by DHL contention. */
    std::uint64_t teDowngrades() const { return te_downgrades_; }

    /** The fleet trace (enable via trace().enable()). */
    sim::TraceRecorder &trace() { return trace_; }

    /** Serve-layer + kernel + per-track statistics. */
    void dumpStats(std::ostream &os);

    /** Direct track access (tests). */
    core::DhlController &controller(std::size_t track);
    faults::FaultState &faultState(std::size_t track);

  private:
    /** Everything one track owns. */
    struct TrackSystem
    {
        std::unique_ptr<faults::FaultState> state;
        std::unique_ptr<core::DhlController> controller;
        std::unique_ptr<faults::FaultInjector> injector;
        std::vector<core::CartId> pool; ///< Free carts, LIFO.
    };

    /** One admitted-but-not-dispatched request. */
    struct Queued
    {
        workloads::ArrivalEvent ev;
    };

    /** One dispatched request working through its trips. */
    struct Active
    {
        workloads::ArrivalEvent ev;
        std::size_t track;
        core::CartId cart;
        std::uint64_t trips_left;
        /** Dispatch order (tryStart issue counter).  Completions that
         *  land on the exact same timestamp across shards are replayed
         *  in this order: with deterministic request sizes the tied
         *  trip chains are lockstep copies of each other, so the serial
         *  loop's insertion order at the tie is exactly the order their
         *  chains were rooted — the dispatch order. */
        std::uint64_t rank;
    };

    /** One DES shard's slice of the fleet (des_shards > 1 only). */
    struct ShardPart
    {
        /** Global track ids on this shard (contiguous). */
        std::vector<std::size_t> tracks;
        /** This shard's slice of the maintenance schedule (track
         *  windows remapped local; fleet-wide windows replicated). */
        std::unique_ptr<ops::MaintenanceScheduler> maintenance;
        /** This shard's plant domains (seeded by global index). */
        std::unique_ptr<ops::CorrelatedFaultModel> plants;
        /** Requests in flight on this shard's tracks. */
        std::size_t in_flight = 0;

        /** A completion recorded while the coordinator is out of the
         *  loop (parallel window, drain, or a tied-timestamp step),
         *  applied to the global state at the next barrier in
         *  (time, dispatch-rank) order — the order the serial loop
         *  fires them (see Active::rank). */
        struct Done
        {
            double when;
            int stage;
            double latency;
            double bytes;
            std::size_t track;
            core::CartId cart;
            std::uint64_t rank;
        };
        std::vector<Done> log;
    };

    bool sharded() const { return !parts_.empty(); }
    sim::Simulator &shardSim(std::size_t s);
    sim::Simulator &simOf(std::size_t track);
    const sim::Simulator &simOf(std::size_t track) const;
    bool stepEpochSharded();
    void runWindow(double until);
    void stepTied(double when);
    void mergeCompletions();

    double nextBoundary() const;
    void admit(const workloads::ArrivalEvent &ev);
    void admitTe(const workloads::ArrivalEvent &ev);
    void startOptical(const workloads::ArrivalEvent &ev,
                      std::size_t tenant, bool downgraded);
    std::size_t tenantOf(const workloads::ArrivalEvent &ev) const;
    stats::SloAccumulator &classSlo(std::size_t tenant, te::Substrate s);
    void pump();
    bool anyTrackDown() const;
    bool admissible(const workloads::ArrivalEvent &ev, bool degraded) const;
    bool tryStart(const workloads::ArrivalEvent &ev);
    std::size_t pickTrack(bool degraded) const;
    void runTrip(const std::shared_ptr<Active> &a);
    void finishRequest(const Active &a);
    void saveFingerprint(sim::SnapshotWriter &w) const;
    void checkFingerprint(sim::SnapshotReader &r) const;

    ServeConfig cfg_;
    sim::Simulator sim_;
    sim::TraceRecorder trace_;
    std::vector<TrackSystem> tracks_;
    std::unique_ptr<ops::MaintenanceScheduler> maintenance_;
    std::unique_ptr<ops::CorrelatedFaultModel> plants_;
    std::unique_ptr<workloads::StagedArrivalProcess> arrivals_;
    std::vector<stats::SloAccumulator> slo_;
    std::deque<Queued> queue_;
    // dhl-analyze: transient(cart_capacity_): derived from the config
    // by the constructor, never mutated afterwards
    double cart_capacity_;

    // Traffic engineering (cfg_.te.enabled only; null/empty otherwise).
    std::unique_ptr<te::TeController> te_;
    // dhl-analyze: transient(optical_, optical_links_,
    // optical_route_power_, tenant_tags_): rebuilt identically by the
    // constructor from the same ServeConfig (the optical substrate is
    // idle at every drained epoch boundary)
    std::unique_ptr<network::FlowSim> optical_;
    std::vector<int> optical_links_;    ///< The one fat-tree uplink.
    double optical_route_power_ = 0.0;  ///< W while a flow is active.
    /** Per-(tenant, substrate) accounting: index = tenant*2 + sub. */
    std::vector<stats::SloAccumulator> class_slo_;
    std::vector<std::string> tenant_tags_; ///< First-appearance order.
    double optical_energy_ = 0.0;
    std::uint64_t optical_served_ = 0;
    std::uint64_t te_downgrades_ = 0;

    // Sharded mode (numShards() > 1); all empty/null otherwise, and
    // every hot path then runs the literal single-loop code.
    std::vector<std::unique_ptr<sim::Simulator>> extra_sims_;
    std::vector<std::unique_ptr<sim::TraceRecorder>> extra_traces_;
    // dhl-analyze: transient(shard_of_, group_, pool_): shard topology
    // and worker threads, rebuilt by the constructor from the config
    std::vector<std::size_t> shard_of_; ///< track -> shard
    std::vector<ShardPart> parts_;
    sim::ShardGroup group_;
    std::unique_ptr<ThreadPool> pool_;
    // dhl-analyze: transient(windowed_, repair_pump_pending_,
    // pumping_): intra-window flags, false at every drained epoch
    // boundary where a checkpoint is legal
    /** True while shards run concurrently: completions are deferred to
     *  the shard log and pump() is a no-op (the queue is empty by
     *  construction whenever a window is open). */
    bool windowed_ = false;
    /** A repair/maintenance-release pump was suppressed during a
     *  tied-timestamp drain; stepTied() replays it at the barrier. */
    bool repair_pump_pending_ = false;

    std::size_t epochs_ = 0;
    double boundary_ = 0.0;
    std::size_t rr_next_ = 0;
    // dhl-analyze: transient(in_flight_): drained-boundary invariant —
    // checkpoint() asserts it is zero
    std::size_t in_flight_ = 0;
    // dhl-analyze: transient(next_rank_): dispatch tie-break is
    // relative order only; re-counting from zero after restore replays
    // ties identically
    std::uint64_t next_rank_ = 0; ///< tryStart issue counter.
    std::uint64_t served_ = 0;
    bool pumping_ = false;

    // dhl-analyze: transient(serve_stats_): host-side stats tallies,
    // restart from the boundary
    stats::StatGroup serve_stats_;
};

} // namespace serve
} // namespace dhl

#endif // DHL_SERVE_SERVING_HPP
