/**
 * @file
 * Implementation of the fleet-level dispatcher.
 */

#include "ops/dispatcher.hpp"

#include <memory>
#include <utility>

#include "common/logging.hpp"
#include "dhl/analytical.hpp"
#include "network/route.hpp"

namespace dhl {
namespace ops {

std::string
to_string(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        return "round-robin";
      case DispatchPolicy::LeastQueued:
        return "least-queued";
      case DispatchPolicy::AvailabilityAware:
        return "availability";
      case DispatchPolicy::Te:
        return "te";
    }
    return "?";
}

DispatchPolicy
parseDispatchPolicy(const std::string &name)
{
    if (name == "round-robin")
        return DispatchPolicy::RoundRobin;
    if (name == "least-queued")
        return DispatchPolicy::LeastQueued;
    if (name == "availability")
        return DispatchPolicy::AvailabilityAware;
    if (name == "te")
        return DispatchPolicy::Te;
    fatal("unknown dispatch policy '" + name +
          "' (expected round-robin, least-queued, availability, or te)");
}

void
validate(const DispatchConfig &cfg)
{
    fatal_if(cfg.overcommit == 0,
             "dispatch overcommit must be at least 1 (otherwise an "
             "outage never finds a queued open to re-route)");
    if (cfg.policy == DispatchPolicy::Te) {
        fatal_if(!cfg.te.enabled,
                 "dispatch policy 'te' requires te.enabled");
        te::validate(cfg.te);
    }
}

te::TeConfig
teConfigForFleet(te::TeConfig te, const core::DhlConfig &dhl,
                 std::size_t tracks)
{
    if (te.dhl_capacity == 0.0)
        te.dhl_capacity =
            static_cast<double>(tracks) *
            core::AnalyticalModel(dhl).launch().bandwidth.value();
    return te;
}

FleetDispatcher::FleetDispatcher(core::DhlFleet &fleet,
                                 const DispatchConfig &cfg)
    : fleet_(fleet), cfg_(cfg)
{
    validate(cfg_);
    if (cfg_.policy == DispatchPolicy::AvailabilityAware) {
        fatal_if(fleet_.faultState(0) == nullptr,
                 "availability-aware dispatch needs the fleet's fault "
                 "registries (DhlFleet::ensureFaultStates)");
    }
}

core::BulkRunResult
FleetDispatcher::runBulkTransfer(double bytes,
                                 const core::BulkRunOptions &opts,
                                 const std::vector<core::RequestMeta> &meta)
{
    metrics_ = DispatchMetrics{};
    if (cfg_.policy == DispatchPolicy::RoundRobin)
        return fleet_.runBulkTransfer(bytes, opts, meta,
                                      &metrics_.open_latency);
    return runPull(bytes, opts, meta);
}

//===========================================================================
// LeastQueued / AvailabilityAware / Te: the pull engine
//===========================================================================

bool
FleetDispatcher::trackUp(std::size_t t) const
{
    const faults::FaultState *state =
        std::as_const(fleet_).faultState(t);
    return state == nullptr || state->serviceUp();
}

std::size_t
FleetDispatcher::capacity(std::size_t t) const
{
    const std::size_t stations = fleet_.track(t).numStations();
    if (cfg_.policy == DispatchPolicy::AvailabilityAware)
        return stations + cfg_.overcommit;
    return stations;
}

void
FleetDispatcher::installListeners()
{
    if (listeners_installed_ ||
        cfg_.policy != DispatchPolicy::AvailabilityAware)
        return;
    for (std::size_t t = 0; t < fleet_.numTracks(); ++t) {
        auto *state = fleet_.faultState(t);
        state->onOutage([this, t] {
            if (active_)
                drainTrack(t);
        });
        state->onRepair([this] {
            if (active_)
                pump();
        });
    }
    listeners_installed_ = true;
}

void
FleetDispatcher::drainTrack(std::size_t t)
{
    // Station-only failures leave launches OK; the controller re-routes
    // its own queue to surviving stations.  Only a blocked launch path
    // strands queued work.
    if (fleet_.faultState(t)->launchOk())
        return;
    std::vector<core::QueuedOpen> drained =
        fleet_.track(t).drainQueuedOpens();
    if (drained.empty())
        return;
    ++metrics_.drains;
    for (const auto &q : drained) {
        auto it = cart_job_[t].find(q.id);
        panic_if(it == cart_job_[t].end(),
                 "drained an open the dispatcher never issued");
        // The cart stays stored in this track's library; the job's
        // payload is re-created wherever the queue sends it next.
        queue_.push_back(it->second);
        cart_job_[t].erase(it);
        --outstanding_[t];
        ++metrics_.reroutes;
    }
    pump();
}

void
FleetDispatcher::setupTe()
{
    const te::TeConfig tc = teConfigForFleet(
        cfg_.te, fleet_.track(0).config(), fleet_.numTracks());
    sim::Simulator &sim = fleet_.simulator();
    te_ctl_ = std::make_unique<te::TeController>(
        sim, tc, std::vector<te::TenantSpec>{{"bulk", 1.0}});
    te_ctl_->onTick([this] {
        if (active_)
            pump();
    });
    te_flow_ = std::make_unique<network::SharedLink>(
        sim, tc.optical_capacity, "te_optical");
    te_power_ = network::findRoute(tc.route).power().value();
    // Seed the demand estimator with the whole backlog: the first
    // control epoch then sees the true offered load instead of zero.
    for (const Job &job : jobs_)
        te_ctl_->recordUsage(0, job.load);
    te_ctl_->start();
}

void
FleetDispatcher::offload(std::size_t j)
{
    ++metrics_.offloads;
    metrics_.optical_bytes += jobs_[j].load;
    te_flow_->startFlow(jobs_[j].load, te_power_,
                        [this](const network::FlowRecord &rec) {
                            metrics_.optical_energy += rec.energy;
                            ++completed_;
                        });
}

void
FleetDispatcher::pump()
{
    // Te pre-pass: everything the controller routes optical leaves the
    // cart queue for the fluid substrate (which has no slot limit), so
    // it never competes in the track-selection loop below.
    if (cfg_.policy == DispatchPolicy::Te) {
        for (std::size_t pos = 0; pos < queue_.size();) {
            const std::size_t j = queue_[pos];
            const te::TeDecision d =
                te_ctl_->decide(0, jobs_[j].load, jobs_[j].meta);
            if (d.substrate == te::Substrate::Optical && d.admit) {
                queue_.erase(queue_.begin() +
                             static_cast<std::ptrdiff_t>(pos));
                offload(j);
            } else {
                ++pos;
            }
        }
    }
    while (!queue_.empty()) {
        const bool degraded =
            fleetDegraded(cfg_.policy, fleet_.numTracks(),
                          [this](std::size_t t) { return trackUp(t); });

        // Best admissible job: highest priority, then arrival order
        // (job index).
        std::size_t best_pos = queue_.size();
        for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
            const std::size_t j = queue_[pos];
            Job &job = jobs_[j];
            // The Te controller holds contended work until a later tick
            // clears the contention (or the horizon passes).
            const bool held =
                belowPriorityFloor(degraded, job.meta.priority,
                                   cfg_.min_priority_degraded) ||
                (cfg_.policy == DispatchPolicy::Te &&
                 !te_ctl_->decide(0, job.load, job.meta).admit);
            if (held) {
                if (!job.deferral_counted) {
                    job.deferral_counted = true;
                    ++metrics_.deferrals;
                }
                continue;
            }
            if (best_pos == queue_.size()) {
                best_pos = pos;
                continue;
            }
            const int best_priority = jobs_[queue_[best_pos]].meta.priority;
            if (job.meta.priority > best_priority ||
                (job.meta.priority == best_priority && j < queue_[best_pos]))
                best_pos = pos;
        }
        if (best_pos == queue_.size())
            return; // everything queued is deferred

        // capacity(t) is the same on every track, so the most free
        // slots is the least outstanding work.
        const std::size_t best_track = mostFreeTrack(
            fleet_.numTracks(), degraded,
            [this](std::size_t t) { return capacity(t) - outstanding_[t]; },
            [this](std::size_t t) { return trackUp(t); });
        if (best_track == kNoTrack)
            return; // no track can take work right now

        const std::size_t j = queue_[best_pos];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(best_pos));
        assign(best_track, j);
    }
}

void
FleetDispatcher::assign(std::size_t t, std::size_t j)
{
    auto &ctl = fleet_.track(t);
    ctl.setFailureProbability(opts_.failure_per_trip);
    const core::CartId id = ctl.addCart(jobs_[j].load).id();
    cart_job_[t][id] = j;
    ++outstanding_[t];
    sim::Simulator &sim = fleet_.simulator();
    const double issued = sim.now();
    ctl.open(id, jobs_[j].meta,
             [this, &sim, &ctl, t, id, issued](core::Cart &cart,
                                               core::DockingStation &) {
        metrics_.open_latency.push_back(sim.now() - issued);
        if (opts_.include_read_time && cart.storedBytes() > 0.0) {
            const double to_read = cart.storedBytes();
            ctl.read(id, to_read, [this, &ctl, t, id](double b) {
                bytes_read_ += b;
                ctl.close(id, [this, t, id](core::Cart &) {
                    finishJob(t, id);
                });
            });
        } else {
            ctl.close(id, [this, t, id](core::Cart &) {
                finishJob(t, id);
            });
        }
    });
}

void
FleetDispatcher::finishJob(std::size_t t, core::CartId id)
{
    auto it = cart_job_[t].find(id);
    panic_if(it == cart_job_[t].end(),
             "finished a job the dispatcher never issued");
    cart_job_[t].erase(it);
    --outstanding_[t];
    ++completed_;
    pump();
}

core::BulkRunResult
FleetDispatcher::runPull(double bytes, const core::BulkRunOptions &opts,
                         const std::vector<core::RequestMeta> &meta)
{
    fatal_if(!(bytes > 0.0), "bulk transfer size must be positive");
    if (opts.faults.enabled)
        fleet_.enableFaults(opts.faults);
    sim::Simulator &sim = fleet_.simulator();
    const std::size_t k = fleet_.numTracks();

    installListeners();
    opts_ = opts;
    const std::vector<double> loads = core::cartLoads(
        bytes, fleet_.track(0).config().cartCapacity().value());
    const std::uint64_t n_carts = loads.size();
    jobs_.clear();
    jobs_.reserve(loads.size());
    queue_.clear();
    queue_.reserve(loads.size());
    for (std::size_t j = 0; j < loads.size(); ++j) {
        jobs_.push_back(
            Job{loads[j], j < meta.size() ? meta[j] : core::RequestMeta{}});
        queue_.push_back(j);
    }
    outstanding_.assign(k, 0);
    cart_job_.assign(k, {});
    completed_ = 0;
    bytes_read_ = 0.0;

    if (cfg_.policy == DispatchPolicy::Te)
        setupTe();

    const core::BulkTotals before = fleet_.totals();
    active_ = true;
    pump();
    while (completed_ < n_carts && sim.pendingEvents() > 0)
        sim.step();
    active_ = false;
    if (te_ctl_)
        te_ctl_->stop(); // cancel the pending control tick, if any
    panic_if(completed_ != n_carts,
             "fleet transfer finished with carts unaccounted for");
    return core::bulkRunResult(bytes, n_carts, before, fleet_.totals(),
                               bytes_read_, metrics_.optical_energy);
}

} // namespace ops
} // namespace dhl
