/**
 * @file
 * Implementation of the max-min fair fluid flow simulator.
 *
 * Water-filling operates over the link→flow adjacency: each round scans
 * the links once for the bottleneck share, then freezes only the flows
 * of the links that are tight at that share, updating the residual
 * capacity and unfrozen counts of just the links those flows touch.
 * Total work per reallocation is O(Σ path lengths + rounds·links)
 * instead of the previous O(rounds·flows·path length).
 */

#include "network/flowsim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"

namespace dhl {
namespace network {

namespace {

/** Absolute byte floor below which a flow counts as drained. */
constexpr double kDrainEpsilon = 1e-6;

/** True if the flow's residue is floating-point noise: either an
 *  absolute sliver, a sliver relative to the flow's size, or something
 *  its current rate clears in under a nanosecond. */
bool
drained(double remaining, double total, double rate)
{
    if (remaining <= kDrainEpsilon)
        return true;
    if (remaining <= total * 1e-9)
        return true;
    return rate > 0.0 && remaining / rate <= 1e-9;
}

} // namespace

FlowSim::FlowSim(sim::Simulator &sim, std::string name)
    : sim::SimObject(sim, std::move(name)),
      next_id_(1),
      last_update_(0.0),
      bytes_delivered_(0.0),
      finished_energy_(0.0),
      active_power_(0.0),
      active_power_tstart_(0.0)
{
    auto &sg = statsGroup();
    stat_flows_started_ = &sg.addCounter("flows_started", "flows started");
    stat_flows_completed_ =
        &sg.addCounter("flows_completed", "flows completed");
    stat_bytes_delivered_ =
        &sg.addScalar("bytes_delivered", "bytes delivered");
    stat_flow_duration_ =
        &sg.addAccumulator("flow_duration", "flow durations, s");
}

int
FlowSim::addLink(double capacity)
{
    fatal_if(!(capacity > 0.0), "link capacity must be positive");
    links_.push_back(Link{capacity, 0.0, {}, 0.0, 0});
    return static_cast<int>(links_.size()) - 1;
}

double
FlowSim::linkCapacity(int link) const
{
    fatal_if(link < 0 || link >= numLinks(), "link id out of range");
    return links_[static_cast<std::size_t>(link)].capacity;
}

FlowId
FlowSim::startFlow(std::vector<int> links, double bytes, double route_power,
                   Callback cb)
{
    fatal_if(links.empty(), "a flow needs at least one link");
    for (int l : links)
        fatal_if(l < 0 || l >= numLinks(), "flow references unknown link");
    fatal_if(!(bytes > 0.0), "flow size must be positive");
    fatal_if(route_power < 0.0, "route power must be non-negative");

    drainFlows();

    Flow f{};
    f.id = next_id_++;
    f.links = std::move(links);
    f.total = bytes;
    f.remaining = bytes;
    f.rate = 0.0;
    f.route_power = route_power;
    f.start_time = now();
    f.cb = std::move(cb);
    const FlowId id = f.id;
    auto [it, inserted] = flows_.emplace(id, std::move(f));
    (void)inserted;

    // Ids are monotonic, so appending keeps each adjacency list sorted.
    for (int l : it->second.links)
        links_[static_cast<std::size_t>(l)].flows.push_back(&it->second);
    active_power_ += route_power;
    active_power_tstart_ += route_power * now();

    stat_flows_started_->increment();
    reallocate();
    return id;
}

bool
FlowSim::cancelFlow(FlowId id)
{
    auto it = flows_.find(id);
    if (it == flows_.end())
        return false;
    drainFlows();
    detachFlow(it->second);
    flows_.erase(it);
    reallocate();
    return true;
}

double
FlowSim::flowRate(FlowId id) const
{
    auto it = flows_.find(id);
    fatal_if(it == flows_.end(), "unknown or finished flow");
    return it->second.rate;
}

double
FlowSim::totalEnergy() const
{
    return finished_energy_ + active_power_ * now() - active_power_tstart_;
}

double
FlowSim::linkUtilisation(int link) const
{
    fatal_if(link < 0 || link >= numLinks(), "link id out of range");
    const Link &l = links_[static_cast<std::size_t>(link)];
    return l.allocated / l.capacity;
}

void
FlowSim::drainFlows()
{
    const double dt = now() - last_update_;
    last_update_ = now();
    if (dt <= 0.0)
        return;
    for (auto &[id, f] : flows_) {
        (void)id;
        f.remaining = std::max(0.0, f.remaining - f.rate * dt);
    }
}

void
FlowSim::detachFlow(Flow &f)
{
    for (int l : f.links) {
        auto &lf = links_[static_cast<std::size_t>(l)].flows;
        lf.erase(std::remove(lf.begin(), lf.end(), &f), lf.end());
    }
    active_power_ -= f.route_power;
    active_power_tstart_ -= f.route_power * f.start_time;
}

void
FlowSim::reallocate()
{
    simulator().cancel(completion_event_);
    completion_event_ = sim::EventHandle();

    if (flows_.empty()) {
        // Clamp floating-point residue in the maintained aggregates.
        active_power_ = 0.0;
        active_power_tstart_ = 0.0;
        for (auto &l : links_)
            l.allocated = 0.0;
        return;
    }

    // Progressive water-filling: repeatedly find the most-contended link
    // (smallest residual capacity per unfrozen flow), fix its flows at
    // that fair share, and continue with the remaining capacity.
    for (auto &l : links_) {
        l.allocated = 0.0;
        l.residual = l.capacity;
        l.unfrozen = 0;
    }
    for (auto &[id, f] : flows_) { // id order: deterministic FP order
        (void)id;
        f.rate = -1.0; // unfrozen marker
        for (int l : f.links)
            ++links_[static_cast<std::size_t>(l)].unfrozen;
    }

    std::size_t remaining_flows = flows_.size();
    while (remaining_flows > 0) {
        // Find the bottleneck share.
        double share = std::numeric_limits<double>::infinity();
        for (const auto &l : links_) {
            if (l.unfrozen > 0)
                share = std::min(share, l.residual / l.unfrozen);
        }
        panic_if(!std::isfinite(share),
                 "active flows but no link carries any of them");

        // Freeze the unfrozen flows of every link that is tight at this
        // share, walking links in id order and each link's flows in
        // flow-id order (both maintained sorted) so the floating-point
        // update order is platform-independent.
        bool froze_any = false;
        for (auto &bottleneck : links_) {
            if (bottleneck.unfrozen <= 0)
                continue;
            if (bottleneck.residual / bottleneck.unfrozen >
                share * (1.0 + 1e-12)) {
                continue;
            }
            for (Flow *f : bottleneck.flows) {
                if (f->rate >= 0.0)
                    continue; // frozen in an earlier round or link
                f->rate = share;
                froze_any = true;
                --remaining_flows;
                for (int fl : f->links) {
                    Link &m = links_[static_cast<std::size_t>(fl)];
                    m.residual -= share;
                    if (m.residual < 0.0)
                        m.residual = 0.0;
                    --m.unfrozen;
                    m.allocated += share;
                }
            }
        }
        panic_if(!froze_any, "water-filling failed to make progress");
    }

    // Schedule the next completion.
    double next = std::numeric_limits<double>::infinity();
    for (const auto &[id, f] : flows_) {
        (void)id;
        panic_if(f.rate <= 0.0, "flow allocated a non-positive rate");
        next = std::min(next, f.remaining / f.rate);
    }
    completion_event_ = simulator().schedule(
        std::max(0.0, next), [this] { onCompletionEvent(); });
}

void
FlowSim::onCompletionEvent()
{
    drainFlows();

    // Collect drained flows first (in flow-id order — the force-complete
    // fallback below inherits the same deterministic order); callbacks
    // may start new flows.
    std::vector<Flow> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
        Flow &f = it->second;
        if (drained(f.remaining, f.total, f.rate)) {
            detachFlow(f);
            done.push_back(std::move(f));
            it = flows_.erase(it);
        } else {
            ++it;
        }
    }
    if (done.empty()) {
        // Pure floating-point jitter: the scheduled completion landed a
        // hair before the flow's residue cleared.  Force-complete the
        // flow(s) that are next to finish rather than spinning.
        double min_tt = std::numeric_limits<double>::infinity();
        for (const auto &[id, f] : flows_) {
            (void)id;
            min_tt = std::min(min_tt, f.remaining / f.rate);
        }
        panic_if(!std::isfinite(min_tt) || min_tt > 1e-6,
                 "completion event fired with no flow near completion");
        for (auto it = flows_.begin(); it != flows_.end();) {
            Flow &f = it->second;
            if (f.remaining / f.rate <= min_tt * (1.0 + 1e-9)) {
                detachFlow(f);
                done.push_back(std::move(f));
                it = flows_.erase(it);
            } else {
                ++it;
            }
        }
    }

    for (auto &f : done) {
        FlowRecord rec{};
        rec.id = f.id;
        rec.start_time = f.start_time;
        rec.finish_time = now();
        rec.energy = f.route_power * (now() - f.start_time);
        rec.bytes = f.total;
        bytes_delivered_ += f.total;
        stat_bytes_delivered_->add(f.total);
        finished_energy_ += rec.energy;
        stat_flows_completed_->increment();
        stat_flow_duration_->sample(rec.duration());
        if (f.cb)
            f.cb(rec);
    }

    reallocate();
}

} // namespace network
} // namespace dhl
