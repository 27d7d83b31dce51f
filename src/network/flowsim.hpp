/**
 * @file
 * Event-driven fluid flow simulator over capacitated links.
 *
 * Flows traverse a path of links and share each link's capacity
 * max-min-fairly (progressive water-filling, recomputed on every flow
 * arrival or departure).  Each flow carries the electrical power of its
 * route so the simulator integrates transfer energy exactly as the
 * analytical model does — the integration tests require the two to
 * agree — while also capturing the *contention* effects the closed-form
 * model cannot (bulk backups squeezing foreground traffic, the paper's
 * §II motivation).
 *
 * Determinism: flows are stored and iterated in flow-id order, so rate
 * allocation, completion detection, and the resulting floating-point
 * operation order are identical on every platform (no dependence on
 * hash-map layout).
 *
 * Performance (see DESIGN.md §"Kernel internals"): each link keeps the
 * list of flows crossing it plus its currently allocated rate, and the
 * simulator maintains active-power aggregates, so water-filling walks
 * only the link→flow adjacency it touches and `linkUtilisation()` /
 * `totalEnergy()` are O(1) instead of scanning every flow.
 */

#ifndef DHL_NETWORK_FLOWSIM_HPP
#define DHL_NETWORK_FLOWSIM_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/sim_object.hpp"
#include "sim/simulator.hpp"

namespace dhl {
namespace network {

/** Identifier of a flow inside a FlowSim. */
using FlowId = std::uint64_t;

/** Completion record passed to the flow's callback. */
struct FlowRecord
{
    FlowId id;
    double bytes;       ///< Bytes carried.
    double start_time;  ///< s.
    double finish_time; ///< s.
    double energy;      ///< J consumed by the flow's route elements.

    double duration() const { return finish_time - start_time; }
    double avgBandwidth() const { return bytes / duration(); }
};

/** The fluid flow simulator. */
class FlowSim : public sim::SimObject
{
  public:
    using Callback = std::function<void(const FlowRecord &)>;

    FlowSim(sim::Simulator &sim, std::string name = "flowsim");

    /**
     * Add a link with @p capacity bytes/s; returns its id.
     */
    int addLink(double capacity);

    int numLinks() const { return static_cast<int>(links_.size()); }
    double linkCapacity(int link) const;

    /**
     * Start a flow of @p bytes over the given links.
     *
     * @param links        Link ids in hop order (at least one).
     * @param bytes        Flow size, bytes (> 0).
     * @param route_power  Electrical power attributed while active, W.
     * @param cb           Invoked at completion (may be null).
     * @return The flow id.
     */
    FlowId startFlow(std::vector<int> links, double bytes,
                     double route_power = 0.0, Callback cb = nullptr);

    /** Cancel an in-flight flow; returns false if unknown/finished. */
    bool cancelFlow(FlowId id);

    /** Current fair-share rate of an active flow, bytes/s. */
    double flowRate(FlowId id) const;

    /** Number of in-flight flows. */
    std::size_t activeFlows() const { return flows_.size(); }

    /** Total bytes delivered by completed flows. */
    double bytesDelivered() const { return bytes_delivered_; }

    /**
     * Total energy integrated over all flows (active + completed), J.
     * O(1): a flow at constant route power p accrues exactly
     * p·(now − start), so the active term is tracked as two running
     * sums (Σp and Σp·start).
     */
    double totalEnergy() const;

    /** Utilisation of a link right now, in [0, 1].  O(1). */
    double linkUtilisation(int link) const;

  private:
    struct Flow
    {
        FlowId id;
        std::vector<int> links;
        double total;
        double remaining;
        double rate;
        double route_power;
        double start_time;
        Callback cb;
    };

    struct Link
    {
        double capacity;
        double allocated; ///< Σ current rates of flows on this link.
        /** Flows crossing this link, in id order (ids are handed out
         *  monotonically and appended, so order is maintained). */
        std::vector<Flow *> flows;

        // Water-filling scratch (valid only inside reallocate()).
        double residual;
        int unfrozen;
    };

    /** Drain every active flow's remaining bytes to now(). */
    void drainFlows();

    /** Detach @p f from its links' adjacency lists and the power
     *  aggregates (shared by cancellation and completion). */
    void detachFlow(Flow &f);

    /** Recompute max-min fair rates and reschedule completion. */
    void reallocate();

    /** Fire completions for flows that have drained. */
    void onCompletionEvent();

    std::vector<Link> links_;
    std::map<FlowId, Flow> flows_; ///< id order ⇒ deterministic.
    FlowId next_id_;
    double last_update_;
    double bytes_delivered_;
    double finished_energy_;
    double active_power_;        ///< Σ route_power over active flows.
    double active_power_tstart_; ///< Σ route_power·start_time, ditto.
    sim::EventHandle completion_event_;

    stats::Counter *stat_flows_started_;
    stats::Counter *stat_flows_completed_;
    stats::Scalar *stat_bytes_delivered_;
    stats::Accumulator *stat_flow_duration_;
};

} // namespace network
} // namespace dhl

#endif // DHL_NETWORK_FLOWSIM_HPP
