/**
 * @file
 * One link shared by processor sharing: the single-link special case of
 * FlowSim's max-min fair allocation, at O(log n) per flow event.
 *
 * On one link every active flow gets the same share, capacity / n.  A
 * virtual clock V advances at that rate, so a flow's virtual finish
 * V_start + bytes is fixed when it starts and the completion order is a
 * min-heap on (virtual finish, flow id).  A start is one heap push and a
 * completion one heap pop, each followed by rescheduling the single
 * completion event; FlowSim instead re-runs the water-fill and rescans
 * every flow on each event (DESIGN.md §"One link = processor sharing").
 *
 * The completion event always completes the heap top, then every further
 * flow in heap order whose residue FlowSim would also call drained, so
 * floating-point jitter in the scheduled time can never leave an event
 * that completes nothing.  V resets to 0 whenever the link goes idle,
 * which keeps it on the scale of one busy period's bytes.
 *
 * Multi-link fabrics stay on FlowSim; tests/property_shared_link.cpp
 * checks this class against a one-link FlowSim.
 */

#ifndef DHL_NETWORK_SHARED_LINK_HPP
#define DHL_NETWORK_SHARED_LINK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/inline_function.hpp"
#include "network/flowsim.hpp"
#include "sim/sim_object.hpp"

namespace dhl {
namespace network {

/** A single-capacity link under processor sharing. */
class SharedLink : public sim::SimObject
{
  public:
    /** Completion callback: move-only, stored in place (no allocation
     *  for captures up to 64 bytes). */
    using Callback = common::InlineFunction<void(const FlowRecord &)>;

    /** @param capacity Link capacity, bytes/s (> 0, finite). */
    SharedLink(sim::Simulator &sim, double capacity,
               std::string name = "shared_link");

    /**
     * Start a flow of @p bytes (> 0, finite) drawing @p route_power W
     * (>= 0) while active; @p cb (may be null) runs at completion and
     * may start further flows.
     */
    FlowId startFlow(double bytes, double route_power = 0.0,
                     Callback cb = nullptr);

    /** Number of in-flight flows. */
    std::size_t activeFlows() const { return heap_.size(); }

    /** The virtual clock now: bytes each active flow has received
     *  since the link last went idle (0 while idle). */
    double virtualTime() const
    {
        return heap_.empty() ? 0.0 : v_ + rate_ * (now() - last_update_);
    }

    /** Total bytes delivered by completed flows. */
    double bytesDelivered() const { return bytes_delivered_; }

    /** Energy of completed and active flows, J.  O(1). */
    double totalEnergy() const;

  private:
    /** Heap key: completion order is (virtual finish, id). */
    struct Entry
    {
        double finish;
        FlowId id;
        std::uint32_t slot;
    };

    struct Flow
    {
        FlowId id;
        double total;
        double route_power;
        double start_time;
        Callback cb;
    };

    /** Advance V to now() at the current share. */
    void advance();

    /** Cancel the completion event and schedule the heap top's. */
    void reschedule();

    /** Pop the heap top into done_ and free its slot. */
    void popTop();

    void onCompletionEvent();

    double capacity_;
    double rate_ = 0.0; ///< capacity_ / activeFlows(), set by reschedule()
    double v_ = 0.0;
    double last_update_ = 0.0;
    std::vector<Entry> heap_;
    std::vector<Flow> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::vector<Flow> done_; ///< Scratch for one completion event.
    FlowId next_id_ = 1;
    double bytes_delivered_ = 0.0;
    double finished_energy_ = 0.0;
    double active_power_ = 0.0;        ///< Σ route_power over active flows.
    double active_power_tstart_ = 0.0; ///< Σ route_power·start_time.
    sim::EventHandle completion_event_;

    stats::Counter *stat_flows_started_;
    stats::Counter *stat_flows_completed_;
    stats::Scalar *stat_bytes_delivered_;
    stats::Accumulator *stat_flow_duration_;
};

} // namespace network
} // namespace dhl

#endif // DHL_NETWORK_SHARED_LINK_HPP
