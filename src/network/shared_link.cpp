/**
 * @file
 * Implementation of the processor-sharing link.
 */

#include "network/shared_link.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"

namespace dhl {
namespace network {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** FlowSim's drained test: a residue that is an absolute sliver, a
 *  sliver relative to the flow's size, or under a nanosecond at @p rate
 *  counts as finished. */
bool
drained(double remaining, double total, double rate)
{
    if (remaining <= 1e-6)
        return true;
    if (remaining <= total * 1e-9)
        return true;
    return remaining / rate <= 1e-9;
}

/** Heap order: the top is the smallest (finish, id). */
template <class Entry>
bool
finishesLater(const Entry &a, const Entry &b)
{
    return a.finish > b.finish || (a.finish == b.finish && a.id > b.id);
}

} // namespace

SharedLink::SharedLink(sim::Simulator &sim, double capacity,
                       std::string name)
    : sim::SimObject(sim, std::move(name)), capacity_(capacity)
{
    fatal_if(!(capacity > 0.0 && capacity < kInf),
             "link capacity must be positive and finite");
    auto &sg = statsGroup();
    stat_flows_started_ = &sg.addCounter("flows_started", "flows started");
    stat_flows_completed_ =
        &sg.addCounter("flows_completed", "flows completed");
    stat_bytes_delivered_ =
        &sg.addScalar("bytes_delivered", "bytes delivered");
    stat_flow_duration_ =
        &sg.addAccumulator("flow_duration", "flow durations, s");
}

FlowId
SharedLink::startFlow(double bytes, double route_power, Callback cb)
{
    fatal_if(!(bytes > 0.0 && bytes < kInf),
             "flow size must be positive and finite");
    fatal_if(!(route_power >= 0.0), "route power must be non-negative");

    advance();
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    const FlowId id = next_id_++;
    slots_[slot] = Flow{id, bytes, route_power, now(), std::move(cb)};
    heap_.push_back(Entry{v_ + bytes, id, slot});
    std::push_heap(heap_.begin(), heap_.end(), finishesLater<Entry>);
    active_power_ += route_power;
    active_power_tstart_ += route_power * now();

    stat_flows_started_->increment();
    reschedule();
    return id;
}

double
SharedLink::totalEnergy() const
{
    return finished_energy_ + active_power_ * now() - active_power_tstart_;
}

void
SharedLink::advance()
{
    const double dt = now() - last_update_;
    last_update_ = now();
    if (dt > 0.0 && !heap_.empty())
        v_ += rate_ * dt;
}

void
SharedLink::reschedule()
{
    simulator().cancel(completion_event_);
    completion_event_ = sim::EventHandle();
    if (heap_.empty())
        return;
    rate_ = capacity_ / static_cast<double>(heap_.size());
    const double delay = (heap_.front().finish - v_) / rate_;
    completion_event_ = schedule(std::max(0.0, delay),
                                 [this] { onCompletionEvent(); });
}

void
SharedLink::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), finishesLater<Entry>);
    const std::uint32_t slot = heap_.back().slot;
    heap_.pop_back();
    Flow &f = slots_[slot];
    active_power_ -= f.route_power;
    active_power_tstart_ -= f.route_power * f.start_time;
    done_.push_back(std::move(f));
    free_slots_.push_back(slot);
}

void
SharedLink::onCompletionEvent()
{
    completion_event_ = sim::EventHandle();
    advance();

    // The top is due now.  Behind it, flows that have drained at the
    // share they ran at go too, in (finish, id) order, up to the first
    // one that has not.
    popTop();
    while (!heap_.empty() &&
           drained(heap_.front().finish - v_,
                   slots_[heap_.front().slot].total, rate_))
        popTop();
    if (heap_.empty()) {
        // Idle: restart the virtual clock and clamp aggregate residue.
        v_ = 0.0;
        active_power_ = 0.0;
        active_power_tstart_ = 0.0;
    }

    // Callbacks may start flows; those only touch the heap and slots.
    for (Flow &f : done_) {
        FlowRecord rec{};
        rec.id = f.id;
        rec.bytes = f.total;
        rec.start_time = f.start_time;
        rec.finish_time = now();
        rec.energy = f.route_power * (now() - f.start_time);
        bytes_delivered_ += f.total;
        stat_bytes_delivered_->add(f.total);
        finished_energy_ += rec.energy;
        stat_flows_completed_->increment();
        stat_flow_duration_->sample(rec.duration());
        if (f.cb)
            f.cb(rec);
    }
    done_.clear();
    reschedule();
}

} // namespace network
} // namespace dhl
