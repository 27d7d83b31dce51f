/**
 * @file
 * The fault registry for the event-driven substrate.
 *
 * A FaultState tracks which repairable components of one DHL system —
 * the two LIMs, the track/vacuum assembly, and the rack docking
 * stations — are currently up, plus the cart repair shop (carts
 * rotating through the library's maintenance bay after a per-trip
 * breakdown).  Components *query* it ("can I launch?", "is this
 * station serviceable?") and the FaultInjector *drives* it by firing
 * failure and repair events; the registry itself schedules nothing.
 * The ops layer (src/ops) drives the same gates through launch
 * inhibits, so maintenance windows and common-cause outages share the
 * fault path's degraded-mode machinery end to end.
 *
 * It also integrates service downtime over simulated time, so a run's
 * observed availability can be compared against the closed-form
 * steady-state model in `dhl/reliability.hpp` (experiment E17).
 */

#ifndef DHL_FAULTS_FAULT_STATE_HPP
#define DHL_FAULTS_FAULT_STATE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace dhl {
namespace faults {

/** The repairable component kinds of one DHL system. */
enum class Component
{
    Lim,     ///< One of the two linear induction motors.
    Track,   ///< The track + vacuum tube assembly.
    Station, ///< One rack docking station.
    Cart,    ///< One cart (repair-shop rotation, not an outage).
};

std::string to_string(Component kind);

/** Bounded-backoff policy for retrying parked (fault-blocked) trips. */
struct RetryPolicy
{
    double initial_backoff = 1.0; ///< First retry delay, s (> 0).
    double multiplier = 2.0;      ///< Growth per failed retry (>= 1).
    double max_backoff = 60.0;    ///< Backoff ceiling, s (>= initial).
};

bool operator==(const RetryPolicy &a, const RetryPolicy &b);

/** Compute the next parked-trip retry delay under a policy. */
double nextBackoff(const RetryPolicy &policy, double previous);

/** The queryable fault registry of one DHL system. */
class FaultState
{
  public:
    /** Fires (with no arguments) after any component repair. */
    using Listener = std::function<void()>;

    /** Rolls the per-trip cart-breakdown dice for one cart; installed
     *  by the FaultInjector.  Returns true if the cart broke down (the
     *  roller is expected to have called sendCartToRepair). */
    using BreakdownRoll = std::function<bool(std::uint32_t)>;

    /** @param sim Simulator supplying timestamps (must outlive this). */
    explicit FaultState(sim::Simulator &sim);

    //------------------------------------------------------------------
    // Registration (FaultInjector)
    //------------------------------------------------------------------

    /** Register a component instance, initially up.  Indices of one
     *  kind must be registered densely from zero. */
    void addComponent(Component kind, std::uint32_t index);

    /** Registered instances of a kind (Cart: carts seen in repair). */
    std::size_t components(Component kind) const;

    //------------------------------------------------------------------
    // State transitions (FaultInjector)
    //------------------------------------------------------------------

    void fail(Component kind, std::uint32_t index);
    void repair(Component kind, std::uint32_t index);

    //------------------------------------------------------------------
    // Launch inhibits (ops layer: maintenance windows, common-cause
    // outages).  An inhibit blocks launches through the same gate a
    // LIM/track fault uses — launchOk()/serviceUp() go false and the
    // controller's degraded-mode machinery (queued opens, parked trips,
    // repair re-dispatch) engages with no code of its own.  Inhibits
    // nest: every push needs a matching pop.
    //------------------------------------------------------------------

    /** Block launches; @p reason appears in the trace (e.g.
     *  "maintenance", "vacuum plant 2 down"). */
    void pushLaunchInhibit(const std::string &reason);

    /** Release one inhibit; fires the repair listeners so held work
     *  re-dispatches immediately. */
    void popLaunchInhibit(const std::string &reason);

    /** Active launch inhibits. */
    std::size_t launchInhibits() const { return launch_inhibits_; }

    /** Send a cart to the repair shop for @p repair_time seconds. */
    void sendCartToRepair(std::uint32_t cart, double repair_time);

    /** Install the per-trip cart-breakdown roller. */
    void setBreakdownRoll(BreakdownRoll roll) { roll_ = std::move(roll); }

    /** Set the parked-trip retry policy consulted by controllers. */
    void setRetryPolicy(const RetryPolicy &policy);

    //------------------------------------------------------------------
    // Queries (components / controllers)
    //------------------------------------------------------------------

    /** Component up?  Unregistered components are up (a system with no
     *  injector behaves exactly like one with no faults).  For Cart,
     *  this is !cartInRepair(index). */
    bool up(Component kind, std::uint32_t index) const;

    /** Both LIMs and the track are up and no launch inhibit
     *  (maintenance window, common-cause outage) is active, so carts
     *  may launch. */
    bool launchOk() const;

    /** launchOk() and at least one docking station is up (no stations
     *  registered counts as up). */
    bool serviceUp() const;

    std::size_t stationsUp() const;

    /** Cart currently in the repair shop? */
    bool cartInRepair(std::uint32_t cart) const;

    /** When the cart's current repair completes (<= now if healthy). */
    double cartRepairEnd(std::uint32_t cart) const;

    /** Carts currently in the repair shop. */
    std::size_t cartsInRepair() const;

    /** Roll the per-trip breakdown dice for @p cart (false when no
     *  roller is installed — fault injection disabled). */
    bool rollCartBreakdown(std::uint32_t cart);

    const RetryPolicy &retryPolicy() const { return retry_; }

    //------------------------------------------------------------------
    // Notifications
    //------------------------------------------------------------------

    /** Subscribe to repair completions (controllers use this to
     *  dispatch held opens).  Listeners cannot be removed; they must
     *  outlive the FaultState or never fire after their owner dies. */
    void onRepair(Listener listener);

    /** Subscribe to outage onsets: fires after every component failure
     *  and after every launch-inhibit push (the ops dispatcher uses
     *  this to drain queued opens off a track the moment it goes
     *  down).  Same lifetime contract as onRepair. */
    void onOutage(Listener listener);

    //------------------------------------------------------------------
    // Accounting
    //------------------------------------------------------------------

    std::uint64_t failures(Component kind) const;
    std::uint64_t repairs(Component kind) const;

    /** Total cart repair-shop visits. */
    std::uint64_t cartRepairs() const { return cart_repairs_; }

    /**
     * Integrated service downtime (serviceUp() false) over
     * [0, min(now, up_to)], s.
     */
    double serviceDowntime(double up_to) const;

    /** 1 - serviceDowntime(horizon) / horizon. */
    double observedAvailability(double horizon) const;

    /** Service state transitions so far (up/down edge count). */
    std::size_t serviceTransitions() const { return transitions_.size(); }

    /** The raw service up/down edge log: (time, service up after the
     *  edge) pairs in time order.  The service starts up at t = 0.
     *  Bench code resamples the implied up/down cycles for bootstrap
     *  confidence intervals on observed availability (E17). */
    const std::vector<std::pair<double, bool>> &
    serviceLog() const
    {
        return transitions_;
    }

    /** Attach a trace recorder; fail/repair events are recorded under
     *  the "fault" category.  Pass nullptr to detach. */
    void attachTrace(sim::TraceRecorder *trace) { trace_ = trace; }

    //------------------------------------------------------------------
    // Checkpoint/restore (sim/snapshot.hpp)
    //------------------------------------------------------------------

    /**
     * Serialise the full registry: per-component up/down plus
     * fail/repair tallies, the cart repair shop, launch inhibits, and
     * the complete service edge log — the log in full so
     * serviceDowntime(t) answers identically for *any* t after a
     * restore, which per-stage availability accounting depends on.
     * Listeners, the breakdown roller, and the retry policy are
     * configuration re-established by the restoring harness.
     * Restoring expects the same components registered; inhibits are
     * restored as a count, so ops processes must re-schedule their
     * releases without re-pushing.
     */
    template <class Self, class Ar>
    static void visit(Self &self, Ar &ar);

  private:
    struct KindState
    {
        std::vector<bool> down;
        std::uint64_t failures = 0;
        std::uint64_t repairs = 0;

        std::size_t downCount() const;

        template <class Self, class Ar>
        static void
        visit(Self &ks, Ar &ar)
        {
            ar.count("n", ks.down.size());
            ar.each("down", ks.down);
            ar.io("failures", ks.failures);
            ar.io("repairs", ks.repairs);
        }
    };

    KindState &kindState(Component kind);
    const KindState &kindState(Component kind) const;
    void noteServiceEdge();
    void notifyRepair();
    void notifyOutage();
    void trace(Component kind, std::uint32_t index,
               const std::string &what);
    void traceOps(const std::string &what);

    // dhl-analyze: transient(sim_): constructor wiring
    sim::Simulator &sim_;
    KindState lims_;
    KindState track_;
    KindState stations_;

    std::map<std::uint32_t, double> cart_repair_end_;
    std::uint64_t cart_repairs_ = 0;
    std::uint64_t cart_failures_seen_ = 0; ///< distinct carts ever broken

    // dhl-analyze: transient(roll_, retry_, listeners_,
    // outage_listeners_, trace_): host-side wiring (callbacks, retry
    // policy, trace sink) re-installed by the harness before restore
    BreakdownRoll roll_;
    RetryPolicy retry_;
    std::vector<Listener> listeners_;
    std::vector<Listener> outage_listeners_;
    std::size_t launch_inhibits_ = 0;
    sim::TraceRecorder *trace_ = nullptr;

    /** Service up/down edges: (time, service up after the edge).  The
     *  service starts up at t = 0. */
    std::vector<std::pair<double, bool>> transitions_;
    bool service_up_ = true;
};

} // namespace faults
} // namespace dhl

#endif // DHL_FAULTS_FAULT_STATE_HPP
