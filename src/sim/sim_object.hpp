/**
 * @file
 * Base class for named simulation objects plus small process helpers.
 *
 * A SimObject is a named entity bound to a Simulator, with its own
 * statistics group — the moral equivalent of gem5's SimObject, scaled to
 * this project.  PeriodicProcess wraps the common "re-schedule myself
 * every T seconds" pattern with clean cancellation.
 */

#ifndef DHL_SIM_SIM_OBJECT_HPP
#define DHL_SIM_SIM_OBJECT_HPP

#include <functional>
#include <string>

#include "common/stats.hpp"
#include "sim/simulator.hpp"

namespace dhl {
namespace sim {

/**
 * A named entity living inside a Simulator.  Objects that schedule
 * events or hold RNG streams across a checkpoint define their own
 * visit() per the contract in sim/snapshot.hpp.
 */
class SimObject
{
  public:
    /**
     * @param sim  The owning simulator (must outlive this object).
     * @param name Hierarchical object name (e.g. "dhl.track0").
     */
    SimObject(Simulator &sim, std::string name);

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulator &simulator() { return sim_; }
    const Simulator &simulator() const { return sim_; }
    Time now() const { return sim_.now(); }

    /** Statistics group owned by this object. */
    stats::StatGroup &statsGroup() { return stats_; }
    const stats::StatGroup &statsGroup() const { return stats_; }

  protected:
    /** Convenience forwarding to the simulator. */
    EventHandle schedule(Time delay, Simulator::Action action);

  private:
    Simulator &sim_;
    std::string name_;
    stats::StatGroup stats_;
};

/**
 * A periodically firing process.  Starts stopped; start() schedules the
 * first tick after @p period (or a custom initial delay); stop() cancels
 * cleanly; the callback may call stop() on its owner.
 */
class PeriodicProcess
{
  public:
    using Tick = std::function<void()>;

    /**
     * @param sim    Owning simulator.
     * @param period Interval between ticks, seconds (> 0).
     * @param tick   Callback per tick.
     */
    PeriodicProcess(Simulator &sim, Time period, Tick tick);

    ~PeriodicProcess();

    PeriodicProcess(const PeriodicProcess &) = delete;
    PeriodicProcess &operator=(const PeriodicProcess &) = delete;

    /** Begin ticking; first tick after @p initial_delay (default: one
     * period). */
    void start();
    void start(Time initial_delay);

    /** Cancel the pending tick; safe to call repeatedly. */
    void stop();

    bool running() const { return running_; }
    Time period() const { return period_; }

    /** Change the period; takes effect from the next (re)scheduling. */
    void setPeriod(Time period);

  private:
    void scheduleNext(Time delay);

    Simulator &sim_;
    Time period_;
    Tick tick_;
    bool running_;
    EventHandle pending_;
};

} // namespace sim
} // namespace dhl

#endif // DHL_SIM_SIM_OBJECT_HPP
