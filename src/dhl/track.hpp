/**
 * @file
 * Track occupancy and launch admission for the event-driven DHL.
 *
 * The track grants departure times subject to the configured sharing
 * semantics:
 *
 *  - Exclusive:  one cart anywhere in the tube at a time (conservative;
 *                matches the paper's serial Table VI accounting).
 *  - Pipelined:  same-direction convoys separated by the headway; a
 *                direction reversal waits for the tube to drain.
 *  - DualTrack:  one tube per direction, each a convoy.
 *
 * The track also accounts launch energy (the LIM shot energy per
 * departure) so total system energy falls out of the simulation.
 */

#ifndef DHL_DHL_TRACK_HPP
#define DHL_DHL_TRACK_HPP

#include <cstdint>

#include "dhl/config.hpp"
#include "faults/fault_state.hpp"
#include "sim/sim_object.hpp"

namespace dhl {
namespace core {

/** Travel direction through the tube. */
enum class Direction
{
    Outbound = 0, ///< Library -> rack.
    Inbound = 1,  ///< Rack -> library.
};

/** One granted launch. */
struct LaunchGrant
{
    double depart_time;  ///< Absolute time the cart may depart, s.
    double arrive_time;  ///< Absolute arrival time at the far end, s.
    double energy;       ///< LIM energy charged to this launch, J.
};

/** The track resource. */
class Track : public sim::SimObject
{
  public:
    Track(sim::Simulator &sim, const DhlConfig &cfg,
          std::string name = "track");

    /** One-way travel time through the tube, s. */
    double travelTime() const { return travel_time_; }

    /**
     * Reserve the next admissible launch in @p dir, not earlier than
     * now.  The reservation immediately claims the tube; callers must
     * reserve in the order they intend to depart, and must not reserve
     * while !launchable() (degraded mode: park and retry instead).
     */
    LaunchGrant reserveLaunch(Direction dir);

    /**
     * True if the propulsion path is serviceable: both LIMs and the
     * track/vacuum assembly are up (always true without an attached
     * fault registry).  Carts already in the tube when a fault hits
     * complete their trip — a breach is modelled as blocking new
     * admissions, not as destroying in-flight carts.
     */
    bool launchable() const
    {
        return faults_ == nullptr || faults_->launchOk();
    }

    /** Attach the fault registry consulted by launchable() (nullptr to
     *  detach; the registry must outlive the track or be detached). */
    void attachFaults(const faults::FaultState *faults)
    {
        faults_ = faults;
    }

    /** Total LIM energy drawn so far, J. */
    double totalEnergy() const { return total_energy_; }

    /** Launches granted so far. */
    std::uint64_t launches() const { return launches_; }

    /** Launches granted in one direction. */
    std::uint64_t launches(Direction dir) const;

    /** Earliest time the tube is fully drained, s. */
    double drainTime() const { return drain_time_; }

    /**
     * Checkpoint/restore: the admission state (drain time, per-
     * direction last departures) and the energy/launch accumulators,
     * all bit-exact — restoring the accumulators to their checkpointed
     * values (rather than replaying deltas) is what keeps total energy
     * byte-identical across a restore, since (x + e) - x != e in
     * floating point.  The lim_energy stat reads total_energy_; the
     * launch counters and wait accumulator are host-side tallies and
     * restart from the boundary.
     */
    template <class Self, class Ar>
    static void visit(Self &self, Ar &ar);

  private:
    // dhl-analyze: transient(cfg_, faults_): constructor wiring — a
    // config reference and a fault-state pointer re-attached on rebuild
    const DhlConfig &cfg_;
    const faults::FaultState *faults_ = nullptr;
    // dhl-analyze: transient(travel_time_, shot_energy_): derived from
    // the physics model in the constructor, never mutated afterwards
    double travel_time_;
    double shot_energy_;

    double drain_time_;            ///< When the tube is empty.
    double last_depart_[2];        ///< Per-direction last departure.
    bool has_last_direction_;
    bool last_inbound_;            ///< Direction of the last launch.

    double total_energy_;
    std::uint64_t launches_;
    std::uint64_t launches_dir_[2];

    // dhl-analyze: transient(stat_launches_, stat_wait_): host-side
    // stats tallies, restart from the boundary
    stats::Counter *stat_launches_[2];
    stats::Accumulator *stat_wait_;
};

} // namespace core
} // namespace dhl

#endif // DHL_DHL_TRACK_HPP
