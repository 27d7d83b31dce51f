/**
 * @file
 * The maglev cart entity used by the event-driven DHL simulation: state
 * machine, location, payload accounting, connector wear, and per-SSD
 * behavioural models (failure injection).
 */

#ifndef DHL_DHL_CART_HPP
#define DHL_DHL_CART_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "dhl/config.hpp"
#include "storage/ssd_model.hpp"

namespace dhl {
namespace core {

/** Identifier of a cart within one DHL system. */
using CartId = std::uint32_t;

/** Where a cart currently is (or is heading). */
enum class CartPlace
{
    Library,  ///< Stored in (or docking at) the library.
    Track,    ///< In the tube.
    Rack,     ///< Docked at (or docking at) a rack docking station.
};

std::string to_string(CartPlace place);

/** Lifecycle state of a cart. */
enum class CartState
{
    Stored,    ///< At rest in a library slot.
    Undocking, ///< Being lowered onto the track (dock_time).
    InFlight,  ///< Travelling through the tube.
    Docking,   ///< Being lifted off the track (dock_time).
    Docked,    ///< Attached, SSDs idle and reachable over PCIe.
    Busy,      ///< Attached, SSDs serving a read or write.
};

std::string to_string(CartState state);

/** One cart. */
class Cart
{
  public:
    /**
     * @param id               Cart id.
     * @param cfg              Owning DHL configuration (outlives cart).
     * @param connector        Docking connector technology.
     * @param failure_per_trip Per-SSD failure probability per trip.
     */
    Cart(CartId id, const DhlConfig &cfg,
         storage::ConnectorKind connector = storage::ConnectorKind::UsbC,
         double failure_per_trip = 0.0);

    CartId id() const { return id_; }
    CartState state() const { return state_; }
    CartPlace place() const { return place_; }

    /** Total storage capacity, bytes. */
    double capacity() const;

    /** Bytes currently stored across the cart's SSDs. */
    double storedBytes() const;

    /** Free capacity, bytes. */
    double freeBytes() const { return capacity() - storedBytes(); }

    /**
     * Load @p bytes, striped evenly over the SSDs.  fatal() on
     * overflow.  Instantaneous (setup-time helper); timed writes go via
     * the docking station.
     */
    void loadBytes(double bytes);

    /** Remove @p bytes, striped evenly.  fatal() if more than stored. */
    void unloadBytes(double bytes);

    /** Erase all contents. */
    void eraseAll();

    /** Transition helpers (validated: panic on illegal transitions). */
    void beginUndock();
    void launch();
    void beginDock(CartPlace destination);
    void finishDock();
    void beginIo();
    void finishIo();

    /**
     * Record one mating cycle (a dock or an undock), which mates every
     * SSD connector of the cart at once.  The cycle that exceeds the
     * connector's rated life marks every healthy SSD ConnectorWorn;
     * after it no SSD is healthy until repairAll() resets the count,
     * so later cycles have nothing left to mark.
     */
    void
    matingCycle()
    {
        if (++cycles_ == rated_cycles_ + 1) [[unlikely]]
            wearOutConnectors();
    }

    /** Mating cycles since construction or the last repairAll(). */
    std::uint64_t matingCycles() const { return cycles_; }

    /**
     * Accumulated connector wear as a fraction of the rated mating
     * cycles (1.0 = at rated life; can exceed 1.0 once worn).  The ops
     * layer's wear coupling scales cart breakdown probability and
     * station MTBF with this — the state-dependent-failure hook that
     * replaces the memoryless assumption.
     */
    double
    wearFraction() const
    {
        return static_cast<double>(cycles_) /
               static_cast<double>(rated_cycles_);
    }

    /**
     * Roll per-SSD trip-failure dice, one draw per healthy SSD in SSD
     * order; returns # of SSDs that failed.  With a zero per-trip
     * probability no draw is taken.
     */
    std::size_t rollTripFailures(Rng &rng);

    /** Number of SSDs currently not healthy. */
    std::size_t unhealthySsds() const;

    /** Repair all SSDs and reset the mating-cycle count (library
     *  maintenance: the connectors are replaced with the devices). */
    void repairAll();

    /** Record a mechanical breakdown (cart pulled into the library's
     *  repair shop; the FaultState tracks the turnaround). */
    void recordBreakdown() { ++breakdowns_; }

    /** Mechanical breakdowns suffered so far. */
    std::uint64_t breakdowns() const { return breakdowns_; }

    /** Completed one-way trips. */
    std::uint64_t trips() const { return trips_; }

    const std::vector<storage::SsdModel> &ssds() const { return ssds_; }

  private:
    CartId id_;
    const DhlConfig &cfg_;
    CartState state_;
    CartPlace place_;
    std::uint64_t trips_;
    std::uint64_t breakdowns_ = 0;
    std::uint64_t rated_cycles_;
    std::uint64_t cycles_ = 0;
    double failure_per_trip_;
    std::vector<storage::SsdModel> ssds_;

    void wearOutConnectors();
};

} // namespace core
} // namespace dhl

#endif // DHL_DHL_CART_HPP
