/**
 * @file
 * Behavioural SSD model for the event-driven simulations.
 *
 * Tracks stored bytes, serves timed read/write operations at the device's
 * sequential bandwidth, and supports per-trip failure injection so the
 * RAID/backup recovery path in the controller can be exercised.  The
 * connector's rated life (Discussion: USB-C 10k-20k cycles vs M.2's
 * hundreds — the reason the paper recommends USB-C carrying PCIe for the
 * docking interface) is defined here; the mating-cycle count lives in
 * core::Cart, because every dock and undock mates all of a cart's SSDs
 * at once and repair is cart-wide.
 */

#ifndef DHL_STORAGE_SSD_MODEL_HPP
#define DHL_STORAGE_SSD_MODEL_HPP

#include <cstdint>
#include <string>

#include "common/random.hpp"
#include "storage/catalog.hpp"

namespace dhl {
namespace storage {

/** Connector technology used for docking. */
enum class ConnectorKind
{
    M2,   ///< M.2 edge connector: rated ~250 mating cycles.
    UsbC, ///< USB-C (carrying PCIe): rated ~10,000 cycles.
};

/** Rated mating cycles for a connector kind. */
std::uint64_t ratedCycles(ConnectorKind kind);

/** Health state of a simulated SSD. */
enum class SsdState
{
    Healthy,
    Failed,          ///< Data loss in flight; needs RAID/backup recovery.
    ConnectorWorn,   ///< Connector exceeded rated mating cycles.
};

std::string to_string(SsdState state);

/** One simulated SSD instance. */
class SsdModel
{
  public:
    /**
     * @param spec               Device specification.
     * @param failure_per_trip   Probability the device fails during one
     *                           shuttle trip (0 disables injection).
     */
    explicit SsdModel(const DeviceSpec &spec, double failure_per_trip = 0.0);

    const DeviceSpec &spec() const { return spec_; }
    SsdState state() const { return state_; }
    bool healthy() const { return state_ == SsdState::Healthy; }

    /** Bytes currently stored. */
    double storedBytes() const { return stored_; }

    /** Free capacity, bytes. */
    double freeBytes() const { return spec_.capacity - stored_; }

    /**
     * Duration of a sequential read of @p bytes, s.  fatal() if more
     * bytes than stored are requested or the device is not healthy.
     */
    double readTime(double bytes) const;

    /**
     * Duration of a sequential write of @p bytes, s, and commit the
     * bytes.  fatal() on overflow or unhealthy device.
     */
    double write(double bytes);

    /** Discard @p bytes (after a read has been consumed upstream). */
    void trim(double bytes);

    /** Erase all contents. */
    void eraseAll() { stored_ = 0.0; }

    /**
     * The connector exceeded its rated mating cycles: a healthy device
     * becomes ConnectorWorn; a failed one stays Failed.
     */
    void
    wearOutConnector()
    {
        if (state_ == SsdState::Healthy)
            state_ = SsdState::ConnectorWorn;
    }

    /**
     * Roll the failure dice for one shuttle trip using @p rng.
     * @return true if the device just failed.
     */
    bool rollTripFailure(Rng &rng);

    /** Repair/replace the device (library maintenance path). */
    void repair();

  private:
    DeviceSpec spec_;
    double failure_per_trip_;
    double stored_;
    SsdState state_;
};

} // namespace storage
} // namespace dhl

#endif // DHL_STORAGE_SSD_MODEL_HPP
