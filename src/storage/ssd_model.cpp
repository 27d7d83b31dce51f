/**
 * @file
 * Implementation of the behavioural SSD model.
 */

#include "storage/ssd_model.hpp"

#include "common/logging.hpp"

namespace dhl {
namespace storage {

std::uint64_t
ratedCycles(ConnectorKind kind)
{
    switch (kind) {
      case ConnectorKind::M2:
        return 250;
      case ConnectorKind::UsbC:
        return 10000;
    }
    panic("unreachable connector kind");
}

std::string
to_string(SsdState state)
{
    switch (state) {
      case SsdState::Healthy:
        return "healthy";
      case SsdState::Failed:
        return "failed";
      case SsdState::ConnectorWorn:
        return "connector-worn";
    }
    panic("unreachable SSD state");
}

SsdModel::SsdModel(const DeviceSpec &spec, double failure_per_trip)
    : spec_(spec),
      failure_per_trip_(failure_per_trip),
      stored_(0.0),
      state_(SsdState::Healthy)
{
    fatal_if(!(spec.capacity > 0.0), "SSD capacity must be positive");
    fatal_if(failure_per_trip < 0.0 || failure_per_trip > 1.0,
             "per-trip failure probability must be in [0, 1]");
}

double
SsdModel::readTime(double bytes) const
{
    fatal_if(bytes < 0.0, "read size must be non-negative");
    fatal_if(!healthy(), "cannot read a non-healthy SSD");
    if (bytes > stored_ + 1e-6) [[unlikely]]
        fatal("read beyond stored bytes on SSD '" + spec_.name + "'");
    return bytes / spec_.seq_read_bw;
}

double
SsdModel::write(double bytes)
{
    fatal_if(bytes < 0.0, "write size must be non-negative");
    fatal_if(!healthy(), "cannot write a non-healthy SSD");
    if (stored_ + bytes > spec_.capacity * (1.0 + 1e-9)) [[unlikely]]
        fatal("write overflows SSD '" + spec_.name + "'");
    stored_ += bytes;
    if (stored_ > spec_.capacity)
        stored_ = spec_.capacity;
    return bytes / spec_.seq_write_bw;
}

void
SsdModel::trim(double bytes)
{
    fatal_if(bytes < 0.0, "trim size must be non-negative");
    fatal_if(bytes > stored_ + 1e-6, "trim beyond stored bytes");
    stored_ -= bytes;
    if (stored_ < 0.0)
        stored_ = 0.0;
}

bool
SsdModel::rollTripFailure(Rng &rng)
{
    if (failure_per_trip_ <= 0.0 || state_ != SsdState::Healthy)
        return false;
    if (rng.uniform() < failure_per_trip_) {
        state_ = SsdState::Failed;
        return true;
    }
    return false;
}

void
SsdModel::repair()
{
    // Replacement device with contents restored from RAID/backup, so
    // stored bytes survive the repair.
    state_ = SsdState::Healthy;
}

} // namespace storage
} // namespace dhl
