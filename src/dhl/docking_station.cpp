/**
 * @file
 * Implementation of the docking station.
 */

#include "dhl/docking_station.hpp"

#include <utility>

#include "common/logging.hpp"

namespace dhl {
namespace core {

DockingStation::DockingStation(sim::Simulator &sim, const DhlConfig &cfg,
                               std::string name)
    : sim::SimObject(sim, std::move(name)),
      cfg_(cfg),
      array_(cfg.ssd, cfg.ssds_per_cart, cfg.pcie),
      cart_(nullptr),
      reserved_(false),
      busy_io_(false),
      bytes_read_(0.0),
      bytes_written_(0.0),
      matings_(0)
{
    auto &sg = statsGroup();
    stat_docks_ = &sg.addCounter("docks", "carts docked");
    stat_undocks_ = &sg.addCounter("undocks", "carts undocked");
    stat_bytes_read_ = &sg.addScalar("bytes_read", "bytes read");
    stat_bytes_written_ = &sg.addScalar("bytes_written", "bytes written");
    stat_io_time_ = &sg.addAccumulator("io_time", "IO durations, s");
}

void
DockingStation::reserve(Cart &cart)
{
    if (reserved_) [[unlikely]]
        panic(name() + ": reserving an occupied station");
    reserved_ = true;
    cart_ = &cart;
}

void
DockingStation::beginDock(Done done)
{
    if (!reserved_ || cart_ == nullptr) [[unlikely]]
        panic(name() + ": docking with no reserved cart");
    Cart *cart = cart_;
    cart->beginDock(CartPlace::Rack);
    schedule(cfg_.dock_time, [this, cart, done = std::move(done)] {
        cart->finishDock();
        ++matings_;
        stat_docks_->increment();
        if (done)
            done();
    });
}

void
DockingStation::beginUndock(Done done)
{
    if (cart_ == nullptr) [[unlikely]]
        panic(name() + ": undocking an empty station");
    if (busy_io_) [[unlikely]]
        panic(name() + ": undocking while IO is in progress");
    Cart *cart = cart_;
    cart->beginUndock();
    schedule(cfg_.dock_time, [this, done = std::move(done)] {
        ++matings_;
        stat_undocks_->increment();
        if (done)
            done();
    });
}

void
DockingStation::release()
{
    if (!reserved_) [[unlikely]]
        panic(name() + ": releasing a free station");
    reserved_ = false;
    cart_ = nullptr;
}

void
DockingStation::read(double bytes, IoDone done)
{
    if (cart_ == nullptr) [[unlikely]]
        panic(name() + ": read with no cart");
    fatal_if(bytes < 0.0, "read size must be non-negative");
    if (bytes > cart_->storedBytes() + 1e-3) [[unlikely]]
        fatal(name() + ": read beyond the cart's stored bytes");
    if (busy_io_) [[unlikely]]
        panic(name() + ": overlapping IO on one station");

    cart_->beginIo();
    busy_io_ = true;
    const double duration = bytes / array_.readBandwidth();
    stat_io_time_->sample(duration);
    schedule(duration, [this, bytes, done = std::move(done)] {
        busy_io_ = false;
        cart_->finishIo();
        bytes_read_ += bytes;
        stat_bytes_read_->add(bytes);
        if (done)
            done(bytes);
    });
}

void
DockingStation::write(double bytes, IoDone done)
{
    if (cart_ == nullptr) [[unlikely]]
        panic(name() + ": write with no cart");
    fatal_if(bytes < 0.0, "write size must be non-negative");
    if (bytes > cart_->freeBytes() * (1.0 + 1e-9)) [[unlikely]]
        fatal(name() + ": write overflows the cart");
    if (busy_io_) [[unlikely]]
        panic(name() + ": overlapping IO on one station");

    cart_->beginIo();
    busy_io_ = true;
    const double duration = bytes / array_.writeBandwidth();
    stat_io_time_->sample(duration);
    schedule(duration, [this, bytes, done = std::move(done)] {
        busy_io_ = false;
        cart_->finishIo();
        cart_->loadBytes(bytes);
        bytes_written_ += bytes;
        stat_bytes_written_->add(bytes);
        if (done)
            done(bytes);
    });
}

} // namespace core
} // namespace dhl
