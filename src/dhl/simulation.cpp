/**
 * @file
 * Implementation of the DHL simulation facade.
 */

#include "dhl/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hpp"

namespace dhl {
namespace core {

std::vector<double>
cartLoads(double bytes, double capacity)
{
    const auto n_carts =
        static_cast<std::size_t>(std::ceil(bytes / capacity));
    std::vector<double> loads;
    loads.reserve(n_carts);
    double remaining = bytes;
    for (std::size_t i = 0; i < n_carts; ++i) {
        const double load = std::min(capacity, remaining);
        loads.push_back(load);
        remaining -= load;
    }
    return loads;
}

BulkRunResult
bulkRunResult(double bytes, std::uint64_t carts, const BulkTotals &before,
              const BulkTotals &after, double bytes_read,
              double extra_energy)
{
    BulkRunResult r{};
    r.total_time = after.time - before.time;
    r.total_energy = after.energy - before.energy + extra_energy;
    r.launches = after.launches - before.launches;
    r.carts = carts;
    r.ssd_failures = after.ssd_failures - before.ssd_failures;
    r.avg_power = r.total_energy / r.total_time;
    r.effective_bandwidth = bytes / r.total_time;
    r.bytes_read = bytes_read;
    return r;
}

DhlSimulation::DhlSimulation(const DhlConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), trace_(sim_)
{
    validate(cfg_);
    controller_ =
        std::make_unique<DhlController>(sim_, cfg_, "dhl", seed);
    controller_->attachTrace(&trace_);
}

void
DhlSimulation::enableFaults(const faults::FaultConfig &cfg)
{
    fatal_if(!cfg.enabled, "enableFaults: config has enabled = false");
    faults::validate(cfg);
    if (injector_ != nullptr) {
        fatal_if(!(injector_->config() == cfg),
                 "fault injection is already enabled with a different "
                 "config; reconfiguring a live system is not supported");
        return;
    }
    fault_state_ = std::make_unique<faults::FaultState>(sim_);
    fault_state_->attachTrace(&trace_);
    injector_ = std::make_unique<faults::FaultInjector>(
        sim_, *fault_state_, cfg, controller_->numStations(),
        "dhl.faults");
    controller_->attachFaults(fault_state_.get());
}

BulkRunResult
DhlSimulation::runBulkTransfer(double bytes, const BulkRunOptions &opts)
{
    fatal_if(!(bytes > 0.0), "bulk transfer size must be positive");

    controller_->setFailureProbability(opts.failure_per_trip);
    if (opts.faults.enabled)
        enableFaults(opts.faults);

    const std::vector<double> loads =
        cartLoads(bytes, cfg_.cartCapacity().value());
    const std::uint64_t n_carts = loads.size();
    fatal_if(n_carts > cfg_.library_slots,
             "dataset needs more carts than the library has slots; "
             "increase library_slots");

    // Preload the dataset across fresh carts; earlier runs' carts keep
    // their ids, so these are the ids to open.
    std::vector<CartId> carts;
    carts.reserve(loads.size());
    for (double load : loads)
        carts.push_back(controller_->addCart(load).id());

    const BulkTotals before = totals();
    auto completed = std::make_shared<std::uint64_t>(0);
    auto bytes_read = std::make_shared<double>(0.0);

    // Per-cart pipeline: open -> [read] -> close.
    auto run_cart = [this, opts, bytes_read, completed](CartId id) {
        controller_->open(id, [this, opts, bytes_read, completed](
                                  Cart &cart, DockingStation &) {
            const CartId id = cart.id();
            auto finish = [this, id, completed](Cart &) { ++*completed; };
            if (opts.include_read_time && cart.storedBytes() > 0.0) {
                const double to_read = cart.storedBytes();
                controller_->read(
                    id, to_read,
                    [this, id, bytes_read, completed, finish](double b) {
                        *bytes_read += b;
                        controller_->close(id, finish);
                    });
            } else {
                controller_->close(id, finish);
            }
        });
    };

    // With fault injection active the injector keeps the event queue
    // populated (repairs, future failures), so running the queue dry
    // would overshoot: step until the transfers complete instead.  The
    // fault-free path is untouched, byte-identical with pre-fault runs.
    auto run_to = [this, completed](std::uint64_t target) {
        if (faultsEnabled()) {
            while (*completed < target && sim_.pendingEvents() > 0)
                sim_.step();
        } else {
            sim_.run();
        }
    };

    if (opts.pipelined) {
        // Issue everything; the controller's queue and the track's
        // admission policy shape the pipeline.
        for (CartId id : carts)
            run_cart(id);
        run_to(n_carts);
    } else {
        // Strictly serial: each cart's round trip completes before the
        // next is requested (the paper's Table VI accounting).
        for (std::uint64_t i = 0; i < n_carts; ++i) {
            run_cart(carts[i]);
            run_to(i + 1);
        }
    }

    panic_if(*completed != n_carts,
             "bulk transfer finished with carts unaccounted for");

    return bulkRunResult(bytes, n_carts, before, totals(), *bytes_read);
}

BulkTotals
DhlSimulation::totals() const
{
    return BulkTotals{sim_.now(), controller_->totalEnergy(),
                      controller_->launches(), controller_->ssdFailures()};
}

void
DhlSimulation::dumpStats(std::ostream &os)
{
    sim_.statsGroup().dump(os);
    controller_->statsGroup().dump(os);
    controller_->library().statsGroup().dump(os);
    controller_->track().statsGroup().dump(os);
    for (std::size_t i = 0; i < controller_->numStations(); ++i)
        controller_->station(i).statsGroup().dump(os);
}

} // namespace core
} // namespace dhl
