/**
 * @file
 * High-level facade wiring a complete event-driven DHL system and
 * running bulk dataset transfers on it — the executable counterpart of
 * the closed-form AnalyticalModel (they must agree; experiment E11).
 */

#ifndef DHL_DHL_SIMULATION_HPP
#define DHL_DHL_SIMULATION_HPP

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "dhl/analytical.hpp"
#include "dhl/config.hpp"
#include "dhl/controller.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_state.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace dhl {
namespace core {

/** Options for an event-driven bulk transfer run. */
struct BulkRunOptions
{
    /** Issue all opens up front so trips overlap (requires a Pipelined
     *  or DualTrack track mode and/or multiple docking stations to
     *  actually gain anything). */
    bool pipelined = false;

    /** Read each cart's contents at the rack before closing it. */
    bool include_read_time = false;

    /** Per-SSD per-trip failure probability (failure injection). */
    double failure_per_trip = 0.0;

    /** Component fault injection (disabled by default; when
     *  faults.enabled the run operates in degraded mode under a seeded
     *  FaultInjector — see DESIGN.md §8). */
    faults::FaultConfig faults{};
};

/** Result of an event-driven bulk transfer run. */
struct BulkRunResult
{
    double total_time;          ///< s (simulated).
    double total_energy;        ///< J (LIM shots).
    std::uint64_t launches;     ///< one-way launches.
    std::uint64_t carts;        ///< carts used.
    std::uint64_t ssd_failures; ///< failures injected en route.
    double avg_power;           ///< W.
    double effective_bandwidth; ///< bytes/s.
    double bytes_read;          ///< bytes actually read at the rack.
};

/** The cumulative counters a bulk run reports as per-run deltas. */
struct BulkTotals
{
    double time;                ///< simulated clock, s.
    double energy;              ///< J (LIM shots).
    std::uint64_t launches;     ///< one-way launches.
    std::uint64_t ssd_failures; ///< failures injected en route.
};

/** @p bytes split into cart loads of @p capacity, the last one partial. */
std::vector<double> cartLoads(double bytes, double capacity);

/**
 * The result of a run that moved @p bytes in @p carts carts, from the
 * totals sampled before and after it.  @p extra_energy is energy spent
 * off the tracks (the TE optical substrate).
 */
BulkRunResult bulkRunResult(double bytes, std::uint64_t carts,
                            const BulkTotals &before,
                            const BulkTotals &after, double bytes_read,
                            double extra_energy = 0.0);

/** A complete simulated DHL system. */
class DhlSimulation
{
  public:
    explicit DhlSimulation(const DhlConfig &cfg, std::uint64_t seed = 1);

    sim::Simulator &simulator() { return sim_; }
    DhlController &controller() { return *controller_; }
    const DhlConfig &config() const { return cfg_; }

    /**
     * Move @p bytes from the library to the rack endpoint: carts are
     * created preloaded, opened, optionally read, and closed.  Runs the
     * simulation to completion and reports the measured metrics.
     *
     * Serial mode (pipelined = false) reproduces the closed-form
     * BulkMetrics of AnalyticalModel::bulk() exactly.
     */
    BulkRunResult runBulkTransfer(double bytes,
                                  const BulkRunOptions &opts = {});

    /**
     * Turn on component fault injection (idempotent for an identical
     * config; fatal on an attempt to reconfigure).  Creates the
     * FaultState registry and the seeded FaultInjector and attaches
     * them to the controller.  Also invoked lazily by runBulkTransfer
     * when opts.faults.enabled.
     */
    void enableFaults(const faults::FaultConfig &cfg);

    /** True once fault injection is active. */
    bool faultsEnabled() const { return injector_ != nullptr; }

    /** The fault registry (nullptr until enableFaults). */
    faults::FaultState *faultState() { return fault_state_.get(); }

    /** The fault injector (nullptr until enableFaults). */
    faults::FaultInjector *faultInjector() { return injector_.get(); }

    /** The system trace (disabled until trace().enable()). */
    sim::TraceRecorder &trace() { return trace_; }

    /** Dump all statistics of every simulated object. */
    void dumpStats(std::ostream &os);

  private:
    BulkTotals totals() const;

    DhlConfig cfg_;
    sim::Simulator sim_;
    sim::TraceRecorder trace_;
    std::unique_ptr<faults::FaultState> fault_state_;
    std::unique_ptr<faults::FaultInjector> injector_;
    std::unique_ptr<DhlController> controller_;
};

} // namespace core
} // namespace dhl

#endif // DHL_DHL_SIMULATION_HPP
