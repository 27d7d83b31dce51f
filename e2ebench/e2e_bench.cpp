/**
 * @file
 * End-to-end benchmark of the DHL simulator.  README.md beside this
 * file gives the reason for each workload and which end-to-end metric
 * each per-layer metric should move.
 *
 *   e2e_bench --workload serve_day --seed 1 --seconds 25 --trace 0
 *
 * Four workloads drive the public APIs of serve::ServingSim and the
 * plan:: capacity planner, single-threaded (jobs = 1, des_shards = 1).
 * A run repeats its workload's *replicate* (one simulated day, or the
 * three E21 demand tiers) on seeds derived from --seed; the replicate
 * count is --seconds over the replicate's nominal host cost, so a run
 * measures for about --seconds and two commits always do the same
 * work.  Every operation is verified (conservation, drained ends,
 * byte-exact checkpoint round trips, planner gates); a failed check
 * counts the operation as failed.
 *
 * --trace 0 reports the end-to-end metrics, measured with tracing off
 * and scaled by a spin probe around each replicate to a reference core
 * speed, since a shared host's core speed drifts over minutes.
 * --trace 1 runs each replicate twice, untraced then traced on the same
 * seed: spans around every public call give the per-layer times, the
 * layers' public counters give the counts, and the paired difference
 * is the tracing overhead.  The last stdout line is one JSON object
 * with the keys correct, attempted, failed and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "exp/slo.hpp"
#include "plan/planner.hpp"
#include "serve/serving.hpp"
#include "span_trace.hpp"

using namespace dhl;
using e2ebench::ScopedSpan;
using e2ebench::SpanRecorder;
namespace u = dhl::units;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

//----------------------------------------------------------------------
// Metric names and units (BENCHMARK.json lists the same, in order)
//----------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"wall_s", "s"},        {"setup_s", "s"},      {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},   {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"serve.step_ms", "ms"},
    {"serve.table_ms", "ms"},
    {"serve.offered", "count"},
    {"serve.served", "count"},
    {"serve.deferred", "count"},
    {"serve.shed", "count"},
    {"serve.backlog_max", "count"},
    {"sim.events", "count"},
    {"sim.pending_max", "count"},
    {"sim.ns_per_event", "ns"},
    {"dhl.launches", "count"},
    {"dhl.us_per_launch", "us"},
    {"dhl.parked_launches", "count"},
    {"dhl.held_opens", "count"},
    {"dhl.cart_breakdowns", "count"},
    {"storage.ssd_failures", "count"},
    {"faults.failures", "count"},
    {"faults.repairs", "count"},
    {"faults.downtime_s", "s"},
    {"te.ticks", "count"},
    {"te.downgrades", "count"},
    {"network.optical_flows", "count"},
    {"network.optical_energy_j", "J"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.rebuild_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.bytes_max", "B"},
    {"snapshot.save_mb_per_s", "MB/s"},
    {"snapshot.restore_mb_per_s", "MB/s"},
    {"plan.constants_ms", "ms"},
    {"plan.sample_ms", "ms"},
    {"plan.eval_ms", "ms"},
    {"plan.total_ms", "ms"},
    {"plan.residual_ms", "ms"},
    {"plan.evals", "count"},
    {"plan.evals_per_s", "1/s"},
    {"error_rate", "ratio"},
    {"trace.overhead_ms", "ms"},
};

/** Per-layer values of one traced replicate, keyed by metric name. */
using Tally = std::map<std::string, double>;

double
ratioOr0(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    return v.empty() ? 0.0 : stats::percentile(std::move(v), 50.0);
}

//----------------------------------------------------------------------
// Replicates
//----------------------------------------------------------------------

/** What one replicate measured and produced. */
struct ReplicateResult
{
    double setup_s = 0.0;          ///< Construction before the first op.
    double wall_s = 0.0;           ///< Timed section, verification excluded.
    std::vector<double> op_ms;     ///< Host ms per operation.
    std::uint64_t failed_ops = 0;  ///< Operations with a failed check.
    std::string digest;            ///< Simulated outputs, one per line.
    Tally layers;                  ///< Traced replicates only.
};

/** Counts an operation as failed once, however many checks it fails,
 *  and explains the first few failures on stderr. */
class OpChecker
{
  public:
    explicit OpChecker(ReplicateResult &res) : res_(res) {}

    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        if (!op_failed_)
            ++res_.failed_ops;
        op_failed_ = true;
        if (reported_++ < 5)
            std::cerr << "e2e_bench: check failed: " << what << "\n";
    }

    /** Start the next operation's checks. */
    void nextOp() { op_failed_ = false; }

  private:
    ReplicateResult &res_;
    bool op_failed_ = false;
    int reported_ = 0;
};

std::string
hex64(std::uint64_t x)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << x;
    return os.str();
}

/** A double's IEEE-754 bit pattern, for digests. */
std::string
bitsOf(double x)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return hex64(b);
}

//----------------------------------------------------------------------
// Serving workloads
//----------------------------------------------------------------------

/** Component faults accelerated so a few dozen outages land within
 *  one simulated day, each repaired within minutes: an outage that
 *  outlasts an epoch boundary stalls the boundary's drain and builds
 *  admission backlog, which this fleet is meant to bypass. */
faults::FaultConfig
acceleratedFaults(std::uint64_t seed)
{
    faults::FaultConfig f;
    f.enabled = true;
    f.seed = seed;
    f.lim_mtbf = 200.0;
    f.lim_mttr = 0.02;
    f.track_mtbf = 400.0;
    f.track_mttr = 0.03;
    f.station_mtbf = 300.0;
    f.station_mttr = 0.01;
    f.cart_repair_per_trip = 2e-5;
    f.cart_repair_hours = 0.05;
    return f;
}

/** A faulted fleet under a flat day of 64 GB requests at @p rate req/s
 *  (3 req/s is about 55 % of 64 tracks' capacity): dispatch, the DES
 *  heap, the track/cart/dock machines, the per-SSD dice and the fault
 *  state do the work; admission backlog, TE and FlowSim stay idle. */
serve::ServeConfig
dayConfig(std::uint64_t seed, std::size_t tracks, double rate)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.tracks = tracks;
    cfg.seed = seed;
    cfg.epoch = 600.0;
    cfg.carts_per_track = 4;
    cfg.max_pending = 1024;
    cfg.policy = ops::DispatchPolicy::LeastQueued;
    cfg.des_shards = 1;
    workloads::RequestClass req{"req", 1.0, u::gigabytes(64), 0.0, 0};
    cfg.stages = {workloads::StageSpec{"day", u::days(1.0), rate, rate,
                                       {req}}};
    cfg.faults = acceleratedFaults(deriveSeed(seed, 1));
    cfg.domains.enabled = true;
    cfg.domains.domain_size = 4;
    cfg.domains.plant_mtbf = 96.0;
    cfg.domains.plant_mttr = 0.05;
    cfg.domains.seed = deriveSeed(seed, 2);
    return cfg;
}

serve::ServeConfig
serveDayConfig(std::uint64_t seed)
{
    return dayConfig(seed, 64, 3.0);
}

/** serve_day's fleet, a sixteenth of the size (one plant domain) at
 *  the same load share. */
serve::ServeConfig
checkpointHopConfig(std::uint64_t seed)
{
    return dayConfig(seed, 4, 0.1875);
}

/** E20's two-class mix under TE hybrid over a ramp/peak/drain day on
 *  16 healthy tracks: the bulk peak is above DHL saturation (admission
 *  backlog, shedding, downgrades), the interactive class loads the
 *  200 Gbit/s optical uplink below 1 (FlowSim). */
serve::ServeConfig
hybridPeakConfig(std::uint64_t seed)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.dhl.docking_stations = 2;
    cfg.tracks = 16;
    cfg.seed = seed;
    cfg.epoch = 600.0;
    cfg.carts_per_track = 4;
    cfg.max_pending = 256;
    cfg.policy = ops::DispatchPolicy::LeastQueued;
    cfg.des_shards = 1;
    workloads::RequestClass interactive{"interactive", 3.0,
                                        u::gigabytes(2), 0.0, 1};
    workloads::RequestClass bulk{"bulk", 1.0, u::gigabytes(192), 0.0, 0};
    const double peak = 12.0;
    cfg.stages = {
        workloads::StageSpec{"ramp", u::hours(6.0), 0.0, peak,
                             {interactive, bulk}},
        workloads::StageSpec{"peak", u::hours(12.0), peak, peak,
                             {interactive, bulk}},
        workloads::StageSpec{"drain", u::hours(6.0), peak, 0.0,
                             {interactive, bulk}},
    };
    cfg.te.enabled = true;
    cfg.te.mode = te::TeMode::Hybrid;
    cfg.te.control_period = 60.0;
    cfg.te.small_bytes = u::gigabytes(8.0);
    cfg.te.optical_capacity = u::gigabitsPerSecond(200.0);
    cfg.te.headroom = 0.9;
    cfg.te.usage_multiplier = 1.1;
    cfg.te.history = 4;
    cfg.te.min_priority_contended = 1;
    cfg.te.route = "C";
    return cfg;
}

/** Per-stage request accounting summed over stages. */
struct Books
{
    std::uint64_t offered = 0;
    std::uint64_t served = 0;
    std::uint64_t deferred = 0;
    std::uint64_t shed = 0;
};

Books
booksOf(const serve::ServingSim &sim)
{
    Books b;
    for (std::size_t s = 0; s < sim.config().stages.size(); ++s) {
        const stats::SloAccumulator &acc = sim.stageSlo(s);
        b.offered += acc.offered();
        b.served += acc.served();
        b.deferred += acc.deferred();
        b.shed += acc.shed();
    }
    return b;
}

/** offered = served + shed + backlog + in-flight. */
void
checkConservation(const serve::ServingSim &sim, OpChecker &check)
{
    const Books b = booksOf(sim);
    const std::uint64_t accounted = b.served + b.shed + sim.queueDepth() +
                                    sim.inFlight();
    check.check(b.offered == accounted && b.served == sim.totalServed() &&
                    b.shed == sim.totalShed(),
                "conservation at t=" + std::to_string(sim.now()) +
                    ": offered " + std::to_string(b.offered) +
                    " != served+shed+backlog+in-flight " +
                    std::to_string(accounted));
}

/** Fleet-wide layer counters, keyed by their per-layer metric name. */
Tally
readCounters(serve::ServingSim &sim)
{
    using faults::Component;
    Tally c;
    c["sim.events"] = static_cast<double>(
        sim.controller(0).simulator().eventsExecuted());
    for (std::size_t t = 0; t < sim.config().tracks; ++t) {
        const core::DhlController &ctl = sim.controller(t);
        c["dhl.launches"] += static_cast<double>(ctl.launches());
        c["dhl.parked_launches"] += static_cast<double>(ctl.parkedLaunches());
        c["dhl.held_opens"] += static_cast<double>(ctl.heldOpens());
        c["dhl.cart_breakdowns"] += static_cast<double>(ctl.cartBreakdowns());
        c["storage.ssd_failures"] += static_cast<double>(ctl.ssdFailures());
        const faults::FaultState &fs = sim.faultState(t);
        for (Component k :
             {Component::Lim, Component::Track, Component::Station}) {
            c["faults.failures"] += static_cast<double>(fs.failures(k));
            c["faults.repairs"] += static_cast<double>(fs.repairs(k));
        }
        c["faults.downtime_s"] += fs.serviceDowntime(sim.now());
    }
    return c;
}

std::string
serveDigest(serve::ServingSim &sim, const std::vector<exp::StageSlo> &slo,
            const std::vector<exp::ClassSlo> &te_rows)
{
    std::ostringstream os;
    for (const exp::StageSlo &stage : slo) {
        os << "slo";
        for (const std::string &c : exp::sloRow(stage))
            os << "|" << c;
        os << "\n";
    }
    for (const exp::ClassSlo &row : te_rows) {
        os << "te";
        for (const std::string &c : exp::classSloRow(row))
            os << "|" << c;
        os << "\n";
    }
    os << "served " << sim.totalServed() << " shed " << sim.totalShed()
       << " launches " << sim.totalLaunches() << " epochs "
       << sim.epochsCompleted() << "\nenergy " << bitsOf(sim.totalEnergy())
       << " optical_energy " << bitsOf(sim.opticalEnergy())
       << " optical_served " << sim.opticalServed() << " downgrades "
       << sim.teDowngrades() << " end " << bitsOf(sim.now()) << "\n";
    return os.str();
}

/**
 * One simulated day of a serving workload.  An operation is one
 * stepEpoch(); with @p hop it is checkpoint -> rebuild -> restore ->
 * stepEpoch(), continuing on the freshly built fleet every epoch.
 */
ReplicateResult
serveReplicate(const serve::ServeConfig &cfg, bool hop,
               SpanRecorder &spans, std::int64_t &next_op)
{
    ReplicateResult res;
    OpChecker check(res);
    const bool traced = spans.enabled();
    const std::size_t first_span = spans.size();

    const auto s0 = Clock::now();
    auto sim = std::make_unique<serve::ServingSim>(cfg);
    res.setup_s = msSince(s0) * 1e-3;
    Tally &L = res.layers;
    double backlog_max = 0.0;
    double pending_max = 0.0;
    double bytes_max = 0.0;
    double bytes_total = 0.0;
    double verify_ms = 0.0;
    std::vector<exp::StageSlo> slo;
    std::vector<exp::ClassSlo> te_rows;

    const auto t0 = Clock::now();
    {
        ScopedSpan rep(spans, "replicate");
        while (!sim->done()) {
            check.nextOp();
            const std::int64_t op = next_op++;
            const auto o0 = Clock::now();
            double op_verify_ms = 0.0;
            {
                ScopedSpan ops(spans, "op", op);
                if (hop) {
                    std::stringstream ck;
                    {
                        ScopedSpan s(spans, "snapshot.save");
                        sim->checkpoint(ck);
                    }
                    {
                        ScopedSpan s(spans, "snapshot.rebuild");
                        sim.reset();
                        sim = std::make_unique<serve::ServingSim>(cfg);
                    }
                    {
                        ScopedSpan s(spans, "snapshot.restore");
                        sim->restore(ck);
                    }
                    const auto v0 = Clock::now();
                    {
                        ScopedSpan s(spans, "verify");
                        const std::string written = ck.str();
                        std::ostringstream again;
                        sim->checkpoint(again);
                        check.check(again.str() == written,
                                    "checkpoint(restore(c)) != c at "
                                    "epoch " +
                                        std::to_string(
                                            sim->epochsCompleted()));
                        const auto bytes =
                            static_cast<double>(written.size());
                        bytes_max = std::max(bytes_max, bytes);
                        bytes_total += bytes;
                    }
                    op_verify_ms += msSince(v0);
                }
                Tally before;
                if (traced)
                    before = readCounters(*sim);
                {
                    ScopedSpan s(spans, "serve.stepEpoch");
                    sim->stepEpoch();
                }
                const auto v0 = Clock::now();
                {
                    ScopedSpan s(spans, "verify");
                    checkConservation(*sim, check);
                    backlog_max = std::max(
                        backlog_max, static_cast<double>(sim->queueDepth()));
                    if (traced) {
                        // Deltas: a hop's fresh fleet restarts some
                        // counters, so only in-step changes add up.
                        for (const auto &[name, v] : readCounters(*sim))
                            L[name] += v - before[name];
                        pending_max = std::max(
                            pending_max,
                            static_cast<double>(sim->controller(0)
                                                    .simulator()
                                                    .pendingEvents()));
                    }
                }
                op_verify_ms += msSince(v0);
            }
            res.op_ms.push_back(msSince(o0) - op_verify_ms);
            verify_ms += op_verify_ms;
        }
        {
            ScopedSpan s(spans, "serve.sloTable");
            slo = sim->sloTable();
        }
        if (sim->teEnabled()) {
            ScopedSpan s(spans, "serve.teTable");
            te_rows = sim->teTable();
        }
    }
    res.wall_s = (msSince(t0) - verify_ms) * 1e-3;

    check.check(sim->queueDepth() == 0 && sim->inFlight() == 0,
                "backlog " + std::to_string(sim->queueDepth()) +
                    " / in-flight " + std::to_string(sim->inFlight()) +
                    " at the end of the day");
    res.digest = serveDigest(*sim, slo, te_rows);

    if (traced) {
        const Books b = booksOf(*sim);
        const double step_ms = spans.totalMs("serve.stepEpoch", first_span);
        L["serve.step_ms"] = step_ms;
        L["serve.table_ms"] = spans.totalMs("serve.sloTable", first_span) +
                              spans.totalMs("serve.teTable", first_span);
        L["serve.offered"] = static_cast<double>(b.offered);
        L["serve.served"] = static_cast<double>(b.served);
        L["serve.deferred"] = static_cast<double>(b.deferred);
        L["serve.shed"] = static_cast<double>(b.shed);
        L["serve.backlog_max"] = backlog_max;
        L["sim.pending_max"] = pending_max;
        L["sim.ns_per_event"] = ratioOr0(step_ms * 1e6, L["sim.events"]);
        L["dhl.us_per_launch"] = ratioOr0(step_ms * 1e3, L["dhl.launches"]);
        if (sim->teEnabled()) {
            L["te.ticks"] =
                static_cast<double>(sim->teController().ticks());
            L["te.downgrades"] = static_cast<double>(sim->teDowngrades());
            L["network.optical_flows"] =
                static_cast<double>(sim->opticalServed());
            L["network.optical_energy_j"] = sim->opticalEnergy();
        }
        const double save_ms = spans.totalMs("snapshot.save", first_span);
        const double restore_ms =
            spans.totalMs("snapshot.restore", first_span);
        L["snapshot.save_ms"] = save_ms;
        L["snapshot.rebuild_ms"] =
            spans.totalMs("snapshot.rebuild", first_span);
        L["snapshot.restore_ms"] = restore_ms;
        L["snapshot.bytes_max"] = bytes_max;
        L["snapshot.save_mb_per_s"] =
            ratioOr0(bytes_total * 1e-6, save_ms * 1e-3);
        L["snapshot.restore_mb_per_s"] =
            ratioOr0(bytes_total * 1e-6, restore_ms * 1e-3);
    }
    return res;
}

//----------------------------------------------------------------------
// Planner workload
//----------------------------------------------------------------------

struct Tier
{
    const char *name;
    double users_millions;
};

/** E21's three demand tiers. */
const Tier kTiers[] = {{"light", 0.5}, {"medium", 1.0}, {"heavy", 2.0}};

/** E21's planner setup (2048 scenarios, 100 bootstrap resamples, DES
 *  cross-check on, one thread) with the lattice widened from 8 to 10
 *  tracks (100 points): E21's heavy-tier winner sits on the 8-track
 *  edge, and on about one derived seed in five no 8-track design
 *  meets the target. */
plan::PlannerConfig
e21Config(double users_millions, std::uint64_t seed)
{
    plan::PlannerConfig cfg;
    cfg.assumptions.dhl = core::defaultConfig();
    cfg.assumptions.dhl.track_mode = core::TrackMode::Pipelined;
    cfg.assumptions.dhl.docking_stations = 2;
    cfg.assumptions.slo_latency = 60.0;
    cfg.assumptions.target_quantile = 0.9;
    cfg.demand.users_median = users_millions * 1.0e6;
    cfg.tracks_max = 10;
    cfg.carts_max = 10;
    cfg.scenarios = 2048;
    cfg.bootstrap = 100;
    cfg.validate_des = true;
    cfg.jobs = 1;
    cfg.seed = seed;
    return cfg;
}

std::vector<plan::CapacityPlanner>
buildPlanners(std::uint64_t seed)
{
    std::vector<plan::CapacityPlanner> planners;
    planners.reserve(std::size(kTiers));
    for (const Tier &tier : kTiers)
        planners.emplace_back(e21Config(tier.users_millions, seed));
    return planners;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** evaluateBatch agrees bit for bit with evaluateScalar on the head of
 *  the planner's scenario stream, for design @p d. */
bool
batchMatchesScalar(const plan::PlannerConfig &cfg,
                   const plan::DesignPoint &d)
{
    constexpr std::size_t kSample = 64;
    const plan::ScenarioSampler sampler(cfg.demand, cfg.seed);
    const plan::DesignConstants c = plan::designConstants(cfg.assumptions, d);
    plan::ScenarioBatch in;
    plan::EvalBatch out;
    sampler.fill(0, kSample, in);
    plan::evaluateBatch(c, in, cfg.assumptions.slo_latency, out);
    for (std::size_t i = 0; i < kSample; ++i) {
        const plan::ScenarioOutcome s =
            plan::evaluateScalar(cfg.assumptions, d, sampler.at(i));
        if (!sameBits(s.utilisation, out.utilisation[i]) ||
            !sameBits(s.latency, out.latency[i]) ||
            !sameBits(s.energy_day, out.energy_day[i]) ||
            s.meets_slo != (out.meets_slo[i] != 0))
            return false;
    }
    return true;
}

std::string
designLabel(const plan::DesignPoint &d)
{
    return "t" + std::to_string(d.tracks) + ".c" +
           std::to_string(d.carts_per_track) + ".p" +
           std::to_string(d.plants);
}

/**
 * Replay, outside plan(), the calls scoreDesign() makes into the
 * sampler and the batched evaluator over the same lattice and stream,
 * each in its own span.  What plan() spends beyond them (bootstrap,
 * sketch, runner, DES cross-check) cannot be split from outside.
 */
void
planAttribution(const plan::CapacityPlanner &planner, SpanRecorder &spans)
{
    const plan::PlannerConfig &cfg = planner.config();
    const plan::ScenarioSampler sampler(cfg.demand, cfg.seed);
    plan::ScenarioBatch in;
    plan::EvalBatch out;
    for (const plan::DesignPoint &d : planner.lattice()) {
        plan::DesignConstants c;
        {
            ScopedSpan s(spans, "plan.designConstants");
            c = plan::designConstants(cfg.assumptions, d);
        }
        for (std::uint64_t first = 0; first < cfg.scenarios;
             first += cfg.batch) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(cfg.batch, cfg.scenarios - first));
            {
                ScopedSpan s(spans, "plan.fill");
                sampler.fill(first, n, in);
            }
            {
                ScopedSpan s(spans, "plan.evaluateBatch");
                plan::evaluateBatch(c, in, cfg.assumptions.slo_latency,
                                    out);
            }
        }
    }
}

/** The three E21 tiers; an operation is one plan() call. */
ReplicateResult
planReplicate(std::uint64_t seed, SpanRecorder &spans,
              std::int64_t &next_op)
{
    ReplicateResult res;
    OpChecker check(res);
    const std::size_t first_span = spans.size();
    const auto s0 = Clock::now();
    const std::vector<plan::CapacityPlanner> planners = buildPlanners(seed);
    res.setup_s = msSince(s0) * 1e-3;
    std::vector<plan::PlanResult> results;
    double verify_ms = 0.0;

    const auto t0 = Clock::now();
    {
        ScopedSpan rep(spans, "replicate");
        for (std::size_t i = 0; i < planners.size(); ++i) {
            check.nextOp();
            const auto o0 = Clock::now();
            double op_verify_ms = 0.0;
            {
                ScopedSpan ops(spans, "op", next_op++);
                {
                    ScopedSpan s(spans, "plan.plan");
                    results.push_back(planners[i].plan());
                }
                const auto v0 = Clock::now();
                {
                    ScopedSpan s(spans, "verify");
                    const plan::PlanResult &r = results.back();
                    const std::string tier = kTiers[i].name;
                    check.check(r.hasWinner(), "tier " + tier +
                                                   " has no winner");
                    check.check(r.des.ran && r.des.ratio >= 0.30 &&
                                    r.des.ratio <= 1.05,
                                "tier " + tier + " DES ratio " +
                                    std::to_string(r.des.ratio) +
                                    " outside [0.30, 1.05]");
                    const plan::DesignPoint d =
                        r.hasWinner() ? r.winnerReport().constants.design
                                      : planners[i].lattice().front();
                    check.check(batchMatchesScalar(planners[i].config(), d),
                                "tier " + tier +
                                    ": evaluateBatch != evaluateScalar");
                    if (i > 0 && r.hasWinner() && results[i - 1].hasWinner())
                        check.check(
                            r.winnerReport().constants.capex >=
                                results[i - 1].winnerReport().constants.capex,
                            "winner capex not monotone at tier " + tier);
                }
                op_verify_ms = msSince(v0);
            }
            res.op_ms.push_back(msSince(o0) - op_verify_ms);
            verify_ms += op_verify_ms;
        }
    }
    res.wall_s = (msSince(t0) - verify_ms) * 1e-3;

    std::ostringstream digest;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const plan::PlanResult &r = results[i];
        digest << "plan|" << kTiers[i].name;
        if (r.hasWinner()) {
            const plan::DesignReport &w = r.winnerReport();
            digest << "|" << designLabel(w.constants.design) << "|"
                   << bitsOf(w.constants.capex) << "|"
                   << bitsOf(w.attainment) << "|" << bitsOf(w.attainment_lo)
                   << "|" << bitsOf(w.attainment_hi) << "|"
                   << bitsOf(w.latency_slo_q) << "|" << bitsOf(r.des.ratio);
        } else {
            digest << "|none";
        }
        digest << "\n";
    }
    res.digest = digest.str();

    if (spans.enabled()) {
        double evals = 0.0;
        for (const plan::PlanResult &r : results)
            evals += static_cast<double>(r.reports.size() * r.scenarios);
        const double total_ms = spans.totalMs("plan.plan", first_span);
        const std::size_t attribution_first = spans.size();
        {
            ScopedSpan s(spans, "plan.attribution");
            for (const plan::CapacityPlanner &p : planners)
                planAttribution(p, spans);
        }
        Tally &L = res.layers;
        L["plan.constants_ms"] =
            spans.totalMs("plan.designConstants", attribution_first);
        L["plan.sample_ms"] = spans.totalMs("plan.fill", attribution_first);
        L["plan.eval_ms"] =
            spans.totalMs("plan.evaluateBatch", attribution_first);
        L["plan.total_ms"] = total_ms;
        L["plan.residual_ms"] = total_ms - L["plan.constants_ms"] -
                                L["plan.sample_ms"] - L["plan.eval_ms"];
        L["plan.evals"] = evals;
        L["plan.evals_per_s"] = ratioOr0(evals, total_ms * 1e-3);
    }
    return res;
}

//----------------------------------------------------------------------
// Workload table
//----------------------------------------------------------------------

struct Workload
{
    const char *name;
    /** Host seconds of one replicate on the reference host (a shared
     *  4-vCPU x86-64 container, Release build, in its slower phases);
     *  sets the replicate count. */
    double nominal_s;
    std::function<ReplicateResult(std::uint64_t seed, SpanRecorder &,
                                  std::int64_t &next_op)>
        replicate;
};

std::vector<Workload>
workloadTable()
{
    using Cfg = serve::ServeConfig (*)(std::uint64_t);
    auto serveWorkload = [](const char *name, double nominal_s, Cfg make,
                            bool hop) {
        return Workload{
            name, nominal_s,
            [make, hop](std::uint64_t seed, SpanRecorder &spans,
                        std::int64_t &next_op) {
                return serveReplicate(make(seed), hop, spans, next_op);
            }};
    };
    return {
        serveWorkload("serve_day", 1.7, serveDayConfig, false),
        serveWorkload("hybrid_peak", 2.8, hybridPeakConfig, false),
        serveWorkload("checkpoint_hop", 1.6, checkpointHopConfig, true),
        Workload{"plan_e21", 0.43, planReplicate},
    };
}

//----------------------------------------------------------------------
// Host context
//----------------------------------------------------------------------

/** Spin-loop iterations per second summed over @p threads threads. */
double
spinRate(unsigned threads, double seconds)
{
    std::vector<std::uint64_t> counts(threads, 0);
    std::vector<std::uint64_t> sinks(threads, 0);
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                const auto end =
                    Clock::now() + std::chrono::duration<double>(seconds);
                std::uint64_t x = t + 1;
                std::uint64_t n = 0;
                while (Clock::now() < end) {
                    for (int i = 0; i < 4096; ++i)
                        x = x * 6364136223846793005ull + 1442695040888963407ull;
                    n += 4096;
                }
                counts[t] = n;
                sinks[t] = x;
            });
        }
    }
    std::uint64_t total = 0;
    for (std::uint64_t n : counts)
        total += n;
    return static_cast<double>(total) / seconds;
}

/** Spin rate of the reference core that untraced times are scaled to:
 *  a time t measured while one spinner ran at rate r is reported as
 *  t * r / kRefSpinRate, the time the same work takes on a core that
 *  spins at this rate. */
constexpr double kRefSpinRate = 1e9;
/** Length of the speed probe taken between untraced replicates. */
constexpr double kSpeedProbeS = 0.02;

/** Effective parallel capacity: nproc spinners' throughput over one
 *  spinner's.  nproc alone overstates a shared host. */
double
effectiveCores(unsigned nproc)
{
    constexpr double kProbeS = 0.1;
    const double one = spinRate(1, kProbeS);
    return one > 0.0 ? spinRate(nproc, kProbeS) / one : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** FNV-1a over the run's digests. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Highest percentile of a fixed ladder with at least 10 of @p n
 *  operations beyond it, or 0 if there is none.  The ladder is coarse
 *  so that runs of one workload report the same percentile. */
double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    }
    return 0.0;
}

struct RunTail
{
    double ms = 0.0;
    double pct = 0.0;            ///< The percentile it was taken at.
    bool per_replicate = false;  ///< Median of per-replicate tails.
};

/** The run's op_ms_tail.  When each replicate has operations enough for
 *  a tail of its own, the median of the replicates' tails, so that one
 *  host hiccup or one heavy seed does not set it; otherwise the tail
 *  over every operation. */
RunTail
runTail(const std::vector<std::vector<double>> &rep_ops,
        const std::vector<double> &all_ops)
{
    std::size_t fewest = std::numeric_limits<std::size_t>::max();
    for (const std::vector<double> &ops : rep_ops)
        fewest = std::min(fewest, ops.size());
    const double rep_pct = tailPercentile(fewest);
    if (rep_pct > 0.0) {
        std::vector<double> tails;
        for (const std::vector<double> &ops : rep_ops)
            tails.push_back(stats::percentile(ops, rep_pct));
        return {median(std::move(tails)), rep_pct, true};
    }
    const double pct = std::max(50.0, tailPercentile(all_ops.size()));
    return {stats::percentile(all_ops, pct), pct, false};
}

/** Self time per span name: calls, total ms, self ms. */
void
printSelfTimes(const SpanRecorder &spans, std::ostream &os)
{
    struct Row
    {
        std::size_t calls = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::map<std::string, Row> rows;
    const std::vector<std::int64_t> self = spans.selfNs();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const e2ebench::Span &s = spans.spans()[i];
        Row &r = rows[s.name];
        ++r.calls;
        r.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
        r.self_ms += static_cast<double>(self[i]) * 1e-6;
    }
    os << "self time per span (all traced replicates):\n";
    for (const auto &[name, r] : rows) {
        os << "  " << std::left << std::setw(24) << name << std::right
           << std::setw(8) << r.calls << " calls  total " << std::fixed
           << std::setprecision(3) << std::setw(12) << r.total_ms
           << " ms  self " << std::setw(12) << r.self_ms << " ms\n";
        os.unsetf(std::ios::floatfield);
    }
}

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7919;

int
run(int argc, const char *const *argv)
{
    ArgParser args("e2e_bench",
                   "end-to-end simulator benchmark with per-layer "
                   "attribution (see e2ebench/README.md)");
    args.addOption("workload",
                   "serve_day | hybrid_peak | checkpoint_hop | plan_e21");
    args.addOption("seed", "workload seed", std::to_string(kDefaultSeed));
    args.addOption("seconds", "measured seconds per run (nominal)", "25");
    args.addOption("trace",
                   "0 = end-to-end metrics, 1 = per-layer metrics", "0");
    args.addOption("out-dir", "where results and spans are written", "");
    args.addOption("git-sha", "recorded with the result", "unknown");
    args.addOption("source-digest", "recorded with the result", "unknown");
    if (!args.parse(argc, argv, std::cout))
        return 0;

    const std::vector<Workload> table = workloadTable();
    const std::string wname = args.get("workload");
    const auto wl = std::find_if(table.begin(), table.end(),
                                 [&](const Workload &w) {
                                     return wname == w.name;
                                 });
    fatal_if(wl == table.end(), "unknown --workload '" + wname + "'");
    const long seed_arg = args.getInt("seed");
    fatal_if(seed_arg < 0, "--seed must be >= 0");
    const auto seed = static_cast<std::uint64_t>(seed_arg);
    const double seconds = args.getDouble("seconds");
    fatal_if(!(seconds > 0.0 && seconds <= 600.0),
             "--seconds must be in (0, 600]");
    const long trace_arg = args.getInt("trace");
    fatal_if(trace_arg != 0 && trace_arg != 1, "--trace must be 0 or 1");
    const bool trace = trace_arg == 1;

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const double cores_before = effectiveCores(nproc);

    const auto reps = static_cast<std::size_t>(
        std::max(3.0, std::round(seconds / wl->nominal_s)));
    // Traced runs repeat each replicate untraced then traced, so they
    // do half as many to take about as long.
    const std::size_t runs = trace ? std::max<std::size_t>(2, reps / 2)
                                   : reps;

    SpanRecorder off(false);
    SpanRecorder spans(true);
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> op_ms;
    std::vector<std::vector<double>> rep_ops;  ///< op_ms by replicate.
    std::vector<double> raw_walls;    ///< Untraced walls before scaling.
    std::vector<double> scales;       ///< Host speed over the reference.
    std::vector<double> overhead_ms;
    std::vector<Tally> tallies;
    std::uint64_t failed = 0;
    std::string digests;
    std::string first_digest;
    std::int64_t next_op = 0;
    // Untraced replicates sit between speed probes; each one's times
    // are scaled by the mean rate of the probes on either side.
    double speed_before = trace ? 0.0 : spinRate(1, kSpeedProbeS);
    for (std::size_t r = 0; r < runs; ++r) {
        const std::uint64_t rseed = deriveSeed(seed, r);
        ReplicateResult res = wl->replicate(rseed, off, next_op);
        if (!trace) {
            const double speed_after = spinRate(1, kSpeedProbeS);
            const double scale =
                0.5 * (speed_before + speed_after) / kRefSpinRate;
            speed_before = speed_after;
            scales.push_back(scale);
            raw_walls.push_back(res.wall_s);
            res.setup_s *= scale;
            res.wall_s *= scale;
            for (double &ms : res.op_ms)
                ms *= scale;
        }
        setups.push_back(res.setup_s);
        walls.push_back(res.wall_s);
        op_ms.insert(op_ms.end(), res.op_ms.begin(), res.op_ms.end());
        rep_ops.push_back(res.op_ms);
        failed += res.failed_ops;
        digests += res.digest;
        if (r == 0)
            first_digest = res.digest;
        if (trace) {
            ReplicateResult tr = wl->replicate(rseed, spans, next_op);
            failed += tr.failed_ops;
            if (tr.digest != res.digest) {
                std::cerr << "e2e_bench: tracing changed the simulated "
                             "outputs of replicate "
                          << r << "\n";
                ++failed;
            }
            overhead_ms.push_back((tr.wall_s - res.wall_s) * 1e3);
            tallies.push_back(std::move(tr.layers));
        }
    }
    const double cores_after = effectiveCores(nproc);
    const auto attempted = static_cast<std::uint64_t>(next_op);
    failed = std::min(failed, attempted);

    const RunTail tail = runTail(rep_ops, op_ms);
    std::map<std::string, double> metrics;
    const MetricDef *defs = trace ? kPerLayer : kEndToEnd;
    const std::size_t ndefs =
        trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    if (trace) {
        for (std::size_t i = 0; i < ndefs; ++i) {
            std::vector<double> v;
            for (const Tally &t : tallies) {
                const auto it = t.find(defs[i].name);
                v.push_back(it == t.end() ? 0.0 : it->second);
            }
            metrics[defs[i].name] = median(std::move(v));
        }
        metrics["error_rate"] = ratioOr0(static_cast<double>(failed),
                                         static_cast<double>(attempted));
        metrics["trace.overhead_ms"] = median(overhead_ms);
    } else {
        // On a shared host one core's speed drifts by up to ~2x over
        // minutes, and this code's speed drifts with it; times scaled
        // to the reference spin rate do not.  See README.md.
        metrics["wall_s"] = median(walls);
        metrics["setup_s"] = median(setups);
        metrics["op_ms_p50"] = stats::percentile(op_ms, 50.0);
        metrics["op_ms_tail"] = tail.ms;
        metrics["peak_rss_mb"] = peakRssMb();
    }

    // Digest of the simulated outputs: not gated, it lets a change
    // show that its simulated statistics stayed identical.
    const std::string digest = hex64(fnv1a(digests));
    std::cout << "workload " << wl->name << " seed " << seed << ", "
              << runs << " replicates, " << attempted << " operations, "
              << failed << " failed\n";
    std::cout << "replicate 0 outputs:\n" << first_digest;
    std::cout << "digest " << digest << "\n";
    if (!trace) {
        std::cout << "times are host times scaled to a core spinning at "
                  << kRefSpinRate << " iterations/s; this host ran at "
                  << median(scales) << " of that (median, range "
                  << *std::min_element(scales.begin(), scales.end())
                  << " to "
                  << *std::max_element(scales.begin(), scales.end())
                  << "), unscaled median wall " << median(raw_walls)
                  << " s\n";
        std::cout << "op_ms_tail is p" << tail.pct << " of "
                  << (tail.per_replicate ? "each replicate's operations, "
                                           "median over replicates; "
                                         : "all operations; ")
                  << op_ms.size() << " operations\n";
    } else {
        printSelfTimes(spans, std::cout);
    }

    std::ostringstream ctx;
    ctx << std::setprecision(6) << "{\"workload\": " << jsonString(wl->name)
        << ", \"seed\": " << seed << ", \"default_seed\": " << kDefaultSeed
        << ", \"heldout_seed\": " << kHeldOutSeed
        << ", \"seconds\": " << seconds << ", \"trace\": " << trace_arg
        << ", \"replicates\": " << runs << ", \"operations\": " << attempted
        << ", \"host_speed\": " << (trace ? 0.0 : median(scales))
        << ", \"unscaled_wall_s\": " << (trace ? 0.0 : median(raw_walls))
        << ", \"op_tail_pct\": " << tail.pct
        << ", \"op_tail_per_replicate\": "
        << (tail.per_replicate ? "true" : "false")
        << ", \"digest\": " << jsonString(digest)
        << ", \"git_sha\": " << jsonString(args.get("git-sha"))
        << ", \"source_digest\": " << jsonString(args.get("source-digest"))
        << ", \"build_type\": " << jsonString(E2E_BUILD_TYPE)
        << ", \"compiler\": " << jsonString(E2E_COMPILER)
        << ", \"nproc\": " << nproc
        << ", \"effective_cores_before\": " << cores_before
        << ", \"effective_cores_after\": " << cores_after << "}";
    std::cout << "context " << ctx.str() << "\n";

    std::ostringstream result;
    result << std::setprecision(std::numeric_limits<double>::max_digits10)
           << "{\"correct\": " << (failed == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
    for (std::size_t i = 0; i < ndefs; ++i) {
        const double v = metrics[defs[i].name];
        fatal_if(!std::isfinite(v), std::string("metric ") + defs[i].name +
                                        " is not finite");
        result << (i ? ", " : "") << jsonString(defs[i].name)
               << ": {\"value\": " << v
               << ", \"unit\": " << jsonString(defs[i].unit) << "}";
    }
    result << "}}";

    if (!args.get("out-dir").empty()) {
        namespace fs = std::filesystem;
        const fs::path dir = args.get("out-dir");
        const std::string stem = std::string(wl->name) + "-seed" +
                                 std::to_string(seed) + "-trace" +
                                 std::to_string(trace_arg);
        fs::create_directories(dir);
        std::ofstream rf(dir / (stem + ".json"));
        rf << "{\"context\": " << ctx.str()
           << ", \"result\": " << result.str() << "}\n";
        if (trace) {
            std::ofstream sf(dir / (stem + ".spans.jsonl"));
            spans.write(sf);
        }
    }
    std::cout << result.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "e2e_bench: " << e.what() << "\n";
        return 2;
    }
}
