/**
 * @file
 * Tests for the traffic-engineering subsystem (src/te) and its serve
 * and ops integrations: demand estimation, controller epochs, hybrid
 * admit/downgrade decisions, snapshot round-trips, the serving-loop
 * checkpoint oracle with TE enabled, and the Te dispatch policy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "exp/slo.hpp"
#include "ops/fleet_ops.hpp"
#include "serve/serving.hpp"
#include "te/controller.hpp"
#include "te/demand.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

te::TeConfig
baseTeConfig()
{
    te::TeConfig tc;
    tc.enabled = true;
    tc.mode = te::TeMode::Hybrid;
    tc.control_period = 10.0;
    tc.small_bytes = u::gigabytes(8.0);
    tc.optical_capacity = u::gigabitsPerSecond(100.0);
    tc.dhl_capacity = 100.0; // B/s; tiny so contention is easy to force
    tc.headroom = 0.9;
    tc.usage_multiplier = 1.0;
    tc.history = 4;
    tc.min_priority_contended = 1;
    return tc;
}

core::RequestMeta
prio(int p)
{
    core::RequestMeta m;
    m.priority = p;
    return m;
}

} // namespace

TEST(DemandEstimatorTest, ProjectsMultiplierTimesWindowMax)
{
    te::DemandEstimator est({3, 1.5}, 2);
    EXPECT_DOUBLE_EQ(est.estimate(0), 0.0); // empty window
    est.record(0, 4.0);
    est.record(0, 10.0);
    est.record(0, 2.0);
    EXPECT_DOUBLE_EQ(est.estimate(0), 1.5 * 10.0);
    EXPECT_DOUBLE_EQ(est.estimate(1), 0.0); // independent series
}

TEST(DemandEstimatorTest, HistoryIsBounded)
{
    te::DemandEstimator est({2, 1.0}, 1);
    est.record(0, 10.0);
    est.record(0, 1.0);
    est.record(0, 1.0); // evicts the 10
    EXPECT_DOUBLE_EQ(est.estimate(0), 1.0);
}

TEST(DemandEstimatorTest, SnapshotRoundTrips)
{
    te::DemandEstimator est({4, 1.25}, 2);
    est.record(0, 3.0);
    est.record(1, 7.0);
    est.record(1, 2.0);

    std::stringstream buf;
    {
        sim::SnapshotWriter w(buf);
        est.saveState(w);
    }
    te::DemandEstimator fresh({4, 1.25}, 2);
    {
        sim::SnapshotReader r(buf);
        fresh.restoreState(r);
    }
    EXPECT_DOUBLE_EQ(fresh.estimate(0), est.estimate(0));
    EXPECT_DOUBLE_EQ(fresh.estimate(1), est.estimate(1));
}

TEST(TeControllerTest, PureModesIgnoreContention)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    tc.mode = te::TeMode::DhlOnly;
    te::TeController dhl_only(sim, tc, {{"t", 1.0}});
    const auto d1 = dhl_only.decide(0, u::gigabytes(100), prio(0));
    EXPECT_EQ(d1.substrate, te::Substrate::Dhl);
    EXPECT_TRUE(d1.admit);

    tc.mode = te::TeMode::OpticalOnly;
    te::TeController optical_only(sim, tc, {{"t", 1.0}});
    const auto d2 = optical_only.decide(0, u::gigabytes(100), prio(0));
    EXPECT_EQ(d2.substrate, te::Substrate::Optical);
    EXPECT_TRUE(d2.admit);
}

TEST(TeControllerTest, HybridSplitsBySizeThreshold)
{
    sim::Simulator sim;
    te::TeController ctl(sim, baseTeConfig(), {{"t", 1.0}});
    EXPECT_EQ(ctl.decide(0, u::gigabytes(2), prio(0)).substrate,
              te::Substrate::Optical);
    EXPECT_EQ(ctl.decide(0, u::gigabytes(64), prio(0)).substrate,
              te::Substrate::Dhl);
}

TEST(TeControllerTest, TickComputesDemandAndContention)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    te::TeController ctl(sim, tc, {{"a", 1.0}, {"b", 1.0}});
    ctl.start();
    // Tenant a pushes 10 kB of bulk through the first epoch; capacity
    // is 100 B/s, so its 1 kB/s demand is contended.
    ctl.recordUsage(0, u::gigabytes(100));
    sim.runUntil(tc.control_period + 1.0);
    ctl.stop();

    EXPECT_EQ(ctl.ticks(), 1u);
    const double expect_bulk =
        u::gigabytes(100) / tc.control_period * tc.usage_multiplier;
    EXPECT_DOUBLE_EQ(ctl.demand(0, te::Substrate::Dhl), expect_bulk);
    EXPECT_DOUBLE_EQ(ctl.demand(1, te::Substrate::Dhl), 0.0);
    EXPECT_DOUBLE_EQ(ctl.allocation(0, te::Substrate::Dhl),
                     tc.dhl_capacity);
    EXPECT_TRUE(ctl.contended(0));
    EXPECT_FALSE(ctl.contended(1));
}

TEST(TeControllerTest, ContendedLowPriorityDowngradesHighPriorityStays)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    te::TeController ctl(sim, tc, {{"t", 1.0}});
    ctl.start();
    ctl.recordUsage(0, u::gigabytes(100));
    sim.runUntil(tc.control_period + 1.0);
    ASSERT_TRUE(ctl.contended(0));
    ASSERT_TRUE(ctl.downgradeOk());

    const auto low = ctl.decide(0, u::gigabytes(64), prio(0));
    EXPECT_EQ(low.substrate, te::Substrate::Optical);
    EXPECT_TRUE(low.admit);
    EXPECT_TRUE(low.downgraded);

    const auto high = ctl.decide(0, u::gigabytes(64), prio(1));
    EXPECT_EQ(high.substrate, te::Substrate::Dhl);
    EXPECT_TRUE(high.admit);
    EXPECT_FALSE(high.downgraded);
    ctl.stop();

    // With no tick pending the contention branch is disabled: the
    // drain after the horizon admits everything.
    const auto after = ctl.decide(0, u::gigabytes(64), prio(0));
    EXPECT_EQ(after.substrate, te::Substrate::Dhl);
    EXPECT_TRUE(after.admit);
}

TEST(TeControllerTest, HoldsWhenOpticalHasNoHeadroom)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    // Optical plan saturated by small-flow demand: 100 GB over a 10 s
    // epoch is ~10 GB/s against a ~1.1 GB/s planned capacity.
    te::TeController ctl(sim, tc, {{"t", 1.0}});
    ctl.start();
    ctl.recordUsage(0, u::gigabytes(100)); // bulk group
    for (int i = 0; i < 30; ++i)           // small group: 12 GB/s
        ctl.recordUsage(0, u::gigabytes(4));
    sim.runUntil(tc.control_period + 1.0);
    ASSERT_TRUE(ctl.contended(0));
    ASSERT_FALSE(ctl.downgradeOk());

    const auto d = ctl.decide(0, u::gigabytes(64), prio(0));
    EXPECT_FALSE(d.admit);
    ctl.stop();
}

TEST(TeControllerTest, SnapshotRoundTripPreservesDecisions)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    te::TeController ctl(sim, tc, {{"t", 1.0}});
    ctl.start();
    ctl.recordUsage(0, u::gigabytes(100));
    sim.runUntil(tc.control_period + 1.0);
    ctl.stop();

    std::stringstream buf;
    {
        sim::SnapshotWriter w(buf);
        ctl.saveState(w);
    }
    sim::Simulator sim2;
    te::TeController fresh(sim2, tc, {{"t", 1.0}});
    {
        sim::SnapshotReader r(buf);
        fresh.restoreState(r);
    }
    EXPECT_EQ(fresh.ticks(), ctl.ticks());
    EXPECT_DOUBLE_EQ(fresh.demand(0, te::Substrate::Dhl),
                     ctl.demand(0, te::Substrate::Dhl));
    EXPECT_DOUBLE_EQ(fresh.allocation(0, te::Substrate::Dhl),
                     ctl.allocation(0, te::Substrate::Dhl));
    EXPECT_EQ(fresh.contended(0), ctl.contended(0));
    EXPECT_EQ(fresh.downgradeOk(), ctl.downgradeOk());
}

//===========================================================================
// Serving-loop integration
//===========================================================================

namespace {

serve::ServeConfig
teServeConfig(te::TeMode mode)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.tracks = 2;
    cfg.seed = 11;
    cfg.epoch = 300.0;
    cfg.carts_per_track = 2;
    cfg.max_pending = 64;
    cfg.policy = ops::DispatchPolicy::LeastQueued;
    workloads::RequestClass small{"small", 2.0, u::gigabytes(2), 0.0, 1};
    workloads::RequestClass big{"big", 1.0, u::gigabytes(96), 0.0, 0};
    cfg.stages = {
        workloads::StageSpec{"ramp", 600.0, 0.0, 0.2, {small, big}},
        workloads::StageSpec{"hold", 600.0, 0.2, 0.2, {small, big}},
        workloads::StageSpec{"drain", 600.0, 0.2, 0.0, {small, big}},
    };
    cfg.te.enabled = true;
    cfg.te.mode = mode;
    cfg.te.control_period = 30.0;
    cfg.te.small_bytes = u::gigabytes(8.0);
    cfg.te.optical_capacity = u::gigabitsPerSecond(100.0);
    cfg.te.history = 4;
    cfg.te.min_priority_contended = 1;
    return cfg;
}

std::string
teDigest(serve::ServingSim &sim)
{
    std::ostringstream os;
    for (const exp::StageSlo &stage : sim.sloTable())
        for (const std::string &c : exp::sloRow(stage))
            os << c << "|";
    for (const exp::ClassSlo &c : sim.teTable())
        for (const std::string &cell : exp::classSloRow(c))
            os << cell << "|";
    os << sim.totalServed() << "|" << sim.totalShed() << "|"
       << sim.opticalServed() << "|" << sim.teDowngrades() << "|"
       << sim.totalEnergy() << "|" << sim.now();
    return os.str();
}

} // namespace

TEST(TeServingTest, HybridServesSmallOpticallyAndConserves)
{
    serve::ServingSim sim(teServeConfig(te::TeMode::Hybrid));
    sim.run();

    EXPECT_GT(sim.opticalServed(), 0u);
    EXPECT_GT(sim.opticalEnergy(), 0.0);

    std::uint64_t offered = 0, served = 0, shed = 0;
    std::uint64_t optical_served = 0;
    for (const exp::ClassSlo &row : sim.teTable()) {
        offered += row.offered;
        served += row.served;
        shed += row.shed;
        if (row.substrate == std::string("optical"))
            optical_served += row.served;
        // The drained loop leaves nothing in flight per class.
        EXPECT_EQ(row.offered, row.served + row.shed);
    }
    EXPECT_EQ(served, sim.totalServed());
    EXPECT_EQ(shed, sim.totalShed());
    EXPECT_EQ(optical_served, sim.opticalServed());
    EXPECT_GT(offered, 0u);
    // Small requests (2 GB <= 8 GB) always ride optical in hybrid.
    for (const exp::ClassSlo &row : sim.teTable()) {
        if (row.name == "small" && row.substrate == std::string("dhl"))
            EXPECT_EQ(row.offered, 0u);
    }
}

TEST(TeServingTest, DisabledTeMatchesBaseline)
{
    // A TE-disabled config must not change the non-TE outcome: the te
    // member defaults to disabled, so this is the plain serving loop.
    serve::ServeConfig cfg = teServeConfig(te::TeMode::Hybrid);
    cfg.te = te::TeConfig{};
    serve::ServingSim sim(cfg);
    sim.run();
    EXPECT_EQ(sim.teEnabled(), false);
    EXPECT_EQ(sim.opticalServed(), 0u);
    EXPECT_DOUBLE_EQ(sim.opticalEnergy(), 0.0);
}

TEST(TeServingTest, DeterministicAcrossInstancesAndShards)
{
    serve::ServingSim a(teServeConfig(te::TeMode::Hybrid));
    serve::ServingSim b(teServeConfig(te::TeMode::Hybrid));
    a.run();
    b.run();
    EXPECT_EQ(teDigest(a), teDigest(b));

    // TE plans fleet-wide with zero lookahead, so the serving loop
    // clamps to one DES shard; --des-shards is byte-identical by
    // construction.
    serve::ServeConfig sharded = teServeConfig(te::TeMode::Hybrid);
    sharded.des_shards = 4;
    serve::ServingSim c(sharded);
    c.run();
    EXPECT_EQ(teDigest(a), teDigest(c));
}

TEST(TeServingTest, CheckpointOracleWithTeEnabled)
{
    const auto cfg = teServeConfig(te::TeMode::Hybrid);

    serve::ServingSim oracle(cfg);
    oracle.run();
    const std::string want = teDigest(oracle);

    auto hopper = std::make_unique<serve::ServingSim>(cfg);
    while (hopper->stepEpoch()) {
        std::stringstream ck;
        hopper->checkpoint(ck);
        auto fresh = std::make_unique<serve::ServingSim>(cfg);
        fresh->restore(ck);
        hopper = std::move(fresh);
    }
    EXPECT_EQ(teDigest(*hopper), want);
}

TEST(TeServingTest, ClassLatenciesArePackedOneLinePerClass)
{
    const auto cfg = teServeConfig(te::TeMode::Hybrid);
    serve::ServingSim first(cfg);
    first.run(3);
    const std::size_t classes = first.teTable().size();
    std::ostringstream ck;
    first.checkpoint(ck);
    const std::string c = ck.str();
    const auto count = [&c](const std::string &key_re) {
        const std::regex re("^" + key_re + " = ");
        std::istringstream in(c);
        std::size_t n = 0;
        for (std::string line; std::getline(in, line);)
            n += std::regex_search(line, re) ? 1 : 0;
        return n;
    };
    EXPECT_EQ(count(R"(te\.c\d+\.latencies)"), classes);
    EXPECT_EQ(count(R"(\S+\.l\d+)"), 0u);

    serve::ServingSim resumed(cfg);
    std::istringstream in(c);
    resumed.restore(in);
    std::size_t samples = 0;
    for (std::size_t t = 0; t < classes / 2; ++t) {
        for (const te::Substrate s :
             {te::Substrate::Dhl, te::Substrate::Optical}) {
            const auto &want = first.teClassSlo(t, s).latencies();
            const auto &got = resumed.teClassSlo(t, s).latencies();
            samples += want.size();
            ASSERT_EQ(got.size(), want.size());
            EXPECT_TRUE(want.empty() ||
                        std::memcmp(got.data(), want.data(),
                                    want.size() * sizeof(double)) == 0)
                << "class " << t << " " << te::to_string(s);
        }
    }
    EXPECT_GT(samples, 0u);
    std::ostringstream again;
    resumed.checkpoint(again);
    EXPECT_EQ(again.str(), c);
}

TEST(TeServingTest, ValidateRejectsTeDispatchPolicy)
{
    serve::ServeConfig cfg = teServeConfig(te::TeMode::Hybrid);
    cfg.policy = ops::DispatchPolicy::Te;
    EXPECT_THROW(serve::validate(cfg), dhl::FatalError);
}

//===========================================================================
// Ops dispatch-policy integration
//===========================================================================

TEST(TeOpsTest, PolicyParsesAndValidates)
{
    EXPECT_EQ(ops::parseDispatchPolicy("te"), ops::DispatchPolicy::Te);
    EXPECT_EQ(ops::to_string(ops::DispatchPolicy::Te), "te");

    ops::DispatchConfig bad;
    bad.policy = ops::DispatchPolicy::Te; // te.enabled left false
    EXPECT_THROW(ops::validate(bad), dhl::FatalError);
}

TEST(TeOpsTest, UncontendedTeMatchesLeastQueued)
{
    core::DhlConfig dhl = core::defaultConfig();
    const double bytes = 6.0 * dhl.cartCapacity().value();

    ops::OpsConfig lq;
    lq.dispatch.policy = ops::DispatchPolicy::LeastQueued;
    ops::FleetOps base(dhl, 2, lq, 5);
    const auto want = base.runBulkTransfer(bytes);

    ops::OpsConfig tp;
    tp.dispatch.policy = ops::DispatchPolicy::Te;
    tp.dispatch.te = baseTeConfig();
    tp.dispatch.te.dhl_capacity = 0.0; // derive: fleet launch bandwidth
    tp.dispatch.te.small_bytes = 1.0;  // every cart-sized job is bulk
    tp.dispatch.te.min_priority_contended = 0; // floor disarms holds
    ops::FleetOps te_ops(dhl, 2, tp, 5);
    const auto got = te_ops.runBulkTransfer(bytes);

    // With the priority floor at 0 no job is ever below it, so the
    // controller never interferes and the Te policy is event-identical
    // to LeastQueued (the extra control ticks touch no cart state).
    EXPECT_EQ(got.offloads, 0u);
    EXPECT_DOUBLE_EQ(got.optical_bytes, 0.0);
    EXPECT_DOUBLE_EQ(got.base.total_time, want.base.total_time);
    EXPECT_DOUBLE_EQ(got.base.total_energy, want.base.total_energy);
    EXPECT_EQ(got.base.launches, want.base.launches);
}

TEST(TeOpsTest, ContendedTeOffloadsToOptical)
{
    // Enough jobs that a backlog is still queued when the first
    // control tick (t = 1 s) flags contention.
    core::DhlConfig dhl = core::defaultConfig();
    const double bytes = 24.0 * dhl.cartCapacity().value();

    ops::OpsConfig tp;
    tp.dispatch.policy = ops::DispatchPolicy::Te;
    tp.dispatch.te = baseTeConfig();
    tp.dispatch.te.control_period = 1.0;
    tp.dispatch.te.dhl_capacity = 100.0; // B/s: always contended
    tp.dispatch.te.small_bytes = 1.0;    // every job is bulk
    tp.dispatch.te.optical_capacity = u::terabytes(1); // ample headroom
    ops::FleetOps te_ops(dhl, 2, tp, 5);
    const auto r = te_ops.runBulkTransfer(bytes);

    // The first control tick flags contention and the queued backlog is
    // downgraded onto the optical substrate.
    EXPECT_GT(r.offloads, 0u);
    EXPECT_GT(r.optical_bytes, 0.0);
    EXPECT_GT(r.optical_energy, 0.0);
    EXPECT_GE(r.base.total_energy, r.optical_energy);
    EXPECT_EQ(r.base.carts,
              static_cast<std::uint64_t>(std::ceil(
                  bytes / dhl.cartCapacity().value())));

    // Determinism: an identical run reproduces the same outcome.
    ops::FleetOps again(dhl, 2, tp, 5);
    const auto r2 = again.runBulkTransfer(bytes);
    EXPECT_EQ(r2.offloads, r.offloads);
    EXPECT_DOUBLE_EQ(r2.optical_bytes, r.optical_bytes);
    EXPECT_DOUBLE_EQ(r2.base.total_time, r.base.total_time);
    EXPECT_DOUBLE_EQ(r2.base.total_energy, r.base.total_energy);
}
