/**
 * @file
 * SharedLink against its reference: on one link, FlowSim's max-min
 * water-fill is processor sharing, so a one-link FlowSim driven by the
 * same starts must complete the same flows in the same order at the
 * same times (within floating-point noise), with the same bytes and
 * energy.  Plus unit cases for the virtual clock and input checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "network/flowsim.hpp"
#include "network/shared_link.hpp"

using namespace dhl::network;
using dhl::Rng;
using dhl::sim::Simulator;

namespace {

/** One flow of an instance.  Roots start at `at`; a flow with a child
 *  starts it from its completion callback. */
struct FlowSpec
{
    double at;
    double bytes;
    double power;
    int child; ///< Index of the flow started at completion, or -1.
};

struct Instance
{
    double capacity;
    std::vector<FlowSpec> flows;
    std::vector<int> roots;
};

struct Completion
{
    int spec;
    FlowId id;
    double finish;
    double bytes;
    double energy;
};

struct Outcome
{
    std::vector<Completion> done;
    double bytes_delivered;
    double total_energy;
    std::size_t active_after;
};

/** Poisson starts of mixed (log-uniform) sizes near full load, bursts
 *  of equal-size flows started at one instant, and completions that
 *  start further flows. */
Instance
makeInstance(std::uint64_t seed)
{
    Rng rng(seed);
    Instance in;
    in.capacity = rng.uniform(1e6, 1e9);
    const double mean_bytes = in.capacity * 1e-3;
    const double load = rng.uniform(0.5, 1.5);
    auto size = [&] {
        return mean_bytes * std::exp(rng.uniform(-4.0, 2.0));
    };
    auto add = [&](double at, double bytes) {
        in.flows.push_back({at, bytes, rng.uniform(0.0, 50.0), -1});
        return static_cast<int>(in.flows.size()) - 1;
    };

    double t = 0.0;
    const int roots = static_cast<int>(rng.uniformInt(50, 300));
    for (int i = 0; i < roots; ++i) {
        t += rng.exponential(mean_bytes / in.capacity / load);
        if (rng.uniform() < 0.1) {
            const double bytes = size();
            const auto burst = rng.uniformInt(2, 40);
            for (std::int64_t k = 0; k < burst; ++k)
                in.roots.push_back(add(t, bytes));
        } else {
            in.roots.push_back(add(t, size()));
        }
    }
    // Chains of follow-up flows started by completion callbacks.
    const std::size_t parents = in.flows.size();
    for (std::size_t p = 0; p < parents; ++p) {
        int cur = static_cast<int>(p);
        while (rng.uniform() < 0.3) {
            const int c = add(0.0, size());
            in.flows[static_cast<std::size_t>(cur)].child = c;
            cur = c;
        }
    }
    return in;
}

/** Drive @p start(spec, on_done) through one simulator run. */
template <class Link, class Start>
Outcome
drive(const Instance &in, Simulator &sim, Link &link, Start start)
{
    Outcome out{};
    // start_spec is recursive through completion callbacks.
    std::function<void(int)> start_spec = [&](int s) {
        const FlowSpec &f = in.flows[static_cast<std::size_t>(s)];
        start(f, [&out, &start_spec, &in, s](const FlowRecord &rec) {
            out.done.push_back(
                {s, rec.id, rec.finish_time, rec.bytes, rec.energy});
            const int child = in.flows[static_cast<std::size_t>(s)].child;
            if (child >= 0)
                start_spec(child);
        });
    };
    for (int r : in.roots)
        sim.scheduleAt(in.flows[static_cast<std::size_t>(r)].at,
                       [&start_spec, r] { start_spec(r); });
    sim.run();
    out.bytes_delivered = link.bytesDelivered();
    out.total_energy = link.totalEnergy();
    out.active_after = link.activeFlows();
    return out;
}

Outcome
runFlowSim(const Instance &in)
{
    Simulator sim;
    FlowSim fs(sim);
    const int link = fs.addLink(in.capacity);
    return drive(in, sim, fs, [&](const FlowSpec &f, auto cb) {
        fs.startFlow({link}, f.bytes, f.power, std::move(cb));
    });
}

Outcome
runSharedLink(const Instance &in)
{
    Simulator sim;
    SharedLink sl(sim, in.capacity);
    return drive(in, sim, sl, [&](const FlowSpec &f, auto cb) {
        sl.startFlow(f.bytes, f.power, std::move(cb));
    });
}

bool
relClose(double a, double b, double rel)
{
    return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

} // namespace

class SharedLinkOracle : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SharedLinkOracle, MatchesOneLinkFlowSim)
{
    const Instance in = makeInstance(GetParam());
    const Outcome ref = runFlowSim(in);
    const Outcome got = runSharedLink(in);

    ASSERT_EQ(got.done.size(), in.flows.size());
    ASSERT_EQ(got.done.size(), ref.done.size());
    for (std::size_t i = 0; i < ref.done.size(); ++i) {
        const Completion &r = ref.done[i];
        const Completion &g = got.done[i];
        ASSERT_EQ(g.spec, r.spec) << "completion " << i;
        EXPECT_EQ(g.id, r.id) << "completion " << i;
        EXPECT_TRUE(relClose(g.finish, r.finish, 1e-9))
            << "completion " << i << ": " << g.finish << " vs "
            << r.finish;
        EXPECT_EQ(g.bytes, r.bytes);
        EXPECT_TRUE(relClose(g.energy, r.energy, 1e-9) ||
                    std::fabs(g.energy - r.energy) < 1e-12)
            << "completion " << i;
    }
    EXPECT_EQ(got.bytes_delivered, ref.bytes_delivered);
    EXPECT_TRUE(relClose(got.total_energy, ref.total_energy, 1e-9))
        << got.total_energy << " vs " << ref.total_energy;
    EXPECT_EQ(ref.active_after, 0u);
    EXPECT_EQ(got.active_after, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedLinkOracle,
                         ::testing::Range<std::uint64_t>(1, 201));

TEST(SharedLinkTest, EqualFlowsFinishInOneEventInIdOrder)
{
    Simulator sim;
    SharedLink sl(sim, 100.0);
    std::vector<FlowId> order;
    std::vector<std::uint64_t> fired_at_event;
    std::vector<FlowId> ids;
    for (int i = 0; i < 5; ++i) {
        ids.push_back(sl.startFlow(100.0, 0.0, [&](const FlowRecord &r) {
            order.push_back(r.id);
            fired_at_event.push_back(sim.eventsExecuted());
            EXPECT_DOUBLE_EQ(r.finish_time, 5.0);
        }));
    }
    sim.run();
    EXPECT_EQ(order, ids);
    EXPECT_EQ(sim.eventsExecuted(), 1u);
    for (std::uint64_t e : fired_at_event)
        EXPECT_EQ(e, fired_at_event.front());
    EXPECT_EQ(sl.activeFlows(), 0u);
    EXPECT_DOUBLE_EQ(sl.bytesDelivered(), 500.0);
}

TEST(SharedLinkTest, VirtualClockAdvancesAtTheShareAndResetsWhenIdle)
{
    Simulator sim;
    SharedLink sl(sim, 10.0);
    sl.startFlow(100.0);
    sim.runUntil(4.0);
    sl.startFlow(30.0); // two flows at 5 B/s each from t = 4
    EXPECT_DOUBLE_EQ(sl.virtualTime(), 40.0);
    sim.runUntil(7.0);
    EXPECT_DOUBLE_EQ(sl.virtualTime(), 55.0);
    double second_done = -1.0;
    sim.runUntil(11.0);
    EXPECT_DOUBLE_EQ(sl.virtualTime(), 80.0);
    sim.run();
    // First flow: 40 B alone, 30 B shared until t = 10, 30 B alone.
    EXPECT_DOUBLE_EQ(sim.now(), 13.0);
    EXPECT_EQ(sl.activeFlows(), 0u);
    EXPECT_EQ(sl.virtualTime(), 0.0);

    // A flow after the idle gap starts from V = 0 and runs alone.
    sim.schedule(7.0, [&] {
        sl.startFlow(25.0, 0.0,
                     [&](const FlowRecord &r) { second_done = r.finish_time; });
        EXPECT_EQ(sl.virtualTime(), 0.0);
    });
    sim.run();
    EXPECT_DOUBLE_EQ(second_done, 22.5);
}

TEST(SharedLinkTest, CallbacksMayStartFlowsAndEnergyIsAccounted)
{
    Simulator sim;
    SharedLink sl(sim, 10.0);
    double child_finish = -1.0;
    sl.startFlow(10.0, 2.0, [&](const FlowRecord &r) {
        EXPECT_DOUBLE_EQ(r.energy, 2.0);
        sl.startFlow(20.0, 3.0, [&](const FlowRecord &c) {
            child_finish = c.finish_time;
            EXPECT_DOUBLE_EQ(c.energy, 6.0);
        });
        EXPECT_EQ(sl.activeFlows(), 1u);
    });
    EXPECT_DOUBLE_EQ(sl.totalEnergy(), 0.0);
    sim.runUntil(0.5);
    EXPECT_DOUBLE_EQ(sl.totalEnergy(), 1.0);
    sim.run();
    EXPECT_DOUBLE_EQ(child_finish, 3.0);
    EXPECT_DOUBLE_EQ(sl.totalEnergy(), 8.0);
    EXPECT_DOUBLE_EQ(sl.bytesDelivered(), 30.0);
}

TEST(SharedLinkTest, RejectsBadInput)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    Simulator sim;
    EXPECT_THROW(SharedLink(sim, 0.0), dhl::FatalError);
    EXPECT_THROW(SharedLink(sim, -1.0), dhl::FatalError);
    EXPECT_THROW(SharedLink(sim, nan), dhl::FatalError);
    EXPECT_THROW(SharedLink(sim, inf), dhl::FatalError);

    SharedLink sl(sim, 10.0);
    EXPECT_THROW(sl.startFlow(0.0), dhl::FatalError);
    EXPECT_THROW(sl.startFlow(-5.0), dhl::FatalError);
    EXPECT_THROW(sl.startFlow(nan), dhl::FatalError);
    EXPECT_THROW(sl.startFlow(inf), dhl::FatalError);
    EXPECT_THROW(sl.startFlow(1.0, -1.0), dhl::FatalError);
    EXPECT_THROW(sl.startFlow(1.0, nan), dhl::FatalError);
    EXPECT_EQ(sl.activeFlows(), 0u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}
