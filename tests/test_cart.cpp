/**
 * @file
 * Unit tests for the cart entity's state machine, payload handling,
 * per-cart connector wear and trip-failure dice.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "dhl/cart.hpp"
#include "dhl/library.hpp"
#include "ops/wear.hpp"
#include "sim/simulator.hpp"

using namespace dhl::core;
using dhl::storage::ConnectorKind;
using dhl::storage::SsdState;
namespace u = dhl::units;

namespace {

DhlConfig cfg = defaultConfig();

Cart
freshCart(double failure = 0.0, ConnectorKind connector = ConnectorKind::UsbC)
{
    return Cart(0, cfg, connector, failure);
}

std::size_t
healthySsds(const Cart &c)
{
    return c.ssds().size() - c.unhealthySsds();
}

} // namespace

TEST(CartTest, StartsStoredInLibrary)
{
    Cart c = freshCart();
    EXPECT_EQ(c.state(), CartState::Stored);
    EXPECT_EQ(c.place(), CartPlace::Library);
    EXPECT_DOUBLE_EQ(c.capacity(), u::terabytes(256));
    EXPECT_DOUBLE_EQ(c.storedBytes(), 0.0);
    EXPECT_EQ(c.trips(), 0u);
    EXPECT_EQ(c.ssds().size(), 32u);
}

TEST(CartTest, LoadUnloadStripesEvenly)
{
    Cart c = freshCart();
    c.loadBytes(u::terabytes(32));
    EXPECT_DOUBLE_EQ(c.storedBytes(), u::terabytes(32));
    for (const auto &s : c.ssds())
        EXPECT_DOUBLE_EQ(s.storedBytes(), u::terabytes(1));
    c.unloadBytes(u::terabytes(16));
    EXPECT_DOUBLE_EQ(c.storedBytes(), u::terabytes(16));
    c.eraseAll();
    EXPECT_DOUBLE_EQ(c.storedBytes(), 0.0);
}

TEST(CartTest, LoadOverflowRejected)
{
    Cart c = freshCart();
    EXPECT_THROW(c.loadBytes(u::terabytes(257)), dhl::FatalError);
    c.loadBytes(u::terabytes(256));
    EXPECT_THROW(c.loadBytes(1.0), dhl::FatalError);
    EXPECT_THROW(c.unloadBytes(u::terabytes(300)), dhl::FatalError);
}

TEST(CartTest, FullTripLifecycle)
{
    Cart c = freshCart();
    c.beginUndock();
    EXPECT_EQ(c.state(), CartState::Undocking);
    c.launch();
    EXPECT_EQ(c.state(), CartState::InFlight);
    EXPECT_EQ(c.place(), CartPlace::Track);
    c.beginDock(CartPlace::Rack);
    EXPECT_EQ(c.state(), CartState::Docking);
    EXPECT_EQ(c.trips(), 1u);
    c.finishDock();
    EXPECT_EQ(c.state(), CartState::Docked);
    EXPECT_EQ(c.place(), CartPlace::Rack);

    c.beginIo();
    EXPECT_EQ(c.state(), CartState::Busy);
    c.finishIo();
    EXPECT_EQ(c.state(), CartState::Docked);

    // Return journey ends Stored at the library.
    c.beginUndock();
    c.launch();
    c.beginDock(CartPlace::Library);
    c.finishDock();
    EXPECT_EQ(c.state(), CartState::Stored);
    EXPECT_EQ(c.place(), CartPlace::Library);
    EXPECT_EQ(c.trips(), 2u);
}

TEST(CartTest, IllegalTransitionsPanic)
{
    Cart c = freshCart();
    EXPECT_THROW(c.launch(), dhl::PanicError);        // not undocking
    EXPECT_THROW(c.beginDock(CartPlace::Rack), dhl::PanicError);
    EXPECT_THROW(c.finishDock(), dhl::PanicError);
    EXPECT_THROW(c.beginIo(), dhl::PanicError);       // not docked
    EXPECT_THROW(c.finishIo(), dhl::PanicError);

    c.beginUndock();
    EXPECT_THROW(c.beginUndock(), dhl::PanicError);   // already undocking
    c.launch();
    EXPECT_THROW(c.beginDock(CartPlace::Track), dhl::PanicError);
}

TEST(CartTest, DockAndUndockEachCountOneMatingCycle)
{
    Cart c = freshCart();
    c.beginUndock(); // records one mating cycle
    EXPECT_EQ(c.matingCycles(), 1u);
    c.launch();
    c.beginDock(CartPlace::Rack);
    c.finishDock();
    EXPECT_EQ(c.matingCycles(), 2u);
}

TEST(CartWearTest, M2ConnectorWearsOutQuickly)
{
    Cart c = freshCart(0.0, ConnectorKind::M2);
    for (int i = 0; i < 250; ++i)
        c.matingCycle();
    EXPECT_EQ(c.unhealthySsds(), 0u);
    c.matingCycle(); // 251st crosses the rating
    EXPECT_EQ(c.matingCycles(), 251u);
    for (const auto &s : c.ssds()) {
        EXPECT_EQ(s.state(), SsdState::ConnectorWorn);
        EXPECT_FALSE(s.healthy());
    }
}

TEST(CartWearTest, UsbCSurvivesManyMoreCycles)
{
    Cart c = freshCart();
    for (int i = 0; i < 5000; ++i)
        c.matingCycle();
    EXPECT_EQ(c.unhealthySsds(), 0u);
    EXPECT_EQ(c.matingCycles(), 5000u);
    EXPECT_DOUBLE_EQ(c.wearFraction(), 0.5);
}

TEST(CartWearTest, WearOutSparesFailedSsdsAndRepairResetsCount)
{
    // Fail some (not all) SSDs first, then cross the M2 rating.
    dhl::Rng rng(2024);
    Cart c = freshCart(0.5, ConnectorKind::M2);
    for (int i = 0; i < 250; ++i)
        c.matingCycle();
    const std::size_t failed = c.rollTripFailures(rng);
    ASSERT_GT(failed, 0u);
    ASSERT_LT(failed, c.ssds().size());
    std::vector<SsdState> before;
    for (const auto &s : c.ssds())
        before.push_back(s.state());

    c.matingCycle(); // 251
    for (std::size_t i = 0; i < c.ssds().size(); ++i) {
        EXPECT_EQ(c.ssds()[i].state(), before[i] == SsdState::Failed
                                           ? SsdState::Failed
                                           : SsdState::ConnectorWorn);
    }
    EXPECT_EQ(c.unhealthySsds(), c.ssds().size());
    c.matingCycle(); // later cycles change nothing
    EXPECT_EQ(c.unhealthySsds(), c.ssds().size());

    c.repairAll();
    EXPECT_EQ(c.matingCycles(), 0u);
    EXPECT_EQ(c.wearFraction(), 0.0);
    EXPECT_EQ(c.unhealthySsds(), 0u);
    for (int i = 0; i < 250; ++i)
        c.matingCycle();
    EXPECT_EQ(c.unhealthySsds(), 0u); // a fresh rated life
    c.matingCycle();
    EXPECT_EQ(c.unhealthySsds(), c.ssds().size());
}

TEST(CartWearTest, CartWearBitEqualsPerSsdMean)
{
    // ops::cartWear sums the shared per-cart wear once per SSD; it must
    // match, bit for bit, the mean of independent per-SSD fractions.
    dhl::sim::Simulator sim;
    Library lib(sim, cfg);
    Cart &m2 = lib.addCart(0.0, ConnectorKind::M2);
    Cart &usbc = lib.addCart(0.0, ConnectorKind::UsbC);
    std::uint64_t done = 0;
    for (std::uint64_t target : {0u, 1u, 3u, 7u, 100u, 249u, 250u, 251u,
                                 777u, 9999u, 10001u, 12345u}) {
        for (; done < target; ++done) {
            m2.matingCycle();
            usbc.matingCycle();
        }
        for (const auto &[c, kind] :
             {std::pair{&m2, ConnectorKind::M2},
              std::pair{&usbc, ConnectorKind::UsbC}}) {
            const double rated =
                static_cast<double>(dhl::storage::ratedCycles(kind));
            double total = 0.0;
            for (std::size_t i = 0; i < c->ssds().size(); ++i)
                total += static_cast<double>(target) / rated;
            const double reference =
                total / static_cast<double>(c->ssds().size());
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          dhl::ops::cartWear(lib, c->id())),
                      std::bit_cast<std::uint64_t>(reference))
                << "cycles " << target;
        }
    }
}

TEST(CartFailureTest, ZeroProbabilityTakesNoDraw)
{
    dhl::Rng rng(31);
    dhl::Rng fresh(31);
    Cart c = freshCart(0.0);
    for (int trip = 0; trip < 10; ++trip)
        EXPECT_EQ(c.rollTripFailures(rng), 0u);
    EXPECT_EQ(rng.next(), fresh.next());
    EXPECT_EQ(rng.next(), fresh.next());
}

TEST(CartFailureTest, OneDrawPerHealthySsd)
{
    dhl::Rng rng(77);
    dhl::Rng mirror(77);
    Cart c = freshCart(0.3);

    // Every SSD healthy: one draw each.
    const std::size_t failed = c.rollTripFailures(rng);
    for (std::size_t i = 0; i < c.ssds().size(); ++i)
        (void)mirror.uniform();
    EXPECT_EQ(rng.next(), mirror.next());
    ASSERT_GT(failed, 0u);
    ASSERT_LT(failed, c.ssds().size());

    // Failed SSDs no longer roll.
    const std::size_t healthy = healthySsds(c);
    (void)c.rollTripFailures(rng);
    for (std::size_t i = 0; i < healthy; ++i)
        (void)mirror.uniform();
    EXPECT_EQ(rng.next(), mirror.next());
}

TEST(CartTest, FailureInjectionAndRepair)
{
    dhl::Rng rng(123);
    Cart c = freshCart(1.0); // every SSD fails every trip
    c.loadBytes(u::terabytes(10));
    EXPECT_EQ(c.rollTripFailures(rng), 32u);
    EXPECT_EQ(c.unhealthySsds(), 32u);
    c.repairAll();
    EXPECT_EQ(c.unhealthySsds(), 0u);
    EXPECT_DOUBLE_EQ(c.storedBytes(), u::terabytes(10));
}

TEST(CartEnums, Names)
{
    EXPECT_EQ(to_string(CartState::Stored), "stored");
    EXPECT_EQ(to_string(CartState::InFlight), "in-flight");
    EXPECT_EQ(to_string(CartPlace::Rack), "rack");
    EXPECT_EQ(to_string(CartPlace::Track), "track");
}
