/**
 * @file
 * Unit tests for the behavioural SSD model (bandwidth, failure
 * injection, connector wear-out).  The mating-cycle count that triggers
 * wear-out is per cart; its tests live in test_cart.cpp.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "storage/ssd_model.hpp"

using namespace dhl::storage;
namespace u = dhl::units;

namespace {

SsdModel
freshSsd(double failure_per_trip = 0.0)
{
    return SsdModel(referenceM2Ssd(), failure_per_trip);
}

} // namespace

TEST(SsdModelTest, StartsEmptyAndHealthy)
{
    auto ssd = freshSsd();
    EXPECT_TRUE(ssd.healthy());
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), 0.0);
    EXPECT_DOUBLE_EQ(ssd.freeBytes(), u::terabytes(8));
}

TEST(SsdModelTest, WriteAndReadTiming)
{
    auto ssd = freshSsd();
    const double bytes = u::terabytes(1);
    const double wt = ssd.write(bytes);
    EXPECT_NEAR(wt, bytes / u::megabytes(6000), 1e-9);
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), bytes);
    const double rt = ssd.readTime(bytes);
    EXPECT_NEAR(rt, bytes / u::megabytes(7100), 1e-9);
    EXPECT_LT(rt, wt); // reads are faster on this device
}

TEST(SsdModelTest, OverflowAndOverreadRejected)
{
    auto ssd = freshSsd();
    ssd.write(u::terabytes(8));
    EXPECT_THROW(ssd.write(u::gigabytes(1)), dhl::FatalError);
    EXPECT_THROW(ssd.readTime(u::terabytes(9)), dhl::FatalError);
    EXPECT_THROW(ssd.write(-1.0), dhl::FatalError);
    EXPECT_THROW(ssd.readTime(-1.0), dhl::FatalError);
}

TEST(SsdModelTest, TrimAndErase)
{
    auto ssd = freshSsd();
    ssd.write(u::terabytes(4));
    ssd.trim(u::terabytes(1));
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), u::terabytes(3));
    EXPECT_THROW(ssd.trim(u::terabytes(5)), dhl::FatalError);
    ssd.eraseAll();
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), 0.0);
}

TEST(SsdModelTest, RatedCyclesMatchDiscussion)
{
    // Discussion §VI: USB-C 10k-20k cycles, M.2 hundreds.
    EXPECT_EQ(ratedCycles(ConnectorKind::UsbC), 10000u);
    EXPECT_EQ(ratedCycles(ConnectorKind::M2), 250u);
}

TEST(SsdModelTest, UnhealthyDeviceRefusesIo)
{
    auto ssd = freshSsd();
    ssd.write(u::gigabytes(1));
    ssd.wearOutConnector();
    EXPECT_EQ(ssd.state(), SsdState::ConnectorWorn);
    EXPECT_THROW(ssd.write(u::gigabytes(1)), dhl::FatalError);
    EXPECT_THROW(ssd.readTime(u::gigabytes(1)), dhl::FatalError);
}

TEST(SsdModelTest, WearOutLeavesFailedDeviceFailed)
{
    dhl::Rng rng(7);
    auto ssd = freshSsd(1.0);
    EXPECT_TRUE(ssd.rollTripFailure(rng));
    ssd.wearOutConnector();
    EXPECT_EQ(ssd.state(), SsdState::Failed);
    ssd.repair();
    EXPECT_TRUE(ssd.healthy());
}

TEST(SsdModelTest, FailureInjectionRoughlyCalibrated)
{
    dhl::Rng rng(99);
    int failures = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        auto ssd = freshSsd(0.1);
        if (ssd.rollTripFailure(rng))
            ++failures;
    }
    EXPECT_NEAR(static_cast<double>(failures) / trials, 0.1, 0.03);
}

TEST(SsdModelTest, ZeroProbabilityNeverFails)
{
    dhl::Rng rng(1);
    auto ssd = freshSsd(0.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(ssd.rollTripFailure(rng));
}

TEST(SsdModelTest, RepairRestoresHealthAndKeepsData)
{
    dhl::Rng rng(7);
    auto ssd = freshSsd(1.0); // certain failure
    ssd.write(u::terabytes(2));
    EXPECT_TRUE(ssd.rollTripFailure(rng));
    EXPECT_EQ(ssd.state(), SsdState::Failed);
    ssd.repair();
    EXPECT_TRUE(ssd.healthy());
    // RAID/backup restoration: contents survive the repair.
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), u::terabytes(2));
}

TEST(SsdModelTest, FailedDeviceStopsRolling)
{
    dhl::Rng rng(7);
    auto ssd = freshSsd(1.0);
    EXPECT_TRUE(ssd.rollTripFailure(rng));
    EXPECT_FALSE(ssd.rollTripFailure(rng)); // already failed
}

TEST(SsdModelTest, RejectsBadFailureProbability)
{
    EXPECT_THROW(freshSsd(-0.1), dhl::FatalError);
    EXPECT_THROW(freshSsd(1.1), dhl::FatalError);
}

TEST(SsdStateNames, ToString)
{
    EXPECT_EQ(to_string(SsdState::Healthy), "healthy");
    EXPECT_EQ(to_string(SsdState::Failed), "failed");
    EXPECT_EQ(to_string(SsdState::ConnectorWorn), "connector-worn");
}
