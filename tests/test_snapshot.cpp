/**
 * @file
 * Unit tests for the snapshot layer (sim/snapshot.hpp): scoped
 * key/value round-trips, bit-exact doubles and packed double vectors,
 * hostile packed values, the format version, RNG stream positions, and
 * the Simulator kernel's own save/restore contract.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"

using namespace dhl;
using namespace dhl::sim;

TEST(SnapshotTest, ScopedRoundTrip)
{
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        w.putString("name", "fleet");
        w.putU64("tracks", 7);
        {
            SnapshotScope<SnapshotWriter> scope(w, "t0");
            w.putI64("delta", -42);
            w.putBool("up", true);
            {
                SnapshotScope<SnapshotWriter> inner(w, "track");
                w.putU64("launches", 9);
            }
        }
        w.putBool("done", false);
    }

    SnapshotReader r(doc);
    EXPECT_EQ(r.getString("name"), "fleet");
    EXPECT_EQ(r.getU64("tracks"), 7u);
    EXPECT_FALSE(r.getBool("done"));
    {
        SnapshotScope<SnapshotReader> scope(r, "t0");
        EXPECT_EQ(r.getI64("delta"), -42);
        EXPECT_TRUE(r.getBool("up"));
        EXPECT_TRUE(r.has("track.launches"));
        {
            SnapshotScope<SnapshotReader> inner(r, "track");
            EXPECT_EQ(r.getU64("launches"), 9u);
        }
    }
    EXPECT_FALSE(r.has("t0"));          // scopes are prefixes, not keys
    EXPECT_FALSE(r.has("nonexistent"));
}

TEST(SnapshotTest, DoublesAreBitExact)
{
    // The equivalence oracle depends on restored doubles being the
    // *identical* IEEE-754 value, not a decimal round trip.
    const double values[] = {
        0.1 + 0.2, // classic non-representable sum
        1.0 / 3.0,
        -0.0,
        5e-324,                                  // smallest denormal
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        for (std::size_t i = 0; i < std::size(values); ++i)
            w.putDouble("v" + std::to_string(i), values[i]);
        w.putDouble("nan", std::nan(""));
    }
    SnapshotReader r(doc);
    for (std::size_t i = 0; i < std::size(values); ++i) {
        const double got = r.getDouble("v" + std::to_string(i));
        EXPECT_EQ(std::memcmp(&got, &values[i], sizeof got), 0)
            << "value " << i;
    }
    EXPECT_TRUE(std::isnan(r.getDouble("nan")));
    // -0.0 keeps its sign bit.
    EXPECT_TRUE(std::signbit(r.getDouble("v2")));
}

namespace {

/** Bit-for-bit vector equality (NaN payloads and -0.0 included). */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

/** A v2 document holding one hand-written line `v = <value>`. */
std::stringstream
docWithValue(const std::string &value)
{
    return std::stringstream("dhl-snapshot 2\nv = " + value + "\n");
}

/** The message of the FatalError @p f throws ("" if none). */
template <typename F>
std::string
fatalMessage(F &&f)
{
    try {
        f();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(SnapshotTest, PackedDoublesAreBitExact)
{
    std::vector<double> big(100000);
    Rng rng(99);
    // Raw bit patterns: every exponent, NaN payloads, and denormals.
    for (double &v : big)
        v = std::bit_cast<double>(rng.next());
    const std::vector<std::vector<double>> cases = {
        {},
        {1.0 / 3.0},
        {-0.0},
        {5e-324, std::numeric_limits<double>::denorm_min() * 12345},
        {std::numeric_limits<double>::infinity(),
         -std::numeric_limits<double>::infinity()},
        {std::bit_cast<double>(std::uint64_t{0x7ff8000000000001}),
         std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),
         std::bit_cast<double>(std::uint64_t{0xfff800000000beef})},
        big,
    };
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        SnapshotScope<SnapshotWriter> scope(w, "lat");
        for (std::size_t i = 0; i < cases.size(); ++i)
            w.putDoubles("v" + std::to_string(i), cases[i]);
    }
    // One line per vector, however long.
    std::string line;
    std::size_t lines = 0;
    for (std::istringstream in(doc.str()); std::getline(in, line);)
        ++lines;
    EXPECT_EQ(lines, 1 + cases.size());
    EXPECT_NE(doc.str().find("\nlat.v0 = 0\n"), std::string::npos);
    EXPECT_NE(doc.str().find("\nlat.v2 = 1 8000000000000000\n"),
              std::string::npos);

    SnapshotReader r(doc);
    SnapshotScope<SnapshotReader> scope(r, "lat");
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_TRUE(sameBits(r.getDoubles("v" + std::to_string(i)),
                             cases[i]))
            << "case " << i;
}

TEST(SnapshotTest, PackedDoublesRejectHostileValues)
{
    const std::string one = " 3ff0000000000000";
    const std::string two = " 4000000000000000";
    const std::vector<std::pair<std::string, std::string>> hostile = {
        {"count too large", "2" + one},
        {"count too small", "1" + one + two},
        {"truncated last element", "2" + one + two.substr(0, 16)},
        {"uppercase digit", "1 3FF0000000000000"},
        {"non-hex digit", "1 3ff000000000000g"},
        {"missing space", "2" + one + "x" + two.substr(1)},
        {"missing space after count", "1" + one.substr(1) + "0"},
        {"trailing space", "1" + one + " "},
        {"trailing junk", "1" + one + "junk"},
        {"negative count", "-1" + one},
        {"plus-signed count", "+1" + one},
        {"empty value", ""},
        {"count only, elements missing", "3"},
        {"count 2^64-1", "18446744073709551615" + one},
        {"count past 2^64", "18446744073709551616" + one},
        {"NUL byte", "1 3ff000000000000" + std::string(1, '\0')},
    };
    for (const auto &[what, value] : hostile) {
        std::stringstream doc = docWithValue(value);
        SnapshotReader r(doc);
        EXPECT_EQ(fatalMessage([&] { r.getDoubles("v"); }),
                  "snapshot: bad packed doubles for 'v'")
            << what;
    }
    // The well-formed neighbour of every case above parses.
    std::stringstream ok = docWithValue("2" + one + two);
    SnapshotReader r(ok);
    EXPECT_TRUE(sameBits(r.getDoubles("v"), {1.0, 2.0}));
}

TEST(SnapshotTest, BadScalarMessagesNameTheScopedKey)
{
    std::stringstream doc(
        "dhl-snapshot 2\ns.u = 12x\ns.i = --3\ns.b = yes\ns.d = 0xzz\n");
    SnapshotReader r(doc);
    SnapshotScope<SnapshotReader> scope(r, "s");
    EXPECT_EQ(fatalMessage([&] { r.getU64("u"); }),
              "snapshot: bad integer for 's.u': '12x'");
    EXPECT_EQ(fatalMessage([&] { r.getI64("i"); }),
              "snapshot: bad integer for 's.i': '--3'");
    EXPECT_EQ(fatalMessage([&] { r.getBool("b"); }),
              "snapshot: bad bool for 's.b': 'yes'");
    EXPECT_EQ(fatalMessage([&] { r.getDouble("d"); }),
              "snapshot: bad integer for 's.d': '0xzz'");
    EXPECT_EQ(fatalMessage([&] { r.getDoubles("gone"); }),
              "snapshot: missing key 's.gone'");
}

TEST(SnapshotTest, VersionOneDocumentsAreRejectedAtTheHeader)
{
    std::stringstream v1("dhl-snapshot 1\nserve.epochs = 3\n");
    EXPECT_EQ(fatalMessage([&] { SnapshotReader r(v1); }),
              "snapshot: bad or missing header (expected "
              "'dhl-snapshot 2')");
    std::stringstream empty;
    EXPECT_THROW(SnapshotReader r(empty), FatalError);
}

TEST(SnapshotTest, ReaderOwnsTheDocument)
{
    // The reader indexes one buffer it owns: the stream may go away,
    // and a last line without a newline still counts.
    auto doc = std::make_unique<std::stringstream>(
        "dhl-snapshot 2\n# comment\n\na = 1\nb = 2 0000000000000000 "
        "8000000000000000");
    SnapshotReader r(*doc);
    doc.reset();
    EXPECT_EQ(r.getU64("a"), 1u);
    EXPECT_TRUE(sameBits(r.getDoubles("b"), {0.0, -0.0}));

    std::stringstream dup("dhl-snapshot 2\na = 1\na = 2\n");
    EXPECT_EQ(fatalMessage([&] { SnapshotReader bad(dup); }),
              "snapshot: duplicate key 'a'");
}

TEST(SnapshotTest, RngContinuesIdentically)
{
    Rng original(1234);
    for (int i = 0; i < 100; ++i)
        original.uniform();
    // Park a Box-Muller spare so the full state is exercised.
    original.normal();

    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        w.putRng("rng", original);
    }
    SnapshotReader r(doc);
    Rng restored(1); // different seed: state must come from the doc
    r.getRng("rng", restored);

    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(original.uniform(), restored.uniform());
        EXPECT_EQ(original.normal(), restored.normal());
        EXPECT_EQ(original.exponential(3.0), restored.exponential(3.0));
    }
}

TEST(SnapshotTest, MissingKeyAndMalformedDocumentFail)
{
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        w.putU64("present", 1);
    }
    SnapshotReader r(doc);
    EXPECT_THROW(r.getU64("absent"), FatalError);
    EXPECT_THROW(r.getU64("present.nested"), FatalError);

    std::stringstream garbage("not a snapshot\n");
    EXPECT_THROW(SnapshotReader bad(garbage), FatalError);
}

TEST(SnapshotTest, SimulatorKernelRoundTrip)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] { ++fired; });
    sim.schedule(2.0, [&] { ++fired; });
    sim.run();
    ASSERT_EQ(fired, 2);

    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        sim.saveState(w);
    }

    Simulator copy;
    SnapshotReader r(doc);
    copy.restoreState(r);
    EXPECT_EQ(copy.now(), sim.now());

    // Restored clock gates future scheduling exactly like the original.
    EXPECT_THROW(copy.scheduleAt(0.5, [] {}), FatalError);
    bool ran = false;
    copy.scheduleAt(3.0, [&] { ran = true; });
    copy.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(copy.now(), 3.0);
}

TEST(SnapshotTest, SimulatorRefusesRestoreWithPendingEvents)
{
    Simulator sim;
    sim.schedule(1.0, [] {});
    sim.run();
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        sim.saveState(w);
    }

    Simulator busy;
    busy.schedule(5.0, [] {});
    SnapshotReader r(doc);
    EXPECT_THROW(busy.restoreState(r), FatalError);
}

TEST(SnapshotTest, RunEpochStopsAtBoundary)
{
    Simulator sim;
    std::vector<double> fired;
    for (double t : {1.0, 2.0, 3.0, 7.0})
        sim.scheduleAt(t, [&fired, t] { fired.push_back(t); });

    const auto first = sim.runEpoch(3.0);
    EXPECT_EQ(first.end, 3.0);
    EXPECT_EQ(first.events, 3u);
    EXPECT_FALSE(first.queue_empty);
    EXPECT_EQ(sim.now(), 3.0);

    const auto second = sim.runEpoch(10.0);
    EXPECT_EQ(second.events, 1u);
    EXPECT_TRUE(second.queue_empty);
    ASSERT_EQ(fired.size(), 4u);
    EXPECT_EQ(fired.back(), 7.0);
}
