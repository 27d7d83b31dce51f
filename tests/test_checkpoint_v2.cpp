/**
 * @file
 * The committed format-v2 serving checkpoint (tests/data): a golden
 * byte-for-byte pin of the snapshot format, a seeded mutation loop over
 * it, and the hostile-count / out-of-range-field regressions.
 *
 * The fixture is the checkpoint `dhl_cli serve` writes with
 *
 *   --tracks 2 --epoch 300 --faults --fault-accel 500
 *   --maintenance 500:200:0:1 --domains 2 --plant-mtbf 0.5
 *   --plant-mttr 0.05 --te --stages ramp:600:0:0.15,peak:1200:0.15
 *   --stop-after 2
 *
 * a boundary where the admission queue, a track's fault-edge log, the
 * injector's per-cart streams and the TE estimator history are all
 * non-empty.  fixtureConfig() builds the same ServeConfig the CLI does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "dhl/reliability.hpp"
#include "serve/serving.hpp"
#include "workloads/arrival.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

serve::ServeConfig
fixtureConfig()
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.dhl.library_slots = std::max<std::size_t>(cfg.dhl.library_slots, 4096);
    cfg.tracks = 2;
    cfg.seed = 1;
    cfg.stages = workloads::parseStageSpec(
        "ramp:600:0:0.15,peak:1200:0.15", u::gigabytes(64.0), 0.0);
    cfg.epoch = 300.0;
    cfg.carts_per_track = 4;
    cfg.max_pending = 1024;
    cfg.policy = ops::DispatchPolicy::LeastQueued;
    cfg.min_priority_degraded = 0;

    cfg.te.enabled = true;
    cfg.te.mode = te::TeMode::Hybrid;
    cfg.te.control_period = 60.0;
    cfg.te.small_bytes = u::gigabytes(8.0);
    cfg.te.optical_capacity = u::gigabitsPerSecond(100.0);
    cfg.te.headroom = 0.9;
    cfg.te.usage_multiplier = 1.1;
    cfg.te.history = 8;
    cfg.te.min_priority_contended = 1;
    cfg.te.route = "C";

    const double accel = 500.0;
    core::ReliabilityConfig rel;
    rel.lim_mtbf /= accel;
    rel.lim_mttr /= accel;
    rel.track_mtbf /= accel;
    rel.track_mttr /= accel;
    rel.station_mtbf /= accel;
    rel.station_mttr /= accel;
    rel.cart_repair_hours /= accel;
    cfg.faults = core::toFaultConfig(rel, 1);

    ops::MaintenanceWindow w;
    w.start = 500.0;
    w.duration = 200.0;
    w.period = 0.0;
    w.track = 1;
    cfg.maintenance.windows.push_back(w);

    cfg.domains.enabled = true;
    cfg.domains.domain_size = 2;
    cfg.domains.plant_mtbf = 0.5;
    cfg.domains.plant_mttr = 0.05;
    cfg.domains.seed = 1;
    return cfg;
}

std::string
fixtureText()
{
    std::ifstream in(DHL_TEST_DATA_DIR "/serve_v2_golden.snapshot",
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing tests/data/serve_v2_golden.snapshot";
    return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &l : lines)
        out += l + "\n";
    return out;
}

/** The fixture with the value of @p key replaced by @p value. */
std::string
withValue(const std::string &key, const std::string &value)
{
    std::vector<std::string> lines = splitLines(fixtureText());
    bool found = false;
    for (std::string &l : lines) {
        if (l.rfind(key + " = ", 0) == 0) {
            l = key + " = " + value;
            found = true;
        }
    }
    EXPECT_TRUE(found) << key;
    return joinLines(lines);
}

/** restore() into a fresh fleet; rethrows whatever it throws. */
void
restoreText(const std::string &text)
{
    serve::ServingSim sim(fixtureConfig());
    std::istringstream in(text);
    sim.restore(in);
}

} // namespace

TEST(CheckpointV2Test, FixtureIsTheNonTrivialBoundary)
{
    const std::string text = fixtureText();
    ASSERT_EQ(text.rfind("dhl-snapshot 2\n", 0), 0u);
    serve::ServingSim sim(fixtureConfig());
    std::istringstream in(text);
    sim.restore(in);
    EXPECT_EQ(sim.epochsCompleted(), 2u);
    EXPECT_GT(sim.queueDepth(), 0u);
    EXPECT_GT(sim.faultState(1).serviceTransitions(), 0u);
    EXPECT_EQ(text.find("t0.injector.carts = 0\n"), std::string::npos);
    EXPECT_NE(text.find("te.ctl.estimator.d0.h0 = "), std::string::npos);
}

TEST(CheckpointV2Test, RestoreThenCheckpointGivesTheFixtureBytes)
{
    const std::string text = fixtureText();
    serve::ServingSim sim(fixtureConfig());
    std::istringstream in(text);
    sim.restore(in);
    std::ostringstream again;
    sim.checkpoint(again);
    EXPECT_EQ(again.str(), text);
}

TEST(CheckpointV2Test, FreshRunToTheBoundaryWritesTheFixtureBytes)
{
    serve::ServingSim sim(fixtureConfig());
    sim.run(2);
    std::ostringstream ck;
    sim.checkpoint(ck);
    EXPECT_EQ(ck.str(), fixtureText());
}

TEST(CheckpointV2Test, HostileFaultEdgeCountIsAFatalNotAnAllocation)
{
    // A count is never used to size a container before the elements
    // are read: a short document ends in "missing key".
    for (const char *n : {"1152921504606846975", "4000000000"}) {
        SCOPED_TRACE(n);
        EXPECT_THROW(restoreText(withValue("t0.faults.edges", n)),
                     FatalError);
    }
}

TEST(CheckpointV2Test, QueuedRequestOutsideTheProfileIsRejected)
{
    for (const char *stage : {"1000000", "-5", "2"}) {
        SCOPED_TRACE(stage);
        EXPECT_THROW(restoreText(withValue("serve.q0.stage", stage)),
                     FatalError);
    }
    // Under TE every queued tag must name a tenant.
    EXPECT_THROW(restoreText(withValue("serve.q0.tag", "no-such-tenant")),
                 FatalError);
}

TEST(CheckpointV2Test, MutatedFixturesReturnOrFailCleanly)
{
    // Seeded mutants of the fixture: every truncation, every dropped
    // line, every duplicated line, and every value replaced by a
    // non-number, a negative and 2^64-1.  restore() must return or
    // throw FatalError — never PanicError, a std:: exception or a crash.
    const std::vector<std::string> lines = splitLines(fixtureText());
    std::vector<std::pair<std::string, std::string>> mutants;
    for (std::size_t i = 0; i <= lines.size(); ++i)
        mutants.emplace_back(
            "truncate at " + std::to_string(i),
            joinLines({lines.begin(),
                       lines.begin() + static_cast<std::ptrdiff_t>(i)}));
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::vector<std::string> dropped = lines;
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
        mutants.emplace_back("drop " + lines[i], joinLines(dropped));
        std::vector<std::string> doubled = lines;
        doubled.insert(doubled.begin() + static_cast<std::ptrdiff_t>(i),
                       lines[i]);
        mutants.emplace_back("duplicate " + lines[i], joinLines(doubled));
        const std::size_t sep = lines[i].find(" = ");
        if (sep == std::string::npos)
            continue;
        for (const char *v : {"x", "-1", "18446744073709551615"}) {
            std::vector<std::string> replaced = lines;
            replaced[i] = lines[i].substr(0, sep + 3) + v;
            mutants.emplace_back(replaced[i], joinLines(replaced));
        }
    }
    ASSERT_GT(mutants.size(), 4 * lines.size());

    std::size_t fatal = 0;
    for (const auto &[what, text] : mutants) {
        try {
            restoreText(text);
        } catch (const FatalError &) {
            ++fatal;
        } catch (const PanicError &e) {
            ADD_FAILURE() << what << ": PanicError: " << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": std::exception: " << e.what();
        }
    }
    EXPECT_GT(fatal, mutants.size() / 2);
}
