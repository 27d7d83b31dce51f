/**
 * @file
 * Reference-oracle tests for the pull decisions FleetDispatcher and
 * ServingSim share (ops/dispatcher.hpp): the degraded verdict, the
 * priority floor and the most-free-track chooser.  The references are
 * copies of the loops they replaced in each caller, reading a plain
 * per-track view: the serving loop's max-free-pool scan and the
 * dispatcher's min-outstanding-under-capacity scan.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "ops/dispatcher.hpp"

using namespace dhl;
using namespace dhl::ops;

namespace {

/** One random per-track view. */
struct View
{
    std::vector<std::size_t> free;        ///< ServingSim: pool.size().
    std::vector<std::size_t> outstanding; ///< FleetDispatcher.
    std::size_t capacity = 0;             ///< Same on every track.
    std::vector<bool> up;
};

/** ServingSim::pickTrack before the merge (LeastQueued and
 *  AvailabilityAware arms). */
std::size_t
servingReference(DispatchPolicy policy, const View &v, bool degraded)
{
    std::size_t best = kNoTrack;
    std::size_t best_free = 0;
    for (std::size_t t = 0; t < v.free.size(); ++t) {
        if (policy == DispatchPolicy::AvailabilityAware && degraded &&
            !v.up[t])
            continue;
        const std::size_t free = v.free[t];
        if (free > best_free) {
            best = t;
            best_free = free;
        }
    }
    return best;
}

/** FleetDispatcher::pump's track loop before the merge. */
std::size_t
dispatcherReference(DispatchPolicy policy, const View &v)
{
    const std::size_t n = v.outstanding.size();
    std::size_t best_track = n;
    for (std::size_t t = 0; t < n; ++t) {
        if (v.outstanding[t] >= v.capacity)
            continue;
        if (policy == DispatchPolicy::AvailabilityAware && !v.up[t])
            continue;
        if (best_track == n ||
            v.outstanding[t] < v.outstanding[best_track])
            best_track = t;
    }
    return best_track == n ? kNoTrack : best_track;
}

/** The old degraded verdicts: ServingSim::fleetDegraded and the
 *  dispatcher's `policy == AvailabilityAware && anyTrackDown()`. */
bool
degradedReference(DispatchPolicy policy, const View &v)
{
    if (policy != DispatchPolicy::AvailabilityAware)
        return false;
    for (bool u : v.up)
        if (!u)
            return true;
    return false;
}

View
randomView(Rng &rng, std::size_t tracks)
{
    View v;
    v.capacity = static_cast<std::size_t>(rng.uniformInt(1, 4));
    const double p_down = rng.uniform();
    for (std::size_t t = 0; t < tracks; ++t) {
        // Small ranges so ties and full tracks are common.
        const auto out = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(v.capacity)));
        v.outstanding.push_back(out);
        v.free.push_back(v.capacity - out);
        v.up.push_back(rng.uniform() >= p_down);
    }
    return v;
}

std::size_t
choose(const View &v, bool degraded, bool from_outstanding)
{
    auto up = [&v](std::size_t t) { return static_cast<bool>(v.up[t]); };
    if (from_outstanding)
        return mostFreeTrack(
            v.outstanding.size(), degraded,
            [&v](std::size_t t) { return v.capacity - v.outstanding[t]; },
            up);
    return mostFreeTrack(
        v.free.size(), degraded, [&v](std::size_t t) { return v.free[t]; },
        up);
}

constexpr DispatchPolicy kPullPolicies[] = {
    DispatchPolicy::LeastQueued, DispatchPolicy::AvailabilityAware,
    DispatchPolicy::Te};

} // namespace

TEST(PullChoiceTest, MatchesBothReferencesOnRandomViews)
{
    Rng rng(20261019);
    std::size_t down_seen = 0;
    std::size_t none_seen = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        const auto tracks = static_cast<std::size_t>(rng.uniformInt(1, 8));
        const View v = randomView(rng, tracks);
        for (DispatchPolicy policy : kPullPolicies) {
            const bool degraded = fleetDegraded(
                policy, tracks,
                [&v](std::size_t t) { return static_cast<bool>(v.up[t]); });
            ASSERT_EQ(degraded, degradedReference(policy, v));
            down_seen += degraded ? 1 : 0;

            const std::size_t got = choose(v, degraded, false);
            ASSERT_EQ(got, servingReference(policy, v, degraded))
                << "trial " << trial << " policy " << to_string(policy);
            ASSERT_EQ(choose(v, degraded, true),
                      dispatcherReference(policy, v))
                << "trial " << trial << " policy " << to_string(policy);
            none_seen += got == kNoTrack ? 1 : 0;
        }
    }
    EXPECT_GT(down_seen, 0u) << "degraded views were exercised";
    EXPECT_GT(none_seen, 0u) << "all-full views were exercised";
}

TEST(PullChoiceTest, AgreesWithTheServingScanForEitherFlag)
{
    // The serving loop's scan takes `degraded` as given; the chooser
    // must agree with it for both values on any view, including one
    // where the flag is set with every track up.
    Rng rng(7);
    for (int trial = 0; trial < 5000; ++trial) {
        const auto tracks = static_cast<std::size_t>(rng.uniformInt(1, 6));
        const View v = randomView(rng, tracks);
        for (bool degraded : {false, true})
            ASSERT_EQ(choose(v, degraded, false),
                      servingReference(DispatchPolicy::AvailabilityAware,
                                       v, degraded));
    }
}

TEST(PullChoiceTest, TiesGoToTheLowestIndex)
{
    View v;
    v.capacity = 3;
    v.outstanding = {1, 0, 0, 2};
    v.free = {2, 3, 3, 1};
    v.up = {true, true, true, true};
    EXPECT_EQ(choose(v, false, false), 1u);
    EXPECT_EQ(choose(v, false, true), 1u);
    v.up[1] = false;
    EXPECT_EQ(choose(v, true, false), 2u) << "down track skipped";
    EXPECT_EQ(choose(v, false, false), 1u) << "not degraded: no skip";
}

TEST(PullChoiceTest, AllFullAndAllDownChooseNothing)
{
    View full;
    full.capacity = 2;
    full.outstanding = {2, 2, 2};
    full.free = {0, 0, 0};
    full.up = {true, true, true};
    EXPECT_EQ(choose(full, false, false), kNoTrack);
    EXPECT_EQ(choose(full, false, true), kNoTrack);

    View down = full;
    down.outstanding = {0, 0, 0};
    down.free = {2, 2, 2};
    down.up = {false, false, false};
    EXPECT_EQ(choose(down, true, false), kNoTrack);
    EXPECT_EQ(choose(down, true, true), kNoTrack);
    EXPECT_EQ(choose(down, false, false), 0u);
}

TEST(PullChoiceTest, OneTrack)
{
    View v;
    v.capacity = 1;
    v.outstanding = {0};
    v.free = {1};
    v.up = {true};
    EXPECT_EQ(choose(v, false, false), 0u);
    v.up = {false};
    EXPECT_EQ(choose(v, true, true), kNoTrack);
    v.outstanding = {1};
    v.free = {0};
    v.up = {true};
    EXPECT_EQ(choose(v, false, true), kNoTrack);
}

TEST(PullChoiceTest, PriorityFloor)
{
    // ServingSim::admissible before the merge was
    // `policy != AvailabilityAware || !degraded || priority >= floor`;
    // outside AvailabilityAware the verdict is never degraded.
    for (DispatchPolicy policy :
         {DispatchPolicy::RoundRobin, DispatchPolicy::LeastQueued,
          DispatchPolicy::AvailabilityAware}) {
        for (bool any_down : {false, true}) {
            const bool degraded =
                policy == DispatchPolicy::AvailabilityAware && any_down;
            for (int floor = -1; floor <= 2; ++floor) {
                for (int priority = -2; priority <= 3; ++priority) {
                    const bool admissible =
                        policy != DispatchPolicy::AvailabilityAware ||
                        !degraded || priority >= floor;
                    EXPECT_EQ(!belowPriorityFloor(degraded, priority, floor),
                              admissible);
                }
            }
        }
    }
}
