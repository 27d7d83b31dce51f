/**
 * @file
 * Randomized differential stress test of the DES kernel.
 *
 * Drives ~100k interleaved schedule / cancel / runUntil / step
 * operations against a deliberately naive reference queue (a flat
 * vector scanned linearly) and asserts that the kernel fires the same
 * events in the same order (FIFO within a timestamp), reports the same
 * pendingEvents(), and keeps the same stat counters.  This pins the
 * semantics of the slot-registry/generation-handle implementation to
 * the observable contract.
 *
 * The file also overrides global operator new/delete with counters to
 * assert the acceptance criterion that the steady-state schedule→fire
 * path performs zero heap allocations for SBO-sized actions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "common/random.hpp"
#include "sim/simulator.hpp"

using dhl::Rng;
using dhl::sim::EventHandle;
using dhl::sim::Simulator;

namespace {

std::atomic<std::int64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/**
 * Reference model: events in a plain vector, popped by linear scan for
 * the (time, seq) minimum — obviously correct, obviously slow.
 */
class ReferenceQueue
{
  public:
    struct Event
    {
        double when;
        std::uint64_t seq;
        int token;
        bool cancelled = false;
    };

    std::uint64_t
    schedule(double now, double delay, int token)
    {
        events_.push_back(Event{now + delay, next_seq_, token});
        return next_seq_++;
    }

    bool
    cancel(std::uint64_t seq)
    {
        for (auto &e : events_) {
            if (e.seq == seq && !e.cancelled) {
                e.cancelled = true;
                return true;
            }
        }
        return false;
    }

    std::size_t
    pending() const
    {
        std::size_t n = 0;
        for (const auto &e : events_)
            n += e.cancelled ? 0 : 1;
        return n;
    }

    /** Pop the earliest live event at time <= until; false if none. */
    bool
    popUpTo(double until, Event &out)
    {
        auto best = events_.end();
        for (auto it = events_.begin(); it != events_.end(); ++it) {
            if (it->cancelled)
                continue;
            if (best == events_.end() || it->when < best->when ||
                (it->when == best->when && it->seq < best->seq)) {
                best = it;
            }
        }
        if (best == events_.end() || best->when > until)
            return false;
        out = *best;
        events_.erase(best);
        return true;
    }

  private:
    std::vector<Event> events_;
    std::uint64_t next_seq_ = 0;
};

struct Fired
{
    double when;
    int token;

    bool
    operator==(const Fired &o) const
    {
        return when == o.when && token == o.token;
    }
};

TEST(SimulatorStress, DifferentialVsReferenceQueue)
{
    Rng rng(20240815);
    Simulator sim;
    ReferenceQueue ref;

    std::vector<Fired> fired_sim;
    std::vector<Fired> fired_ref;

    // Live handles: kernel handle + reference seq + token, kept in
    // lockstep so a random cancel hits the same event in both models.
    struct Live
    {
        EventHandle handle;
        std::uint64_t ref_seq;
    };
    std::vector<Live> live;

    std::uint64_t scheduled = 0, cancelled = 0;
    int next_token = 0;

    const int kOps = 100000;
    for (int op = 0; op < kOps; ++op) {
        const auto kind = static_cast<int>(rng.uniformInt(0, 99));
        if (kind < 55) {
            // Schedule; delays collide on a coarse grid so FIFO
            // tie-breaking is exercised constantly.
            const double delay =
                static_cast<double>(rng.uniformInt(0, 40)) * 0.25;
            const int token = next_token++;
            const EventHandle h = sim.schedule(
                delay, [token, &fired_sim, &sim] {
                    fired_sim.push_back(Fired{sim.now(), token});
                });
            live.push_back(Live{h, ref.schedule(sim.now(), delay, token)});
            ++scheduled;
        } else if (kind < 75) {
            // Cancel a random outstanding handle (may already have
            // fired — both models must agree on the outcome).
            if (live.empty())
                continue;
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            const bool ok_sim = sim.cancel(live[idx].handle);
            const bool ok_ref = ref.cancel(live[idx].ref_seq);
            ASSERT_EQ(ok_sim, ok_ref) << "cancel divergence at op " << op;
            if (ok_sim)
                ++cancelled;
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        } else if (kind < 95) {
            // Advance a random amount of time.
            const double horizon =
                sim.now() + rng.uniform(0.0, 3.0);
            sim.runUntil(horizon);
            ReferenceQueue::Event e;
            while (ref.popUpTo(horizon, e))
                fired_ref.push_back(Fired{e.when, e.token});
            ASSERT_EQ(fired_sim.size(), fired_ref.size())
                << "fire-count divergence at op " << op;
        } else {
            // Execute a bounded number of events.
            const auto max_events =
                static_cast<std::uint64_t>(rng.uniformInt(1, 5));
            const std::uint64_t n = sim.step(max_events);
            for (std::uint64_t k = 0; k < n; ++k) {
                ReferenceQueue::Event e;
                ASSERT_TRUE(ref.popUpTo(
                    std::numeric_limits<double>::infinity(), e));
                fired_ref.push_back(Fired{e.when, e.token});
            }
        }
        if ((op & 1023) == 0) {
            ASSERT_EQ(sim.pendingEvents(), ref.pending())
                << "pending divergence at op " << op;
        }
    }

    // Drain both models completely.
    sim.run();
    ReferenceQueue::Event e;
    while (ref.popUpTo(std::numeric_limits<double>::infinity(), e))
        fired_ref.push_back(Fired{e.when, e.token});

    ASSERT_EQ(fired_sim.size(), fired_ref.size());
    for (std::size_t i = 0; i < fired_sim.size(); ++i) {
        ASSERT_EQ(fired_sim[i], fired_ref[i])
            << "firing-order divergence at index " << i << ": sim={"
            << fired_sim[i].when << "," << fired_sim[i].token << "} ref={"
            << fired_ref[i].when << "," << fired_ref[i].token << "}";
    }
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(ref.pending(), 0u);

    // Stat counters match the reference bookkeeping.
    const auto *stat_scheduled = dynamic_cast<const dhl::stats::Counter *>(
        sim.statsGroup().find("events_scheduled"));
    const auto *stat_executed = dynamic_cast<const dhl::stats::Counter *>(
        sim.statsGroup().find("events_executed"));
    const auto *stat_cancelled = dynamic_cast<const dhl::stats::Counter *>(
        sim.statsGroup().find("events_cancelled"));
    ASSERT_NE(stat_scheduled, nullptr);
    ASSERT_NE(stat_executed, nullptr);
    ASSERT_NE(stat_cancelled, nullptr);
    EXPECT_EQ(stat_scheduled->value(), scheduled);
    EXPECT_EQ(stat_cancelled->value(), cancelled);
    EXPECT_EQ(stat_executed->value(), scheduled - cancelled);
    EXPECT_EQ(sim.eventsExecuted(), scheduled - cancelled);
    EXPECT_EQ(fired_sim.size(), scheduled - cancelled);
}

/**
 * The kernel and the reference queue driven in lockstep, for the
 * heap-shape cases below.
 */
class Lockstep
{
  public:
    EventHandle
    schedule(double delay)
    {
        const int token = next_token_++;
        const EventHandle h = sim.schedule(delay, [this, token] {
            fired_sim.push_back(Fired{sim.now(), token});
        });
        seqs_.push_back(ref_.schedule(sim.now(), delay, token));
        return h;
    }

    /** Cancel the event with @p token in both models. */
    bool
    cancel(EventHandle h, int token)
    {
        const bool ok = sim.cancel(h);
        EXPECT_EQ(ok, ref_.cancel(seqs_[static_cast<std::size_t>(token)]));
        return ok;
    }

    /** Fire up to @p n events in both models. */
    void
    step(std::uint64_t n)
    {
        const std::uint64_t fired = sim.step(n);
        for (std::uint64_t k = 0; k < fired; ++k) {
            ReferenceQueue::Event e;
            ASSERT_TRUE(
                ref_.popUpTo(std::numeric_limits<double>::infinity(), e));
            fired_ref.push_back(Fired{e.when, e.token});
        }
        EXPECT_EQ(sim.pendingEvents(), ref_.pending());
    }

    void
    drainAndCompare()
    {
        sim.run();
        ReferenceQueue::Event e;
        while (ref_.popUpTo(std::numeric_limits<double>::infinity(), e))
            fired_ref.push_back(Fired{e.when, e.token});
        ASSERT_EQ(fired_sim.size(), fired_ref.size());
        for (std::size_t i = 0; i < fired_sim.size(); ++i)
            ASSERT_EQ(fired_sim[i], fired_ref[i]) << "index " << i;
        EXPECT_EQ(sim.pendingEvents(), 0u);
    }

    Simulator sim;
    std::vector<Fired> fired_sim;
    std::vector<Fired> fired_ref;

  private:
    ReferenceQueue ref_;
    std::vector<std::uint64_t> seqs_;
    int next_token_ = 0;
};

TEST(SimulatorStress, HeapSizesAcrossLevelBoundaries)
{
    // Sizes at which a binary heap (3, 7, 63 full) or a 4-ary one (4,
    // 20, 84 full) fills a level and opens the next; pop and push
    // across each boundary.
    for (const int n : {1, 3, 4, 5, 7, 8, 20, 21, 63, 64, 84, 85, 86}) {
        Rng rng(1000 + static_cast<std::uint64_t>(n));
        Lockstep ls;
        for (int i = 0; i < n; ++i)
            ls.schedule(static_cast<double>(rng.uniformInt(0, 12)) * 0.5);
        ls.step(1);
        ls.schedule(0.0);
        ls.schedule(100.0);
        ls.step(static_cast<std::uint64_t>(n / 2));
        for (int i = 0; i < n; ++i)
            ls.schedule(static_cast<double>(rng.uniformInt(0, 12)) * 0.5);
        ls.drainAndCompare();
        EXPECT_EQ(ls.fired_sim.size(), static_cast<std::size_t>(2 * n + 2))
            << "n " << n;
    }
}

TEST(SimulatorStress, HundredsOfEventsTiedAtOneTimestamp)
{
    Lockstep ls;
    ls.schedule(2.0);
    for (int i = 0; i < 600; ++i) {
        ls.schedule(1.0);
        if (i % 50 == 0)
            ls.schedule(0.5 * static_cast<double>(i % 3)); // interleave
    }
    ls.step(7);
    for (int i = 0; i < 300; ++i)
        ls.schedule(0.0); // ties at the current time join the FIFO tail
    ls.drainAndCompare();
}

TEST(SimulatorStress, CancelledEntriesSurfaceAtTheTop)
{
    Lockstep ls;
    std::vector<EventHandle> early;
    for (int i = 0; i < 40; ++i)
        early.push_back(ls.schedule(0.25 * static_cast<double>(i % 5)));
    for (int i = 0; i < 40; ++i)
        ls.schedule(5.0 + 0.25 * static_cast<double>(i % 7));
    // Cancel every early event: the heap top is a run of dead entries.
    for (int i = 0; i < 40; ++i)
        EXPECT_TRUE(ls.cancel(early[static_cast<std::size_t>(i)], i));
    ls.step(3);
    // Cancel whatever is next to fire, then keep going.
    const EventHandle next = ls.schedule(0.0);
    EXPECT_TRUE(ls.cancel(next, 80));
    ls.step(1);
    ls.drainAndCompare();
    EXPECT_EQ(ls.fired_sim.size(), 40u);
}

TEST(SimulatorStress, SteadyStateScheduleFirePathDoesNotAllocate)
{
    Simulator sim;
    std::uint64_t fired = 0;
    const std::size_t n = 4096;

    // Warm up: grows the slot registry, heap storage and free list to
    // steady-state capacity.
    for (std::size_t i = 0; i < n; ++i) {
        sim.schedule(static_cast<double>(i % 17) * 0.5,
                     [&fired] { ++fired; });
    }
    sim.run();
    ASSERT_EQ(fired, n);

    // Steady state: schedule→fire with SBO-sized captures must not
    // touch the heap at all.
    const std::int64_t before = g_allocs.load();
    for (std::size_t i = 0; i < n; ++i) {
        sim.schedule(static_cast<double>(i % 17) * 0.5,
                     [&fired] { ++fired; });
    }
    sim.run();
    EXPECT_EQ(g_allocs.load(), before)
        << "steady-state schedule→fire path allocated";
    EXPECT_EQ(fired, 2 * n);
}

TEST(SimulatorStress, StepClearsStaleStopRequest)
{
    // A stop() from a previous run must not leak into step() — the
    // semantics fix for the old behaviour where stopped_ persisted.
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] {
        ++fired;
        sim.stop();
    });
    sim.schedule(2.0, [&] { ++fired; });
    sim.schedule(3.0, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.stopRequested());

    // step() clears the stale request and executes.
    EXPECT_EQ(sim.step(1), 1u);
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(sim.stopRequested());
}

TEST(SimulatorStress, StopDuringStepEndsBatchEarly)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] {
        ++fired;
        sim.stop();
    });
    sim.schedule(2.0, [&] { ++fired; });
    EXPECT_EQ(sim.step(10), 1u); // stop() ends the batch
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.stopRequested());
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.step(10), 1u); // cleared on entry; resumes
    EXPECT_EQ(fired, 2);
}

TEST(SimulatorStress, HandlesStayUniqueAcrossSlotReuse)
{
    // A fired event's slot is recycled; the old handle must never
    // cancel the new occupant (generation tagging).
    Simulator sim;
    std::vector<EventHandle> old_handles;
    for (int round = 0; round < 50; ++round) {
        int fired = 0;
        std::vector<EventHandle> fresh;
        for (int i = 0; i < 20; ++i)
            fresh.push_back(sim.schedule(0.5, [&fired] { ++fired; }));
        // Stale handles from previous rounds target recycled slots.
        for (EventHandle h : old_handles)
            EXPECT_FALSE(sim.cancel(h));
        sim.run();
        EXPECT_EQ(fired, 20);
        old_handles = std::move(fresh);
    }
}

} // namespace
