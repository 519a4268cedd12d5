#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "util/rng.hpp"

namespace mcs::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, EventKind::kGenerate, 1);
  q.push(1.0, EventKind::kGenerate, 2);
  q.push(2.0, EventKind::kGenerate, 3);
  EXPECT_EQ(q.pop().a, 2);
  EXPECT_EQ(q.pop().a, 3);
  EXPECT_EQ(q.pop().a, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(5.0, EventKind::kRelease, i);
  for (int i = 0; i < 10; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.a, i);
    EXPECT_DOUBLE_EQ(e.time, 5.0);
  }
}

TEST(EventQueue, InterleavedPushPopStaysSorted) {
  EventQueue q;
  util::Rng rng(1);
  double now = 0.0;
  double last = 0.0;
  for (int round = 0; round < 2000; ++round) {
    q.push(now + rng.next_double() * 10.0, EventKind::kHeaderAdvance, round);
    if (round % 3 == 0 && !q.empty()) {
      const Event e = q.pop();
      EXPECT_GE(e.time, last);
      last = e.time;
      now = e.time;
    }
  }
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(1.0, EventKind::kGenerate, 0);
  q.push(2.0, EventKind::kGenerate, 0);
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pushed(), 2u);
}

// ---------------------------------------------------------------------------
// Property/fuzz tests against a reference oracle. The oracle is a
// std::priority_queue over the same (time, seq) total order; because every
// seq is unique the order is strict, so ANY correct pending-event structure
// must pop the exact same sequence. This is what licenses swapping the
// queue implementation under the golden tests: equivalence here + a total
// order implies bit-identical simulations.

struct OracleAfter {
  bool operator()(const Event& x, const Event& y) const {
    return x.after(y);  // max-heap adaptor + "after" = min-queue
  }
};
using Oracle =
    std::priority_queue<Event, std::vector<Event>, OracleAfter>;

TEST(EventQueueProperty, MatchesPriorityQueueOracleOnRandomWorkloads) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    util::Rng rng(1000 + trial);
    EventQueue q;
    Oracle oracle;
    std::uint64_t seq = 0;
    double now = 0.0;
    // Random interleaving of pushes and pops with drift-free clock: pops
    // advance `now`, pushes schedule at or after it (ties are common by
    // construction: ~1/4 of pushes reuse the current time exactly).
    for (int step = 0; step < 4000; ++step) {
      const bool do_push = oracle.empty() || rng.next_below(100) < 55;
      if (do_push) {
        const double dt = rng.next_below(4) == 0
                              ? 0.0
                              : rng.next_double() * 8.0;
        const auto kind = static_cast<EventKind>(rng.next_below(4));
        const auto a = static_cast<std::int32_t>(rng.next_below(512));
        q.push(now + dt, kind, a);
        oracle.push(Event{now + dt, seq++, kind, a});
      } else {
        const Event expected = oracle.top();
        oracle.pop();
        const Event got = q.pop();
        EXPECT_EQ(got.time, expected.time);
        EXPECT_EQ(got.seq, expected.seq);
        EXPECT_EQ(got.kind, expected.kind);
        EXPECT_EQ(got.a, expected.a);
        ASSERT_GE(got.time, now);  // monotonic-pop invariant
        now = got.time;
      }
      ASSERT_EQ(q.size(), oracle.size());
    }
    // Drain: the tail must match too, and stay monotone.
    while (!oracle.empty()) {
      const Event expected = oracle.top();
      oracle.pop();
      const Event got = q.pop();
      ASSERT_EQ(got.seq, expected.seq);
      ASSERT_GE(got.time, now);
      now = got.time;
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueProperty, BurstyTiesPopInSeqOrder) {
  // Adversarial tie pattern: many bursts pushed at identical times in
  // shuffled arrival order must come out in global seq order per time.
  util::Rng rng(42);
  EventQueue q;
  std::vector<Event> pushed;
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 64; ++burst) {
    const double t = static_cast<double>(rng.next_below(16));
    const int n = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < n; ++i) {
      q.push(t, EventKind::kRelease, burst);
      pushed.push_back(Event{t, seq++, EventKind::kRelease, burst});
    }
  }
  std::sort(pushed.begin(), pushed.end(),
            [](const Event& x, const Event& y) { return y.after(x); });
  for (const Event& expected : pushed) {
    const Event got = q.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, ReserveDoesNotChangeBehavior) {
  util::Rng rng(7);
  EventQueue plain;
  EventQueue hinted;
  hinted.reserve(10'000);
  for (int i = 0; i < 5000; ++i) {
    const double t = rng.next_double() * 100.0;
    plain.push(t, EventKind::kGenerate, i);
    hinted.push(t, EventKind::kGenerate, i);
  }
  while (!plain.empty()) {
    const Event a = plain.pop();
    const Event b = hinted.pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(hinted.empty());
}

// ---------------------------------------------------------------------------
// Sources: direct pushes, FIFO lanes and runs merged through the head heap
// must pop exactly the oracle's (time, seq) order, and size()/top()/empty()
// must agree with the oracle after every operation.

void expect_same(const Event& got, const Event& expected) {
  ASSERT_EQ(got.time, expected.time);
  ASSERT_EQ(got.seq, expected.seq);
  ASSERT_EQ(got.kind, expected.kind);
  ASSERT_EQ(got.a, expected.a);
}

void expect_matches(const EventQueue& q, const Oracle& oracle) {
  ASSERT_EQ(q.size(), oracle.size());
  ASSERT_EQ(q.empty(), oracle.empty());
  if (!oracle.empty()) expect_same(q.top(), oracle.top());
}

TEST(EventQueueSources, MatchesPriorityQueueOracleOnMixedSources) {
  constexpr int kMaxPath = 12;
  // Lane delays: 0 puts lane events at the current time, so they tie with
  // direct pushes and run heads; the others tie with each other often
  // because every time is a multiple of 0.5.
  const double kLaneDelay[] = {0.0, 1.0, 2.5};
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    util::Rng rng(5000 + trial);
    EventQueue q;
    if (trial % 2 == 1) q.enable_generate_lane(64);
    const EventQueue::LaneId first_lane = q.add_lanes(std::size(kLaneDelay));
    q.set_run_capacity(kMaxPath + 1);
    Oracle oracle;
    std::uint64_t seq = 0;
    double now = 0.0;
    const auto half_steps = [&rng](std::uint64_t n) {
      return 0.5 * static_cast<double>(rng.next_below(n));
    };
    const auto record = [&](double t, EventKind kind, std::int32_t a) {
      oracle.push(Event{t, seq++, kind, a});
    };
    // Push-heavy first half (lanes grow past their initial ring), then
    // pop-heavy (lanes and runs empty and refill).
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t push_pct = step < 1500 ? 70 : 40;
      const auto a = static_cast<std::int32_t>(rng.next_below(1 << 20));
      if (step == 1000) q.set_run_capacity(2 * kMaxPath);  // re-lay live runs
      if (!oracle.empty() && rng.next_below(100) >= push_pct) {
        const Event expected = oracle.top();
        oracle.pop();
        const Event got = q.pop();
        expect_same(got, expected);
        now = got.time;
      } else {
        switch (rng.next_below(3)) {
          case 0: {
            const double t = now + half_steps(8);
            const auto kind = static_cast<EventKind>(rng.next_below(4));
            q.push(t, kind, a);
            record(t, kind, a);
            break;
          }
          case 1: {
            const std::size_t l = rng.next_below(std::size(kLaneDelay));
            const double t = now + kLaneDelay[l];
            q.push_lane(first_lane + static_cast<EventQueue::LaneId>(l), t,
                        EventKind::kHeaderAdvance, a);
            record(t, EventKind::kHeaderAdvance, a);
            break;
          }
          default: {
            // Empty runs, single-event runs, and the full max-path + 1.
            const std::uint64_t pick = rng.next_below(8);
            const std::uint64_t len =
                pick == 0 ? 0
                : pick == 1 ? 1
                : pick == 2 ? kMaxPath + 1
                            : 2 + rng.next_below(kMaxPath - 1);
            double t = now + half_steps(4);
            q.open_run();
            for (std::uint64_t i = 0; i < len; ++i) {
              const EventKind kind = i + 1 == len ? EventKind::kWormDone
                                                  : EventKind::kRelease;
              q.push_run(t, kind, a);
              record(t, kind, a);
              t += half_steps(3);
            }
            q.close_run();
            break;
          }
        }
      }
      expect_matches(q, oracle);
    }
    while (!oracle.empty()) {
      const Event expected = oracle.top();
      oracle.pop();
      expect_same(q.pop(), expected);
      expect_matches(q, oracle);
    }
    EXPECT_EQ(q.pushed(), seq);
  }
}

TEST(EventQueueSources, LaneEmptiesAndRefills) {
  EventQueue q;
  const EventQueue::LaneId lane = q.add_lanes(1);
  // Wrap the ring head many times: one event in flight at a time.
  for (int i = 0; i < 100; ++i) {
    q.push_lane(lane, static_cast<double>(i), EventKind::kHeaderAdvance, i);
    EXPECT_EQ(q.size(), 1u);
    const Event e = q.pop();
    EXPECT_EQ(e.a, i);
    EXPECT_TRUE(q.empty());
  }
  // Refill past the initial ring while a direct event interleaves.
  for (int i = 0; i < 40; ++i)
    q.push_lane(lane, 100.0 + i, EventKind::kHeaderAdvance, i);
  q.push(120.5, EventKind::kRelease, 7);
  for (int i = 0; i < 41; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.kind,
              i == 21 ? EventKind::kRelease : EventKind::kHeaderAdvance);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueSources, CountersSplitPushesBySource) {
  EventQueue q;
  q.enable_generate_lane(4);
  const EventQueue::LaneId lane = q.add_lanes(1);
  q.set_run_capacity(3);
  q.push(1.0, EventKind::kGenerate, 0);
  q.push(2.0, EventKind::kGenerate, 1);
  q.push(1.5, EventKind::kRelease, 2);
  q.push_lane(lane, 1.0, EventKind::kHeaderAdvance, 3);
  q.open_run();
  q.push_run(3.0, EventKind::kRelease, 4);
  q.push_run(3.0, EventKind::kWormDone, 5);
  q.close_run();
  (void)q.pop();
  (void)q.pop();
  const EventQueueCounters c = q.counters();
  EXPECT_EQ(c.generate_pushes, 2u);
  EXPECT_EQ(c.direct_pushes, 1u);
  EXPECT_EQ(c.lane_pushes, 1u);
  EXPECT_EQ(c.run_pushes, 2u);
  EXPECT_EQ(c.pops, 2u);
  EXPECT_EQ(c.peak_size, 6u);
  EXPECT_EQ(q.size(), 4u);
}

TEST(EventQueueDeathTest, OutOfOrderLanePushAborts) {
  EventQueue q;
  const EventQueue::LaneId lane = q.add_lanes(1);
  q.push_lane(lane, 5.0, EventKind::kHeaderAdvance, 0);
  EXPECT_DEATH(q.push_lane(lane, 4.0, EventKind::kHeaderAdvance, 1),
               "precondition");
}

TEST(EventQueueDeathTest, OutOfOrderRunPushAborts) {
  EventQueue q;
  q.set_run_capacity(4);
  q.open_run();
  q.push_run(5.0, EventKind::kRelease, 0);
  EXPECT_DEATH(q.push_run(4.0, EventKind::kRelease, 1), "precondition");
}

TEST(EventQueueDeathTest, RunBeyondCapacityAborts) {
  EventQueue q;
  q.set_run_capacity(2);
  q.open_run();
  q.push_run(1.0, EventKind::kRelease, 0);
  q.push_run(2.0, EventKind::kWormDone, 0);
  EXPECT_DEATH(q.push_run(3.0, EventKind::kRelease, 1), "precondition");
}

TEST(EventQueueDeathTest, PopWithOpenRunAborts) {
  EventQueue q;
  q.set_run_capacity(2);
  q.push(1.0, EventKind::kRelease, 0);
  q.open_run();
  q.push_run(0.5, EventKind::kRelease, 1);
  EXPECT_DEATH((void)q.pop(), "precondition");
}

TEST(EventQueueDeathTest, PopOnEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH((void)q.pop(), "precondition");
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  EventQueue q;
  q.push(10.0, EventKind::kGenerate, 0);
  (void)q.pop();
  EXPECT_DEATH(q.push(5.0, EventKind::kGenerate, 0), "precondition");
}

}  // namespace
}  // namespace mcs::sim
