#include "sim/event_queue.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dimsum::sim {
namespace {

/// An inert event: a coroutine-kind target that is never dispatched, so
/// order tests can push/pop freely with no cleanup obligations.
Event MakeEvent(double time, uint64_t seq) {
  Event ev;
  ev.time = time;
  ev.seq = seq;
  return ev;
}

std::pair<double, uint64_t> Key(const Event& ev) {
  return {ev.time, ev.seq};
}

TEST(EventQueueTest, PopsInTimeThenSeqOrder) {
  EventQueue queue;
  queue.Push(MakeEvent(5.0, 0));
  queue.Push(MakeEvent(1.0, 1));
  queue.Push(MakeEvent(5.0, 2));
  queue.Push(MakeEvent(0.5, 3));
  ASSERT_EQ(queue.size(), 4u);
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{0.5, 3}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{1.0, 1}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{5.0, 0}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{5.0, 2}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SparseFarFutureTailFindsGlobalMinimum) {
  // Widely spaced times, pushed latest first.
  EventQueue queue;
  queue.Push(MakeEvent(2e9, 0));
  queue.Push(MakeEvent(1e9, 1));
  queue.Push(MakeEvent(0.0, 2));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{0.0, 2}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{1e9, 1}));
  EXPECT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{2e9, 0}));
}

TEST(EventQueueTest, EqualTimeBurstPopsInSeqOrder) {
  // Thousands of same-instant events (a broadcast fan-out) must pop in
  // insertion order.
  EventQueue queue;
  for (uint64_t s = 0; s < 5000; ++s) queue.Push(MakeEvent(7.5, s));
  for (uint64_t s = 0; s < 5000; ++s) {
    ASSERT_EQ(Key(queue.Pop()), (std::pair<double, uint64_t>{7.5, s}));
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueDifferentialTest, RandomizedWorkloadsPopIdentically) {
  // Property test: under a randomized mix of pushes (clustered, bursty,
  // far-future, and earlier-than-now times) and pops, the queue pops the
  // exact (time, seq) sequence of a sorted-vector oracle. Phases of
  // push-heavy and pop-heavy mixes grow the population into the
  // thousands and drain it again.
  Rng rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue queue;
    std::vector<std::pair<double, uint64_t>> oracle;  // descending
    uint64_t seq = 0;
    double now = 0.0;  // floor for new pushes, mimicking simulator time
    for (int op = 0; op < 8000; ++op) {
      const double push_share = (op / 2000) % 2 == 0 ? 0.8 : 0.3;
      if (queue.empty() || rng.NextDouble() < push_share) {
        double time = now;
        const double shape = rng.NextDouble();
        if (shape < 0.3) {
          time = now + rng.Exponential(5.0);  // clustered near now
        } else if (shape < 0.6) {
          time = now;  // same-instant burst
        } else if (shape < 0.8) {
          time = now + rng.Exponential(5000.0);  // sparse tail
        } else if (shape < 0.9) {
          time = now + rng.NextDouble() * 1e7;  // far future
        } else {
          time = now * rng.NextDouble();  // out of order: before now
        }
        const Event ev = MakeEvent(time, seq++);
        queue.Push(ev);
        oracle.insert(std::upper_bound(oracle.begin(), oracle.end(), Key(ev),
                                       std::greater<>()),
                      Key(ev));
      } else {
        ASSERT_EQ(Key(queue.Peek()), oracle.back());
        const Event ev = queue.Pop();
        ASSERT_EQ(Key(ev), oracle.back()) << "trial " << trial << " op " << op;
        oracle.pop_back();
        if (ev.time > now) now = ev.time;
      }
      ASSERT_EQ(queue.size(), oracle.size());
    }
    while (!queue.empty()) {
      ASSERT_EQ(Key(queue.Pop()), oracle.back());
      oracle.pop_back();
    }
    EXPECT_TRUE(oracle.empty());
  }
}

TEST(EventQueueDifferentialTest, GrowShrinkCyclePreservesOrder) {
  // Drive the population up to thousands of events, then drain it all,
  // comparing against a sorted oracle throughout.
  Rng rng(99);
  EventQueue queue;
  std::vector<std::pair<double, uint64_t>> oracle;
  uint64_t seq = 0;
  for (int i = 0; i < 3000; ++i) {
    const Event ev = MakeEvent(rng.NextDouble() * 100.0, seq++);
    queue.Push(ev);
    oracle.push_back(Key(ev));
  }
  std::sort(oracle.begin(), oracle.end());
  for (const auto& expected : oracle) {
    ASSERT_EQ(Key(queue.Pop()), expected);
  }
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace dimsum::sim
