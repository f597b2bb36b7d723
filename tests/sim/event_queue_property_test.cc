// Property tests for EventQueue: pop order, FIFO ties, counter monotonicity,
// and cancellation — all under randomized (but seeded, reproducible)
// workloads.  These lock in the ordering contract the slab/4-ary-heap
// implementation must honor so the simulator stays bit-for-bit
// deterministic (see tests/sim/determinism_test.cc for the end-to-end
// version of that claim).
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace vb::sim {
namespace {

TEST(EventQueueProperty, PopOrderEqualsSortedTimeSeqFor10kRandomEvents) {
  Rng rng(2024);
  EventQueue q;
  const int kEvents = 10000;
  // Draw times from a small discrete set so equal timestamps are common and
  // the seq tie-break actually gets exercised.
  std::vector<std::pair<double, std::uint64_t>> expected;
  std::vector<std::pair<double, std::uint64_t>> popped;
  expected.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    double t = 0.25 * static_cast<double>(rng.next_u64() % 64);
    std::uint64_t seq = q.total_pushed();
    q.push(t, [&popped, t, seq] { popped.emplace_back(t, seq); });
    expected.emplace_back(t, seq);
  }
  std::sort(expected.begin(), expected.end());
  while (!q.empty()) q.run_top();
  ASSERT_EQ(popped.size(), expected.size());
  EXPECT_EQ(popped, expected);
}

TEST(EventQueueProperty, FifoAmongEqualTimestampsUnderRandomInterleavings) {
  // Interleave pushes at a handful of timestamps with drains; within each
  // timestamp, events must come out in push order regardless of how the
  // pushes were interleaved with pops and with other timestamps.
  Rng rng(77);
  EventQueue q;
  std::map<double, std::vector<int>> out;  // time -> payload order popped
  std::map<double, int> next_payload;      // time -> next payload to push
  double drained_up_to = -1.0;  // highest time already popped
  int pushes_left = 5000;
  while (pushes_left > 0 || !q.empty()) {
    bool do_push = pushes_left > 0 && (q.empty() || rng.next_u64() % 3 != 0);
    if (do_push) {
      // Never push at a timestamp that has already been drained past, so
      // FIFO-within-timestamp stays well-defined.
      double base = q.empty() ? drained_up_to + 1.0 : q.next_time();
      double t = base + static_cast<double>(rng.next_u64() % 4);
      int payload = next_payload[t]++;
      q.push(t, [&out, t, payload] { out[t].push_back(payload); });
      --pushes_left;
    } else {
      drained_up_to = q.run_top();
    }
  }
  ASSERT_FALSE(out.empty());
  for (const auto& [t, order] : out) {
    for (int i = 0; i < static_cast<int>(order.size()); ++i) {
      EXPECT_EQ(order[static_cast<std::size_t>(i)], i)
          << "timestamp " << t << " violated FIFO";
    }
  }
}

TEST(EventQueueProperty, TotalPushedIsMonotoneAndCountsEveryPush) {
  Rng rng(5);
  EventQueue q;
  std::uint64_t pushes = 0;
  std::uint64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    switch (rng.next_u64() % 3) {
      case 0:
      case 1: {
        q.push(rng.uniform(0.0, 10.0), [] {});
        ++pushes;
        break;
      }
      default:
        if (!q.empty()) q.run_top();
        break;
    }
    EXPECT_GE(q.total_pushed(), last);  // never decreases, even on pop
    last = q.total_pushed();
    EXPECT_EQ(q.total_pushed(), pushes);
  }
}

TEST(EventQueueProperty, RandomCancellationMatchesReferenceModel) {
  // Push N events, cancel a random subset, and check the drain against a
  // reference model.  Exercises ticket validity, double-cancel, pending(),
  // and the lazy heap pruning around cancelled tops.
  Rng rng(99);
  EventQueue q;
  const int kEvents = 4000;
  struct Ref {
    double time;
    std::uint64_t seq;
    EventId id;
    bool cancelled = false;
  };
  std::vector<Ref> refs;
  std::vector<std::uint64_t> fired;
  refs.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    double t = 0.5 * static_cast<double>(rng.next_u64() % 32);
    std::uint64_t seq = q.total_pushed();
    EventId id = q.push(t, [&fired, seq] { fired.push_back(seq); });
    EXPECT_NE(id, kInvalidEventId);
    refs.push_back(Ref{t, seq, id});
  }
  std::uint64_t want_cancelled = 0;
  for (Ref& r : refs) {
    if (rng.next_u64() % 4 == 0) {
      EXPECT_TRUE(q.pending(r.id));
      EXPECT_TRUE(q.cancel(r.id));
      EXPECT_FALSE(q.pending(r.id));
      EXPECT_FALSE(q.cancel(r.id)) << "double cancel must report failure";
      r.cancelled = true;
      ++want_cancelled;
    }
  }
  EXPECT_EQ(q.total_cancelled(), want_cancelled);
  EXPECT_EQ(q.size(), refs.size() - want_cancelled);

  std::vector<std::uint64_t> expected;
  {
    std::vector<Ref> alive;
    for (const Ref& r : refs) {
      if (!r.cancelled) alive.push_back(r);
    }
    std::sort(alive.begin(), alive.end(), [](const Ref& a, const Ref& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    });
    for (const Ref& r : alive) expected.push_back(r.seq);
  }
  while (!q.empty()) q.run_top();
  EXPECT_EQ(fired, expected);
  for (const Ref& r : refs) {
    EXPECT_FALSE(q.pending(r.id)) << "ticket live after drain";
    EXPECT_FALSE(q.cancel(r.id)) << "cancel after fire must report failure";
  }
}

TEST(EventQueueProperty, CancellingEveryCurrentMinimumStillDrainsInOrder) {
  // Repeatedly cancel the earliest pending event; the queue must keep
  // reporting the next live minimum (lazy pruning never exposes a cancelled
  // event through next_time / run_top).
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.push(static_cast<double>(i), [&fired, i] {
      fired.push_back(i);
    }));
  }
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  int expect = 1;
  while (!q.empty()) {
    EXPECT_DOUBLE_EQ(q.next_time(), static_cast<double>(expect));
    q.run_top();
    expect += 2;
  }
  EXPECT_EQ(fired.size(), 50u);
}

TEST(EventQueueProperty, PopAndRunTopProduceIdenticalOrder) {
  // pop() (hand the callback out) and run_top() (execute in place) must
  // agree on ordering for the same workload.
  auto build = [](EventQueue& q, std::vector<int>& order) {
    Rng rng(31337);
    for (int i = 0; i < 3000; ++i) {
      double t = static_cast<double>(rng.next_u64() % 16);
      q.push(t, [&order, i] { order.push_back(i); });
    }
  };
  EventQueue a;
  EventQueue b;
  std::vector<int> order_a;
  std::vector<int> order_b;
  build(a, order_a);
  build(b, order_b);
  while (!a.empty()) a.pop().action();
  while (!b.empty()) b.run_top();
  EXPECT_EQ(order_a, order_b);
}

TEST(EventQueueProperty, CallbackMayCancelOtherPendingEvents) {
  // Cancellation from inside a running callback (the Scribe-heartbeat
  // pattern: an event invalidates a peer's pending timeout).
  EventQueue q;
  std::vector<int> fired;
  EventId victim = q.push(2.0, [&fired] { fired.push_back(2); });
  q.push(1.0, [&fired, &q, victim] {
    fired.push_back(1);
    EXPECT_TRUE(q.cancel(victim));
  });
  q.push(3.0, [&fired] { fired.push_back(3); });
  while (!q.empty()) q.run_top();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueProperty, WideningKeepsOverflowKeysInTimeOrder) {
  // A fat bucket at t=100 after the long gap from t=1 widens the buckets.
  // t=101 sat in the overflow heap and now falls inside the widened current
  // bucket; t=102, pushed by a t=100 event after the widening, lands there
  // too.  Both must run in time order.
  EventQueue q;
  std::vector<double> ran;
  for (int i = 0; i < 100; ++i) q.push(1.0, [&ran] { ran.push_back(1.0); });
  for (int i = 0; i < 100; ++i) {
    q.push(100.0, [&ran, &q, i] {
      ran.push_back(100.0);
      if (i == 0) q.push(102.0, [&ran] { ran.push_back(102.0); });
    });
  }
  q.push(101.0, [&ran] { ran.push_back(101.0); });
  while (!q.empty()) q.run_top();
  ASSERT_EQ(ran.size(), 202u);
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
}

TEST(EventQueueProperty, RandomBurstsAfterIdleGapsDrainInTimeOrder) {
  // The repro above, randomized: clusters of equal-time events after idle
  // gaps (fat buckets that widen the width), stragglers a few seconds behind
  // each cluster (waiting in the overflow heap), and cluster events that
  // schedule follow-ups into the same few seconds after the widening.
  Rng rng(31);
  EventQueue q;
  std::vector<std::pair<double, std::uint64_t>> ran;
  auto record = [&ran, &q](double t) {
    const std::uint64_t seq = q.total_pushed();
    return [&ran, t, seq] { ran.emplace_back(t, seq); };
  };
  double t = 1.0;
  for (int burst = 0; burst < 30; ++burst) {
    t += rng.uniform(20.0, 400.0);
    const int cluster = 65 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < cluster; ++i) {
      const std::uint64_t seq = q.total_pushed();
      const double follow = t + rng.uniform(0.0, 6.0);
      const bool spawns = rng.chance(0.1);
      q.push(t, [&ran, &q, &record, t, seq, follow, spawns] {
        ran.emplace_back(t, seq);
        if (spawns) q.push(follow, record(follow));
      });
    }
    for (int i = 0, n = 1 + static_cast<int>(rng.next_below(5)); i < n; ++i) {
      const double u = t + rng.uniform(0.0, 6.0);
      q.push(u, record(u));
    }
  }
  while (!q.empty()) q.run_top();
  ASSERT_GT(ran.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
}

TEST(SimulatorCancellation, CancelStopsAOneShotEvent) {
  Simulator s;
  int fired = 0;
  EventId id = s.schedule_in(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  s.run_to_completion();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.events_cancelled(), 1u);
}

TEST(SimulatorCancellation, CancelPeriodicStopsFutureFires) {
  Simulator s;
  int count = 0;
  auto h = s.schedule_periodic(0.0, 1.0, [&] {
    ++count;
    return true;
  });
  s.run_until(2.5);  // fires at 0, 1, 2
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(s.cancel_periodic(h));
  EXPECT_FALSE(s.cancel_periodic(h)) << "handle must die with the task";
  s.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorCancellation, PeriodicMayCancelItselfFromInsideItsAction) {
  Simulator s;
  int count = 0;
  Simulator::PeriodicHandle h;
  h = s.schedule_periodic(0.0, 1.0, [&] {
    ++count;
    if (count == 2) {
      EXPECT_TRUE(s.cancel_periodic(h));
    }
    return true;  // return value is moot once cancelled
  });
  s.run_until(50.0);
  EXPECT_EQ(count, 2);
}

TEST(SimulatorCancellation, DefaultHandleIsInvalidAndRejected) {
  Simulator s;
  Simulator::PeriodicHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(s.cancel_periodic(h));
}

}  // namespace
}  // namespace vb::sim
