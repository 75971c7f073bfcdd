#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"
#include "src/util/rng.h"

namespace essat::sim {
namespace {

using util::Time;

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(Time::seconds(3), [&] { fired.push_back(3); });
  q.push(Time::seconds(1), [&] { fired.push_back(1); });
  q.push(Time::seconds(2), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(Time::seconds(1), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSuppressesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(Time::seconds(1), [&] { fired = true; });
  q.push(Time::seconds(2), [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), Time::seconds(2));
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.push(Time::seconds(1), [] {});
  q.cancel(999999);
  q.cancel(kInvalidEventId);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EmptyAfterAllCancelled) {
  EventQueue q;
  const EventId a = q.push(Time::seconds(1), [] {});
  const EventId b = q.push(Time::seconds(2), [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// The slot-indexed queue recycles slots through a free list with a
// generation counter: a handle from a fired/cancelled event must never
// cancel the event that later reuses its slot.
TEST(EventQueue, StaleHandleCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId a = q.push(Time::seconds(1), [] {});
  q.pop().second();            // slot of `a` is released...
  bool fired = false;
  q.push(Time::seconds(2), [&] { fired = true; });  // ...and likely reused
  q.cancel(a);                 // stale handle: must be a no-op
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelChurnKeepsOrderAndCount) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push(Time::milliseconds((i * 37) % 500), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 500u);
  Time last = Time::min();
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, last);
    last = t;
    ++popped;
  }
  EXPECT_EQ(popped, 500u);
  // Double-cancel and cancel-after-fire are no-ops.
  for (EventId id : ids) q.cancel(id);
  EXPECT_EQ(q.size(), 0u);
}

// rearm() must behave exactly like cancel+push with the same callback: the
// retimed event keeps its id, fires at the new time, and takes a fresh
// same-timestamp FIFO position.
TEST(EventQueue, RearmRetimesWithoutNewId) {
  EventQueue q;
  std::vector<int> fired;
  const EventId id = q.push(Time::seconds(1), [&] { fired.push_back(1); });
  EXPECT_TRUE(q.rearm(id, Time::seconds(3)));
  q.push(Time::seconds(2), [&] { fired.push_back(2); });
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RearmKeepsSameTimestampFifoOrder) {
  // a is re-armed to the same time as b AFTER b was pushed: like
  // cancel+push, a must now fire after b.
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.push(Time::seconds(1), [&] { fired.push_back(1); });
  q.push(Time::seconds(1), [&] { fired.push_back(2); });
  EXPECT_TRUE(q.rearm(a, Time::seconds(1)));
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RearmedEventCanStillBeCancelled) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(Time::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(q.rearm(id, Time::seconds(5)));
  q.cancel(id);  // the original id stays valid across rearms
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, RearmStaleIdIsRejected) {
  EventQueue q;
  const EventId id = q.push(Time::seconds(1), [] {});
  q.pop().second();
  EXPECT_FALSE(q.rearm(id, Time::seconds(2)));  // already fired
  EXPECT_FALSE(q.rearm(kInvalidEventId, Time::seconds(2)));
  const EventId c = q.push(Time::seconds(1), [] {});
  q.cancel(c);
  EXPECT_FALSE(q.rearm(c, Time::seconds(2)));  // cancelled
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyRearmsLeaveNoResidue) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(Time::seconds(1), [&] { ++fired; });
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(q.rearm(id, Time::milliseconds(900 + i)));
  }
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PeakLiveTracksHighWaterMark) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(Time::seconds(i + 1), [] {});
  while (!q.empty()) q.pop().second();
  q.push(Time::seconds(1), [] {});
  EXPECT_EQ(q.peak_live(), 10u);
}

TEST(EventQueue, ReserveDoesNotDisturbBehavior) {
  EventQueue q;
  q.reserve(1024);
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    q.push(Time::milliseconds((i * 37) % 50), [&fired, i] { fired.push_back(i); });
  }
  std::size_t popped = 0;
  Time last = Time::min();
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, last);
    last = t;
    cb();
    ++popped;
  }
  EXPECT_EQ(popped, 100u);
}

// Randomized A/B against a reference model (sorted (time, seq) list with
// the same cancel/rearm semantics): the calendar-wheel queue must pop the
// exact same sequence for arbitrary interleavings of push, cancel, rearm,
// and pop across bucket and epoch boundaries.
TEST(EventQueue, MatchesReferenceModelOnRandomOps) {
  struct RefEvent {
    std::int64_t time_ns;
    std::uint64_t seq;
    int tag;
  };
  util::Rng rng{1234};
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue q;
    std::vector<RefEvent> ref;  // live reference events
    std::vector<std::pair<EventId, int>> handles;
    std::uint64_t ref_seq = 0;
    std::vector<int> got, want;
    int next_tag = 0;
    std::int64_t now_ns = 0;

    auto ref_pop_min = [&]() -> int {
      std::size_t best = 0;
      for (std::size_t i = 1; i < ref.size(); ++i) {
        if (ref[i].time_ns < ref[best].time_ns ||
            (ref[i].time_ns == ref[best].time_ns &&
             ref[i].seq < ref[best].seq)) {
          best = i;
        }
      }
      const RefEvent e = ref[best];
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(best));
      return e.tag;
    };

    for (int op = 0; op < 400; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      if (kind <= 4 || ref.empty()) {
        // Push at a time spread across buckets and epochs (0..200 ms),
        // never in the past.
        const std::int64_t t =
            now_ns + rng.uniform_int(0, 200'000'000);
        const int tag = next_tag++;
        const EventId id =
            q.push(Time::nanoseconds(t), [tag, &got] { got.push_back(tag); });
        ref.push_back(RefEvent{t, ref_seq++, tag});
        handles.emplace_back(id, tag);
      } else if (kind <= 6) {
        // Cancel a random (possibly stale) handle.
        const auto& [id, tag] =
            handles[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(handles.size()) - 1))];
        q.cancel(id);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          if (ref[i].tag == tag) {
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      } else if (kind == 7) {
        // Rearm a random handle; mirrors cancel+push with a fresh seq.
        const auto& [id, tag] =
            handles[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(handles.size()) - 1))];
        const std::int64_t t =
            now_ns + rng.uniform_int(0, 200'000'000);
        if (q.rearm(id, Time::nanoseconds(t))) {
          for (auto& e : ref) {
            if (e.tag == tag) {
              e.time_ns = t;
              e.seq = ref_seq;
              break;
            }
          }
          ++ref_seq;
        }
      } else {
        // Pop one event; virtual time advances to it.
        ASSERT_FALSE(q.empty());
        auto [t, cb] = q.pop();
        now_ns = t.ns();
        cb();
        want.push_back(ref_pop_min());
      }
    }
    while (!q.empty()) {
      q.pop().second();
      want.push_back(ref_pop_min());
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Wheel-geometry cases. The queue's buckets are 2^14 ns wide and its window
// spans 1024 of them; these tests aim at the edges of that geometry (window
// edge, overflow migration, empty-wheel jumps, removal from each kind of
// bucket) and check every pop against a reference model of the (time, seq)
// order.

constexpr std::int64_t kBucketNs = std::int64_t{1} << 14;
constexpr std::int64_t kSpanNs = 1024 * kBucketNs;

// EventQueue plus a reference model: live (time, seq, tag) triples with the
// same cancel/rearm semantics. Every pop is checked against the model.
class CheckedQueue {
 public:
  int push(std::int64_t t_ns) {
    const int tag = static_cast<int>(ids_.size());
    ids_.push_back(
        q_.push(Time::nanoseconds(t_ns), [this, tag] { fired_ = tag; }));
    ref_.push_back(Ref{t_ns, seq_++, tag});
    return tag;
  }
  void cancel(int tag) {
    q_.cancel(ids_[static_cast<std::size_t>(tag)]);
    for (std::size_t i = 0; i < ref_.size(); ++i) {
      if (ref_[i].tag == tag) {
        ref_.erase(ref_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  // Returns whether the queue accepted the rearm (the tag was pending).
  bool rearm(int tag, std::int64_t t_ns) {
    const bool ok = q_.rearm(ids_[static_cast<std::size_t>(tag)],
                             Time::nanoseconds(t_ns));
    bool pending = false;
    for (Ref& r : ref_) {
      if (r.tag == tag) {
        r.time_ns = t_ns;
        r.seq = seq_;
        pending = true;
      }
    }
    if (pending) ++seq_;
    EXPECT_EQ(ok, pending) << "tag " << tag;
    return ok;
  }
  bool pending(int tag) const {
    for (const Ref& r : ref_) {
      if (r.tag == tag) return true;
    }
    return false;
  }
  // Pops one event and checks it is the model's minimum; returns its tag.
  int pop() {
    EXPECT_EQ(q_.size(), ref_.size());
    EXPECT_FALSE(q_.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < ref_.size(); ++i) {
      if (ref_[i].time_ns < ref_[best].time_ns ||
          (ref_[i].time_ns == ref_[best].time_ns &&
           ref_[i].seq < ref_[best].seq)) {
        best = i;
      }
    }
    const Ref want = ref_[best];
    ref_.erase(ref_.begin() + static_cast<std::ptrdiff_t>(best));
    EXPECT_EQ(q_.next_time(), Time::nanoseconds(want.time_ns));
    auto [t, cb] = q_.pop();
    cb();
    EXPECT_EQ(t.ns(), want.time_ns);
    EXPECT_EQ(fired_, want.tag);
    now_ns_ = t.ns();
    return fired_;
  }
  // Pops everything; returns the tags in pop order.
  std::vector<int> drain() {
    std::vector<int> tags;
    while (!ref_.empty()) tags.push_back(pop());
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(q_.size(), 0u);
    return tags;
  }
  std::int64_t now_ns() const { return now_ns_; }
  std::size_t live() const { return ref_.size(); }

 private:
  struct Ref {
    std::int64_t time_ns;
    std::uint64_t seq;
    int tag;
  };
  EventQueue q_;
  std::vector<EventId> ids_;
  std::vector<Ref> ref_;
  std::uint64_t seq_ = 0;
  int fired_ = -1;
  std::int64_t now_ns_ = 0;
};

TEST(EventQueueWheel, WindowEdgeEventsFireInOrder) {
  CheckedQueue q;
  // Park the drain cursor mid-way into bucket 5.
  const std::int64_t cur = 5 * kBucketNs;
  q.push(cur + 100);
  q.pop();
  // Buckets cur+1023 (last in-window), cur+1024 and cur+1025 (overflow),
  // at their first and last nanoseconds, pushed far-first.
  const std::int64_t edge = cur + kSpanNs;  // first ns of bucket cur+1024
  const std::int64_t times[] = {edge + kBucketNs,     edge + kBucketNs - 1,
                                edge,                 edge - 1,
                                edge - kBucketNs,     edge + 2 * kBucketNs - 1,
                                edge,                 edge - 1};
  for (const std::int64_t t : times) q.push(t);
  const std::vector<int> order = q.drain();
  // Same-timestamp pairs keep push order: tag 3 (edge) before 7, 4 before 8.
  EXPECT_EQ(order, (std::vector<int>{5, 4, 8, 3, 7, 2, 1, 6}));
}

TEST(EventQueueWheel, OverflowMigratesAsTheWindowSlides) {
  CheckedQueue q;
  // Overflow entries spread over six spans, at quarter-span steps.
  for (int k = 4; k < 24; ++k) q.push(k * kSpanNs / 4 + 7 * k);
  // Two near-term chains walk the cursor forward, each pop pushing one
  // in-window event, so the window slides across every overflow entry and
  // each migrates while the wheel is still busy.
  q.push(1'000'000);
  q.push(250'000);
  for (int step = 0; q.now_ns() < 6 * kSpanNs; ++step) {
    q.pop();
    const std::int64_t now = q.now_ns();
    q.push(step % 2 == 0 ? now + 1'000'000
                         : now + 250'000 + (now % 7) * kBucketNs);
  }
  q.drain();
}

TEST(EventQueueWheel, EmptyWheelJumpsMultiSecondGaps) {
  CheckedQueue q;
  q.push(1'000'000);
  q.pop();
  // Nothing in the wheel: each pop must jump straight to the next far
  // event, seconds away, and land on its exact bucket.
  q.push(5'000'000'000);
  q.push(12'700'000'003);
  q.push(5'000'003'000);
  q.push(5'000'000'000);
  EXPECT_EQ(q.pop(), 1);
  // Behind-the-head push after the jump: files into the cursor bucket.
  q.push(5'000'000'000);
  EXPECT_EQ(q.drain(), (std::vector<int>{4, 5, 3, 2}));
  // A gap after the queue emptied completely.
  q.push(40'000'000'000);
  q.push(39'999'999'999);
  EXPECT_EQ(q.drain(), (std::vector<int>{7, 6}));
}

TEST(EventQueueWheel, CancelAndRearmInTheSortedCursorBucket) {
  CheckedQueue q;
  const std::int64_t base = 9 * kBucketNs;
  for (int i = 0; i < 8; ++i) q.push(base + 10 * (8 - i));  // one bucket
  q.push(base + 200);
  EXPECT_EQ(q.pop(), 7);  // the cursor is now on the sorted bucket
  q.cancel(5);            // middle of the sorted run
  q.cancel(0);            // its tail
  q.cancel(6);            // its new head
  q.rearm(1, base + 75);  // moves later within the cursor bucket
  q.rearm(3, base + 65);  // ...past its neighbour
  q.rearm(4, base + 15);  // moves to the front, behind the popped head
  q.rearm(8, base + 3 * kBucketNs);  // leaves the cursor bucket
  q.rearm(1, base + 2 * kSpanNs);    // leaves for the overflow list
  q.push(base + 60);                 // ties an existing time: FIFO after it
  q.drain();
}

TEST(EventQueueWheel, CancelAndRearmInAnUnsortedBucket) {
  CheckedQueue q;
  const std::int64_t b = 300 * kBucketNs;  // a future bucket
  for (int i = 0; i < 6; ++i) q.push(b + 100 * (i % 3) + i);
  q.cancel(2);                  // swap-remove from the middle
  q.cancel(5);                  // the last entry
  q.rearm(0, b + 5000);         // retime within the same bucket
  q.rearm(1, b + kBucketNs);    // to the next bucket
  q.rearm(3, 2 * kBucketNs);    // to an earlier bucket
  q.rearm(4, b + 2 * kSpanNs);  // to the overflow list
  q.cancel(3);
  q.push(b + 5000);             // ties tag 0's new time
  EXPECT_EQ(q.drain(), (std::vector<int>{0, 6, 1, 4}));
}

TEST(EventQueueWheel, CancelAndRearmInTheOverflowList) {
  CheckedQueue q;
  q.push(3 * kSpanNs);      // 0: overflow minimum
  q.push(5 * kSpanNs + 1);  // 1
  q.push(4 * kSpanNs);      // 2
  q.push(9 * kSpanNs);      // 3
  q.push(kBucketNs);        // 4: in-window
  q.cancel(0);              // cancel the overflow minimum
  q.rearm(1, 7 * kSpanNs);  // retime within the overflow list
  q.rearm(3, 20 * kBucketNs);  // overflow -> wheel
  q.rearm(4, 6 * kSpanNs);     // wheel -> overflow
  EXPECT_EQ(q.pop(), 3);
  // The overflow minimum (tag 0) was cancelled: the jump must still land
  // on the true minimum.
  EXPECT_EQ(q.pop(), 2);
  q.cancel(4);  // the new overflow minimum, after a migration
  EXPECT_EQ(q.drain(), (std::vector<int>{1}));
}

TEST(EventQueueWheel, SameTimestampFifoAcrossMigration) {
  CheckedQueue q;
  const std::int64_t t = 3 * kSpanNs / 2 + 12345;
  const int a = q.push(t);  // overflow
  // Walk the cursor until `t` is inside the window but not yet within the
  // migration distance, then push a twin that files straight into the
  // wheel while `a` still waits in the overflow list.
  q.push(0);
  q.pop();
  while (t - q.now_ns() >= kSpanNs * 7 / 10) {
    q.push(q.now_ns() + 200'000);
    q.pop();
  }
  const int b = q.push(t);
  const int c = q.push(t - 1);
  // Keep walking across the migration; the twins keep push order.
  while (q.now_ns() + 200'000 < t) {
    q.push(q.now_ns() + 200'000);
    q.pop();
  }
  const int d = q.push(t);  // after the migration
  EXPECT_EQ(q.drain(), (std::vector<int>{c, a, b, d}));
}

// Emptying the overflow list by cancel or rearm must forget its minimum:
// a stale bound left behind the cursor would pull the next jump backwards
// and misplace the wheel's base, popping wheel entries in slot order.
TEST(EventQueueWheel, EmptiedOverflowListForgetsItsMinimum) {
  for (const bool by_rearm : {false, true}) {
    SCOPED_TRACE(by_rearm ? "rearm" : "cancel");
    CheckedQueue q;
    // The only overflow entry sits in slot 900 of its span.
    const int far = q.push(2 * kSpanNs + 900 * kBucketNs);
    if (by_rearm) {
      q.rearm(far, 5 * kBucketNs);
      q.pop();
    } else {
      q.cancel(far);
    }
    // Walk the cursor past that bucket (global 2948) to about bucket 3080,
    // leaving nothing pending.
    while (q.now_ns() < 3080 * kBucketNs) {
      q.push(q.now_ns() + 200'000);
      q.pop();
    }
    const std::int64_t now = q.now_ns();
    const int e1 = q.push(now + 100'000);      // wheel slot below 900
    const int e2 = q.push(now + 15'000'000);   // wheel slot above 900
    const int t = q.push(now + 3'000'000'000);  // new overflow entry
    EXPECT_EQ(q.drain(), (std::vector<int>{e1, e2, t}));
  }
}

// A MAC-shaped random workload against the reference model: most pushes
// land 1 us - 5 ms ahead (slots, inter-frame spaces, backoffs), about a
// third of operations cancel a pending backoff, some re-arm, and now and
// then a second-scale protocol timer goes through the overflow list.
TEST(EventQueueWheel, MatchesReferenceModelOnMacShapedOps) {
  util::Rng rng{4321};
  for (int trial = 0; trial < 8; ++trial) {
    CheckedQueue q;
    std::vector<int> tags;
    for (int op = 0; op < 4000; ++op) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      const std::int64_t now = q.now_ns();
      if (roll < 35 && !tags.empty()) {
        q.cancel(tags[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(tags.size()) - 1))]);
      } else if (roll < 45 && !tags.empty()) {
        const int tag = tags[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(tags.size()) - 1))];
        if (q.pending(tag)) {
          q.rearm(tag, now + rng.uniform_int(1'000, 5'000'000));
        }
      } else if (roll < 47) {
        tags.push_back(
            q.push(now + rng.uniform_int(1'000'000'000, 3'000'000'000)));
      } else if (roll < 75 || q.live() == 0) {
        tags.push_back(q.push(now + rng.uniform_int(1'000, 5'000'000)));
      } else {
        q.pop();
      }
    }
    q.drain();
  }
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time::zero());
  std::vector<Time> seen;
  sim.schedule_at(Time::seconds(5), [&] { seen.push_back(sim.now()); });
  sim.schedule_at(Time::seconds(2), [&] { seen.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Time::seconds(2));
  EXPECT_EQ(seen[1], Time::seconds(5));
  EXPECT_EQ(sim.now(), Time::seconds(5));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired_at = Time::zero();
  sim.schedule_at(Time::seconds(1), [&] {
    sim.schedule_in(Time::seconds(2), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(3));
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator sim;
  Time fired_at = Time::min();
  sim.schedule_at(Time::seconds(5), [&] {
    sim.schedule_at(Time::seconds(1), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(5));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::seconds(1), [&] { ++fired; });
  sim.schedule_at(Time::seconds(2), [&] { ++fired; });
  sim.schedule_at(Time::seconds(3), [&] { ++fired; });
  sim.run_until(Time::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Time::seconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(sim.now(), Time::seconds(10));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(Time::seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(Time::seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(Time::seconds(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, StressManyEventsKeepOrder) {
  Simulator sim;
  Time last = Time::min();
  bool ordered = true;
  for (int i = 0; i < 10000; ++i) {
    const Time t = Time::milliseconds((i * 7919) % 10000);
    sim.schedule_at(t, [&, t] {
      if (sim.now() < last) ordered = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

TEST(Timer, FiresAtArmedTime) {
  Simulator sim;
  Timer timer{sim};
  Time fired_at = Time::min();
  timer.arm_at(Time::seconds(2), [&] { fired_at = sim.now(); });
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.fire_time(), Time::seconds(2));
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(2));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator sim;
  Timer timer{sim};
  int fired = 0;
  timer.arm_at(Time::seconds(1), [&] { fired = 1; });
  timer.arm_at(Time::seconds(2), [&] { fired = 2; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Timer, CancelPreventsFire) {
  Simulator sim;
  Timer timer{sim};
  bool fired = false;
  timer.arm_at(Time::seconds(1), [&] { fired = true; });
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, DestructionCancels) {
  Simulator sim;
  bool fired = false;
  {
    Timer timer{sim};
    timer.arm_at(Time::seconds(1), [&] { fired = true; });
  }
  sim.run();
  EXPECT_FALSE(fired);
}

// Arming with a stale (past) fire time clamps to now(): the callback runs
// at the current virtual time, never "before" events already executed. In
// debug builds the same call additionally trips an assert to surface the
// buggy caller (see the death test below).
TEST(Timer, PastArmClampsToNow) {
  Simulator sim;
  Timer timer{sim};
  Time fired_at = Time::min();
  sim.schedule_at(Time::seconds(5), [&] {
    // Arming exactly at now() is legal in every build mode.
    timer.arm_at(sim.now(), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(5));
}

TEST(TimerDeathTest, ArmStrictlyInPastAssertsInDebug) {
  EXPECT_DEBUG_DEATH(
      {
        Simulator sim;
        Timer timer{sim};
        sim.schedule_at(Time::seconds(5), [] {});
        sim.run();
        timer.arm_at(Time::seconds(1), [] {});  // 4 s in the past
        sim.run();
      },
      "Timer armed in the past");
}

TEST(Simulator, RearmClampsToNow) {
  // A Timer re-armed from inside an event with a stale target must fire at
  // now(), not violate the clock's monotonicity.
  Simulator sim;
  Timer timer{sim};
  Time fired_at = Time::min();
  timer.arm_at(Time::seconds(10), [&] { fired_at = sim.now(); });
  sim.schedule_at(Time::seconds(3), [&] {
    // Retime the pending arm to "now" (the earliest legal target).
    timer.arm_at(sim.now(), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, Time::seconds(3));
}

TEST(Timer, ArmInsideCallback) {
  Simulator sim;
  Timer timer{sim};
  std::vector<Time> fires;
  timer.arm_in(Time::seconds(1), [&] {
    fires.push_back(sim.now());
    timer.arm_in(Time::seconds(1), [&] { fires.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[1], Time::seconds(2));
}

}  // namespace
}  // namespace essat::sim
