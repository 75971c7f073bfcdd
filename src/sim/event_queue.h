// Calendar-wheel event scheduler with O(1) amortized insertion and pop,
// O(1) cancellation, and an O(1) in-place re-arm. Events at the same
// timestamp fire in insertion order, which makes simulation runs fully
// deterministic for a given seed.
//
// Structure: virtual time is cut into fixed-width buckets (16.4 us — the
// scale of MAC slots and inter-frame spaces). The wheel holds the kBuckets
// consecutive buckets starting at the drain cursor; the window slides with
// the cursor, so any event less than one full span (16.8 ms) ahead files
// straight into its bucket. Entries are 16-byte PODs (time, packed
// seq+slot) appended unsorted to their bucket; a bucket is sorted by
// (time, seq) once, when the cursor reaches it, so ordering costs
// O(n log b) over tiny contiguous runs instead of a binary heap's
// cache-hostile sift per operation. Events a full span or more ahead wait
// in an unsorted overflow list. They migrate wheel-ward with half-span
// hysteresis: only when the next bucket to drain comes within half a span
// of the earliest overflow entry, and then everything inside the new
// window moves at once. A wheel that empties jumps straight to the
// earliest overflow bucket, so long idle stretches (sleeping networks)
// cost one migration, and an occupancy bitmap skips empty buckets in
// O(1). The pop sequence is the total order (time, seq) regardless of
// bucket geometry — determinism never depends on the wheel parameters.
//
// Every pending event has exactly one wheel entry, and its slot records
// where that entry sits (bucket, index). cancel() and rearm() remove it at
// once — swap-remove in unsorted buckets and the overflow list, an
// ordered erase in the sorted cursor bucket — so nothing dead is ever
// sorted, migrated, or skimmed. rearm() retimes a pending event without
// releasing its slot or touching its callback: the entry takes a fresh
// seq and is refiled, which is exactly what cancel+push would have
// produced minus the callback churn.
//
// Callbacks live in a slot table indexed directly by the high half of the
// EventId, split into a 12-byte location record and a 64-byte
// InlineCallback (touched on push and pop only). push() constructs the
// callable in its slot's InlineCallback in place, and never touches the
// heap allocator; with reserve() sized to the expected event population,
// steady-state push/pop is allocation-free. Slots are recycled through a
// free list as soon as their event fires or is cancelled; a generation
// counter folded into the EventId makes stale cancels (of an already-fired
// or recycled id) harmless no-ops.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = InlineCallback;

  // Enqueues `f` (any callable InlineCallback accepts, or an
  // InlineCallback rvalue) to fire at `t`, constructing it directly in its
  // slot. Returns a handle usable with `cancel` and `rearm`.
  template <typename F>
  EventId push(util::Time t, F&& f) {
    const std::uint32_t slot = acquire_slot_();
    cbs_[slot].emplace(std::forward<F>(f));
    return file_new_(t, slot);
  }
  // Removes a pending event and frees its callback. Cancelling an unknown
  // or already-fired id is a harmless no-op.
  void cancel(EventId id);
  // Re-times a still-pending event, keeping its slot, callback, and id.
  // Returns false (a no-op) if `id` is stale — already fired, cancelled,
  // or recycled — in which case the caller pushes a fresh event.
  // Equivalent to cancel+push with the same callback: the new position
  // takes a fresh insertion sequence number, so same-timestamp FIFO
  // ordering is preserved bit-for-bit.
  bool rearm(EventId id, util::Time t);

  bool empty() const { return live_ == 0; }
  // Timestamp of the next event. Precondition: !empty().
  util::Time next_time() const;
  // Removes and returns the next event (the callback is moved out of its
  // slot, never copied). Precondition: !empty().
  std::pair<util::Time, Callback> pop();
  // Fused empty()/next_time()/pop() for the simulator's run loop: pops the
  // next event into (t, cb, id) iff its timestamp is <= `limit`. `id` is
  // the popped event's handle (the same value push() returned), so tracing
  // can correlate pops with pushes.
  bool pop_until(util::Time limit, util::Time& t, Callback& cb, EventId& id);

  std::size_t size() const { return live_; }
  // High-water mark of pending events — the event population a harness
  // should reserve() for on the next comparable run.
  std::size_t peak_live() const { return peak_live_; }

  // Pre-sizes the slot table, free list, overflow list, and wheel-bucket
  // capacities for `expected_events` concurrently-live events, so
  // steady-state operation never reallocates.
  void reserve(std::size_t expected_events);

  // Snapshot hook: serializes the live-event digest — every pending
  // (time, seq) pair in pop order, plus the sequence counter and live/peak
  // counts. Callbacks are code, not data; restore replays the scenario to
  // the snapshot barrier (rebuilding identical callbacks along the way) and
  // this digest is what the attestation byte-compares. Wheel geometry
  // (bucket cursors, free lists) is excluded: the digest plus next_seq_
  // fully determines all future pop ordering.
  void save_state(snap::Serializer& out) const;

 private:
  // 16-byte wheel entry: the slot index rides in the low bits of the seq
  // word (seq is unique, so comparing the packed word IS comparing seq),
  // which keeps bucket sorts and migrations pure 16-byte POD shuffles.
  struct Entry {
    util::Time time;
    std::uint64_t seq_slot = 0;

    static constexpr int kSlotBits = 24;  // 16.7M concurrent events
    static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
    static Entry make(util::Time t, std::uint64_t seq, std::uint32_t slot) {
      return Entry{t, seq << kSlotBits | slot};
    }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
    std::uint64_t seq() const { return seq_slot >> kSlotBits; }
    // Fires strictly before `other`. (time, seq) is a total order — seq is
    // unique — so the pop sequence is independent of the wheel's internal
    // layout; determinism never depends on the bucket geometry.
    bool before(const Entry& other) const {
      if (time != other.time) return time < other.time;
      return seq_slot < other.seq_slot;
    }
  };

  // --- Calendar wheel geometry -------------------------------------------
  // 16.4 us buckets; 1024 of them span 16.8 ms — wide enough that MAC
  // timing (slots, SIFS/DIFS, backoff, ACK timeouts) stays in-wheel and
  // only second-scale protocol timers take the overflow path.
  static constexpr int kBucketShift = 14;  // bucket width = 2^14 ns
  static constexpr std::size_t kBucketsLog2 = 10;
  static constexpr std::size_t kBuckets = 1u << kBucketsLog2;
  static constexpr std::int64_t kSpan = static_cast<std::int64_t>(kBuckets);
  static constexpr std::size_t kBitmapWords = kBuckets / 64;
  static constexpr std::int64_t kNoBucket =
      std::numeric_limits<std::int64_t>::max();

  // Where a slot's entry lives: a wheel bucket (0..kBuckets-1), the
  // overflow list, or nowhere (the slot is free).
  static constexpr std::uint32_t kFar = kBuckets;
  static constexpr std::uint32_t kFree = kBuckets + 1;
  struct SlotMeta {
    std::uint32_t generation = 0;
    std::uint32_t list = kFree;
    std::uint32_t index = 0;  // position of the entry within `list`
  };

  // EventId layout: (slot + 1) in the high 32 bits, generation in the low
  // 32. The +1 keeps every valid id distinct from kInvalidEventId.
  static EventId encode_(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) + 1) << 32 | generation;
  }
  // Slot of the pending event `id` names, or meta_.size() when `id` is
  // invalid, stale, or out of range.
  std::uint32_t pending_slot_(EventId id) const;

  // Global bucket index of `t` (negative times clamp to bucket 0; the
  // simulator never schedules in the past, this only guards raw users).
  static std::int64_t bucket_of_(util::Time t) {
    return (t.ns() < 0 ? 0 : t.ns()) >> kBucketShift;
  }
  std::uint32_t cur_slot_() const {
    return static_cast<std::uint32_t>(cur_g_) & (kBuckets - 1);
  }
  std::vector<Entry>& list_(std::uint32_t list) const {
    return list == kFar ? far_ : buckets_[list];
  }

  std::uint32_t acquire_slot_() {
    if (free_slots_.empty()) {
      meta_.emplace_back();
      cbs_.emplace_back();
      return static_cast<std::uint32_t>(meta_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Next insertion seq; Entry packs it into 64 - kSlotBits bits.
  std::uint64_t take_seq_() {
    assert(next_seq_ < (1ull << (64 - Entry::kSlotBits)) &&
           "event seq space exhausted (~1.1e12 pushes per queue)");
    return next_seq_++;
  }
  // Files a freshly pushed slot's entry; returns its EventId.
  EventId file_new_(util::Time t, std::uint32_t slot);
  void release_slot_(std::uint32_t slot);

  // Files an entry into the cursor bucket (times at or behind the cursor,
  // kept sorted), its wheel bucket, or the overflow list.
  void file_(Entry e);
  // Appends `e` to an unsorted list (wheel bucket or overflow).
  void append_(std::uint32_t list, Entry e) const;
  // Removes `slot`'s entry from wherever it sits.
  void unlink_(std::uint32_t slot);
  // Moves every overflow entry inside the window starting at global
  // bucket `base` into the wheel and recomputes far_min_g_.
  void migrate_(std::int64_t base) const;
  void bitmap_set_(std::size_t slot) const {
    occupancy_[slot >> 6] |= 1ull << (slot & 63);
  }
  void bitmap_clear_(std::size_t slot) const {
    occupancy_[slot >> 6] &= ~(1ull << (slot & 63));
  }
  // First occupied bucket at position >= from, or kBuckets when none.
  std::size_t bitmap_find_from_(std::size_t from) const;
  // Global index of the first occupied wheel bucket after the cursor, or
  // kNoBucket.
  std::int64_t next_wheel_bucket_() const;
  // Advances the drain cursor to the next entry, sorting its bucket on
  // arrival and migrating overflow entries as the window slides.
  // Precondition: live_ > 0.
  void ensure_head_() const;
  // Pops the head entry (ensure_head_ has run) and frees its slot; the
  // callback moves into `cb`.
  Entry take_head_(Callback& cb);

  mutable std::vector<std::vector<Entry>> buckets_{kBuckets};
  mutable std::uint64_t occupancy_[kBitmapWords] = {};
  mutable std::vector<Entry> far_;  // entries a full span or more ahead
  // Lower bound on the global bucket of every overflow entry, kNoBucket
  // while the list is empty. Exact after each migration; a cancel or rearm
  // that leaves the list non-empty may leave it below the true minimum, but
  // never behind the cursor.
  mutable std::int64_t far_min_g_ = kNoBucket;
  mutable std::int64_t cur_g_ = 0;  // global bucket index being drained
  // The cursor bucket is sorted by (time, seq) from drain_ onward; the
  // entries before drain_ have fired.
  mutable std::size_t drain_ = 0;
  mutable std::vector<SlotMeta> meta_;
  std::vector<Callback> cbs_;  // parallel to meta_
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace essat::sim
