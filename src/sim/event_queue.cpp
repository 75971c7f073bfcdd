#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>

#include "src/snap/serializer.h"

namespace essat::sim {

namespace {

constexpr auto kBefore = [](const auto& a, const auto& b) {
  return a.before(b);
};

}  // namespace

std::uint32_t EventQueue::pending_slot_(EventId id) const {
  const auto none = static_cast<std::uint32_t>(meta_.size());
  const std::uint64_t slot_plus_1 = id >> 32;
  if (slot_plus_1 == 0 || slot_plus_1 > meta_.size()) return none;
  const auto slot = static_cast<std::uint32_t>(slot_plus_1 - 1);
  // Only a pending event of the matching generation qualifies; a recycled
  // slot (different generation) or an already-fired id does not.
  const SlotMeta& s = meta_[slot];
  if (s.list == kFree || s.generation != static_cast<std::uint32_t>(id)) {
    return none;
  }
  return slot;
}

void EventQueue::append_(std::uint32_t list, Entry e) const {
  std::vector<Entry>& v = list_(list);
  SlotMeta& s = meta_[e.slot()];
  s.list = list;
  s.index = static_cast<std::uint32_t>(v.size());
  v.push_back(e);
  if (list != kFar) bitmap_set_(list);
}

void EventQueue::file_(Entry e) {
  const std::int64_t g = bucket_of_(e.time);
  if (g > cur_g_) {
    if (g - cur_g_ < kSpan) {
      append_(static_cast<std::uint32_t>(g) & (kBuckets - 1), e);
    } else {
      append_(kFar, e);
      far_min_g_ = std::min(far_min_g_, g);
    }
    return;
  }
  // At or behind the drain cursor: keep the cursor bucket's undrained tail
  // sorted so the entry fires in (time, seq) order. Fast path: most
  // cursor-bucket pushes (propagation-delay events a few microseconds out)
  // land at or past the bucket's current tail.
  const std::uint32_t cur = cur_slot_();
  std::vector<Entry>& b = buckets_[cur];
  if (b.size() == drain_ || !e.before(b.back())) {
    append_(cur, e);
    return;
  }
  const auto it = b.insert(
      std::upper_bound(b.begin() + static_cast<std::ptrdiff_t>(drain_),
                       b.end(), e, kBefore),
      e);
  meta_[e.slot()].list = cur;
  for (auto k = static_cast<std::size_t>(it - b.begin()); k < b.size(); ++k) {
    meta_[b[k].slot()].index = static_cast<std::uint32_t>(k);
  }
}

void EventQueue::unlink_(std::uint32_t slot) {
  const std::uint32_t list = meta_[slot].list;
  const std::size_t i = meta_[slot].index;
  std::vector<Entry>& v = list_(list);
  if (list == cur_slot_()) {
    // The cursor bucket is sorted: ordered erase, then re-index the tail.
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    for (std::size_t k = i; k < v.size(); ++k) {
      meta_[v[k].slot()].index = static_cast<std::uint32_t>(k);
    }
    return;
  }
  v[i] = v.back();
  meta_[v[i].slot()].index = static_cast<std::uint32_t>(i);
  v.pop_back();
  if (!v.empty()) return;
  if (list == kFar) {
    // Forget the bound: once the cursor slides past it, a stale one would
    // pull the next jump backwards.
    far_min_g_ = kNoBucket;
  } else {
    bitmap_clear_(list);
  }
}

void EventQueue::release_slot_(std::uint32_t slot) {
  SlotMeta& s = meta_[slot];
  s.list = kFree;
  ++s.generation;
  free_slots_.push_back(slot);
}

std::size_t EventQueue::bitmap_find_from_(std::size_t from) const {
  if (from >= kBuckets) return kBuckets;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupancy_[word] & (~0ull << (from & 63));
  for (;;) {
    if (bits != 0) {
      return (word << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
    }
    if (++word == kBitmapWords) return kBuckets;
    bits = occupancy_[word];
  }
}

std::int64_t EventQueue::next_wheel_bucket_() const {
  // The window is circular: buckets after the cursor's position come
  // first, then the wrapped-around ones before it.
  const std::size_t cur = cur_slot_();
  std::size_t s = bitmap_find_from_(cur + 1);
  if (s < kBuckets) return cur_g_ + static_cast<std::int64_t>(s - cur);
  s = bitmap_find_from_(0);
  if (s < cur) return cur_g_ + kSpan - static_cast<std::int64_t>(cur - s);
  return kNoBucket;
}

void EventQueue::migrate_(std::int64_t base) const {
  far_min_g_ = kNoBucket;
  for (std::size_t i = 0; i < far_.size();) {
    const Entry e = far_[i];
    const std::int64_t g = bucket_of_(e.time);
    if (g - base >= kSpan) {
      far_min_g_ = std::min(far_min_g_, g);
      ++i;
      continue;
    }
    far_[i] = far_.back();
    meta_[far_[i].slot()].index = static_cast<std::uint32_t>(i);
    far_.pop_back();
    append_(static_cast<std::uint32_t>(g) & (kBuckets - 1), e);
  }
}

void EventQueue::ensure_head_() const {
  assert(live_ > 0);
  for (;;) {
    std::vector<Entry>& b = buckets_[cur_slot_()];
    if (drain_ < b.size()) return;
    // Cursor bucket exhausted: recycle it (capacity is kept, so the wheel
    // stops allocating once warm) and slide to the next occupied bucket.
    b.clear();
    drain_ = 0;
    bitmap_clear_(cur_slot_());
    std::int64_t next = next_wheel_bucket_();
    // Pull overflow entries in once the earliest of them is within half a
    // span of the next head (or the wheel is empty). far_min_g_ may be a
    // stale lower bound; the cursor then lands on an empty bucket and the
    // next pass, with the bound recomputed, moves on.
    if (!far_.empty() && (next == kNoBucket || far_min_g_ - next < kSpan / 2)) {
      next = std::min(next, far_min_g_);
      migrate_(next);
    }
    assert(next > cur_g_ && "drain cursor moved backwards");
    cur_g_ = next;
    std::vector<Entry>& nb = buckets_[cur_slot_()];
    if (nb.size() > 1) {
      std::sort(nb.begin(), nb.end(), kBefore);
      for (std::size_t k = 0; k < nb.size(); ++k) {
        meta_[nb[k].slot()].index = static_cast<std::uint32_t>(k);
      }
    }
  }
}

void EventQueue::reserve(std::size_t expected_events) {
  meta_.reserve(expected_events);
  cbs_.reserve(expected_events);
  free_slots_.reserve(expected_events);
  far_.reserve(expected_events);
  // Seed every wheel bucket with a little capacity: bucket vectors keep
  // their storage as the window slides, so this one-time 64 KiB spend
  // makes the first pass over the wheel as allocation-free as every later
  // one (buckets only grow past it where the workload genuinely clusters,
  // and then stay grown).
  for (auto& b : buckets_) {
    if (b.capacity() < 4) b.reserve(4);
  }
}

EventId EventQueue::file_new_(util::Time t, std::uint32_t slot) {
  assert(slot <= Entry::kSlotMask && "live-event population exceeds 2^24");
  file_(Entry::make(t, take_seq_(), slot));
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  return encode_(slot, meta_[slot].generation);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = pending_slot_(id);
  if (slot == meta_.size()) return;
  unlink_(slot);
  cbs_[slot] = nullptr;  // free the closure eagerly
  release_slot_(slot);
  --live_;
}

bool EventQueue::rearm(EventId id, util::Time t) {
  const std::uint32_t slot = pending_slot_(id);
  if (slot == meta_.size()) return false;
  unlink_(slot);
  file_(Entry::make(t, take_seq_(), slot));
  return true;
}

util::Time EventQueue::next_time() const {
  ensure_head_();
  return buckets_[cur_slot_()][drain_].time;
}

EventQueue::Entry EventQueue::take_head_(Callback& cb) {
  const Entry top = buckets_[cur_slot_()][drain_++];
  // Moving out leaves the slot's callback null — no copy, no destructor
  // work beyond the moved-from shell.
  cb = std::move(cbs_[top.slot()]);
  release_slot_(top.slot());
  --live_;
  return top;
}

std::pair<util::Time, EventQueue::Callback> EventQueue::pop() {
  ensure_head_();
  Callback cb;
  const Entry top = take_head_(cb);
  return {top.time, std::move(cb)};
}

bool EventQueue::pop_until(util::Time limit, util::Time& t, Callback& cb,
                           EventId& id) {
  if (live_ == 0) return false;
  ensure_head_();
  const Entry& head = buckets_[cur_slot_()][drain_];
  if (head.time > limit) return false;
  id = encode_(head.slot(), meta_[head.slot()].generation);
  t = take_head_(cb).time;
  return true;
}

void EventQueue::save_state(snap::Serializer& out) const {
  // Every entry is live: the cursor bucket's undrained tail, every other
  // wheel bucket, and the overflow list.
  std::vector<Entry> live;
  live.reserve(live_);
  const std::vector<Entry>& cur = buckets_[cur_slot_()];
  live.insert(live.end(), cur.begin() + static_cast<std::ptrdiff_t>(drain_),
              cur.end());
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (i != cur_slot_()) {
      live.insert(live.end(), buckets_[i].begin(), buckets_[i].end());
    }
  }
  live.insert(live.end(), far_.begin(), far_.end());
  assert(live.size() == live_);
  // Pop order, independent of wheel geometry.
  std::sort(live.begin(), live.end(), kBefore);

  out.begin("EVTQ");
  out.u64(next_seq_);
  out.u64(live_);
  out.u64(peak_live_);
  for (const Entry& e : live) {
    out.time(e.time);
    out.u64(e.seq());
  }
  out.end();
}

}  // namespace essat::sim
