// Cancellable one-shot timer with RAII semantics: destroying (or re-arming)
// a Timer cancels any pending callback, so dangling fires are impossible as
// long as the Timer outlives its owner’s interest in the event.
//
// Hot-path shape: the queue slot holds only a thin [this] thunk; the user
// callback lives in the Timer itself (cb_), constructed there in place by
// arm_at/arm_in. Re-arming an armed Timer takes the EventQueue::rearm fast
// path — the slot, its thunk, and the EventId are reused; only the wheel
// entry moves — instead of cancel+push. Arm times in the past are clamped
// to now() (debug-asserted), so a stale re-arm can never fire out of order.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/sim/simulator.h"

namespace essat::sim {

class Timer {
 public:
  using Callback = Simulator::Callback;

  explicit Timer(Simulator& sim) : sim_{&sim} {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&& other) noexcept;
  Timer& operator=(Timer&& other) noexcept;

  // (Re)arms the timer to fire `f` at absolute time `t` (clamped to now()).
  // A pending arm is retimed in place; its queued slot is reused.
  template <typename F>
  void arm_at(util::Time t, F&& f) {
    // Guard against scheduling in the past: a re-arm computed from stale
    // state (e.g. a NAV that already expired) must not fire before events
    // already popped for `now`. Clamping matches Simulator::schedule_at;
    // the assert surfaces genuinely buggy callers in debug builds without
    // changing release behavior.
    assert(t >= sim_->now() && "Timer armed in the past; clamping to now()");
    fire_time_ = std::max(t, sim_->now());
    cb_.emplace(std::forward<F>(f));
    schedule_();
  }
  template <typename F>
  void arm_in(util::Time delay, F&& f) {
    arm_at(sim_->now() + delay, std::forward<F>(f));
  }
  // Inline: the MAC cancels timers on nearly every state transition, most
  // of them already-disarmed no-ops that must cost two branches, not a
  // cross-TU call.
  void cancel() {
    if (id_ != kInvalidEventId) {
      sim_->cancel(id_);
      id_ = kInvalidEventId;
    }
    cb_ = nullptr;  // free the capture eagerly, as the old closure-owning arm did
  }

  bool armed() const { return id_ != kInvalidEventId; }
  // Absolute fire time of the pending arm; meaningful only when armed().
  util::Time fire_time() const { return fire_time_; }

 private:
  // Queues the armed fire: a pending arm keeps its queue slot (and the
  // [this] thunk in it) and is only re-timed. Bit-for-bit identical
  // ordering to cancel+push — the re-timed entry takes a fresh insertion
  // seq either way.
  void schedule_();
  void fire_();

  Simulator* sim_;
  EventId id_ = kInvalidEventId;
  util::Time fire_time_ = util::Time::zero();
  Callback cb_;
};

}  // namespace essat::sim
