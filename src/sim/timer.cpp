#include "src/sim/timer.h"

namespace essat::sim {

// Moving an armed Timer cancels the pending callback: the scheduled thunk
// captures the Timer's address, which a move invalidates. Arms are cheap, so
// owners re-arm after container reallocation if needed. In practice Timers
// are armed only after their owner reaches its final address.
Timer::Timer(Timer&& other) noexcept : sim_{other.sim_} { other.cancel(); }

Timer& Timer::operator=(Timer&& other) noexcept {
  if (this != &other) {
    cancel();
    sim_ = other.sim_;
    other.cancel();
  }
  return *this;
}

void Timer::schedule_() {
  if (id_ != kInvalidEventId && sim_->rearm(id_, fire_time_)) return;
  id_ = sim_->schedule_at(fire_time_, [this] { fire_(); });
}

void Timer::fire_() {
  id_ = kInvalidEventId;
  // Move the callback to the stack first: it may re-arm (or destroy) this
  // Timer, which overwrites (or frees) cb_.
  Callback cb = std::move(cb_);
  cb();
}

}  // namespace essat::sim
