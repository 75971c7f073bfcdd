// Discrete-event simulator: a virtual clock plus an event queue.
//
// All substrates (channel, MAC, radio, query service, Safe Sleep) schedule
// callbacks against one Simulator instance; there is no wall-clock anywhere
// in the library. Callbacks are sim::InlineCallback — captures live in a
// 48-byte in-object buffer, so scheduling never heap-allocates (see
// inline_callback.h for the SBO contract).
#pragma once

#include <algorithm>
#include <utility>

#include "src/obs/tracer.h"
#include "src/sim/event_queue.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  // Current virtual time. Starts at 0.
  util::Time now() const { return now_; }

  // Schedules `f` at absolute time `t` (clamped to `now()` if in the past).
  // The callable is forwarded straight into its queue slot (see
  // EventQueue::push).
  template <typename F>
  EventId schedule_at(util::Time t, F&& f) {
    const util::Time at = std::max(t, now_);
    const EventId id = queue_.push(at, std::forward<F>(f));
    ESSAT_TRACE(*this, obs::TraceType::kEvPush, -1, 0, id,
                static_cast<std::uint64_t>(at.ns()));
    return id;
  }
  // Schedules `f` after `delay` (clamped to 0 if negative).
  template <typename F>
  EventId schedule_in(util::Time delay, F&& f) {
    return schedule_at(now_ + std::max(delay, util::Time::zero()),
                       std::forward<F>(f));
  }
  void cancel(EventId id) {
    ESSAT_TRACE(*this, obs::TraceType::kEvCancel, -1, 0, id, 0);
    queue_.cancel(id);
  }
  // Re-times a pending event in place (see EventQueue::rearm); `t` is
  // clamped to `now()` so a stale re-arm can never fire in the past.
  bool rearm(EventId id, util::Time t);

  // Runs events until the queue empties or `stop()` is called.
  void run();
  // Runs events with timestamp <= `end`, then advances the clock to `end`.
  void run_until(util::Time end);
  // Stops the current run() / run_until() after the in-flight event returns.
  void stop() { stopped_ = true; }

  std::size_t pending_events() const { return queue_.size(); }
  // High-water mark of concurrently pending events over the whole run.
  std::size_t peak_pending_events() const { return queue_.peak_live(); }
  std::uint64_t executed_events() const { return executed_; }

  // Pre-sizes the event queue for the expected concurrently-live event
  // population so steady-state scheduling never reallocates.
  void reserve_events(std::size_t expected_events) {
    queue_.reserve(expected_events);
  }

  // The run's tracer, or nullptr (the default: tracing off). Installed by
  // the harness for the run's lifetime; every instrumented component reaches
  // it through its Simulator reference via ESSAT_TRACE.
  obs::Tracer* tracer() const { return tracer_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Snapshot hook: clock, executed-event count, and the queue's live-event
  // digest. The tracer is observability wiring, not simulation state.
  void save_state(snap::Serializer& out) const;

 private:
  util::Time now_ = util::Time::zero();
  EventQueue queue_;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace essat::sim
