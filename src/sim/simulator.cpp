#include "src/sim/simulator.h"

#include <algorithm>

#include "src/snap/serializer.h"

namespace essat::sim {

bool Simulator::rearm(EventId id, util::Time t) {
  const util::Time at = std::max(t, now_);
  const bool ok = queue_.rearm(id, at);
  if (ok) {
    ESSAT_TRACE(*this, obs::TraceType::kEvRearm, -1, 0, id,
                static_cast<std::uint64_t>(at.ns()));
  }
  return ok;
}

void Simulator::run() {
  stopped_ = false;
  util::Time t;
  Callback cb;
  EventId id = kInvalidEventId;
  while (!stopped_ && queue_.pop_until(util::Time::max(), t, cb, id)) {
    now_ = t;
    ++executed_;
    ESSAT_TRACE(*this, obs::TraceType::kEvPop, -1, 0, id, 0);
    cb();
    cb = nullptr;  // release the capture before the next pop overwrites it
  }
}

void Simulator::run_until(util::Time end) {
  stopped_ = false;
  util::Time t;
  Callback cb;
  EventId id = kInvalidEventId;
  while (!stopped_ && queue_.pop_until(end, t, cb, id)) {
    now_ = t;
    ++executed_;
    ESSAT_TRACE(*this, obs::TraceType::kEvPop, -1, 0, id, 0);
    cb();
    cb = nullptr;
  }
  if (!stopped_) now_ = std::max(now_, end);
}

void Simulator::save_state(snap::Serializer& out) const {
  out.begin("SIMU");
  out.time(now_);
  out.u64(executed_);
  queue_.save_state(out);
  out.end();
}

}  // namespace essat::sim
