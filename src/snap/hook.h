// Mid-run checkpoint hook for harness::run_scenario.
//
// The hook fires at a chosen sim time with the event loop paused between
// two run_until() calls — no event is injected, so a hooked run executes
// the exact event stream of an unhooked one (including the bookkeeping
// counters: sim_events, peak_pending_events). At the pause the hook may
//   * serialize the whole trial (snapshot capture / restore attestation),
//   * mutate the config fields that are not yet materialized — the
//     workload is drawn lazily at the setup boundary precisely so a forked
//     sweep child can change base_rate_hz / queries_per_class /
//     extra_queries here (query_start_window is already baked into the
//     measurement schedule and must stay fixed),
//   * set `stop` to abandon the run (the fork-sweep parent does this after
//     spawning its children; run_scenario then returns a default
//     RunMetrics the caller discards).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/util/time.h"

namespace essat::harness {
struct ScenarioConfig;
}  // namespace essat::harness

namespace essat::sim {
class Simulator;
}  // namespace essat::sim

namespace essat::snap {

struct TrialCheckpoint {
  sim::Simulator& sim;
  // The run's private config copy. Mutations to lazily-materialized fields
  // (see above) take effect; everything else has already been consumed.
  harness::ScenarioConfig& config;
  // Serializes every live component into a "TRST" section (the byte layout
  // the capture and attestation paths diff). It builds any node stack not
  // yet built, which the run cannot observe, and otherwise only reads;
  // callable any number of times, always producing identical bytes at a
  // given sim time.
  std::function<std::vector<std::uint8_t>()> serialize;
  // Set true to abandon the run after the hook returns.
  bool stop = false;
};

struct TrialHookSpec {
  bool enabled = false;
  // Pause time: the event loop runs to here (inclusive) before the hook.
  util::Time at;
  std::function<void(TrialCheckpoint&)> hook;
};

}  // namespace essat::snap
