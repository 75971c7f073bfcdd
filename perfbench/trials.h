// One trial, timed from outside the library: harness::run_scenario with a
// snap::TrialHookSpec pause at snap::capture_barrier splitting set-up from
// the run, the bench/alloc_hook.h counters read at entry, barrier and
// return, and optionally an obs::TraceSpec sink that copies the ring out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/harness/metrics.h"
#include "src/harness/scenario.h"
#include "src/obs/trace_record.h"

namespace perfbench {

namespace harness = essat::harness;
namespace obs = essat::obs;

struct TrialRun {
  harness::RunMetrics metrics;
  std::vector<std::uint8_t> bytes;  // snap::run_metrics_to_bytes(metrics)
  Clock::time_point begin;          // run_scenario entry (wall clock)
  Clock::time_point end;            // run_scenario return (wall clock)
  // Thread CPU seconds (thread_cpu_s) from entry to the capture barrier,
  // and from the barrier to return minus any trace sink's time.
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events_after_setup = 0;
  // Allocation counters relative to entry: bytes at the barrier, and
  // allocations at return.
  std::uint64_t setup_bytes = 0;
  std::uint64_t allocs = 0;

  double total_s() const { return setup_s + run_s; }
};

TrialRun timed_trial(const harness::ScenarioConfig& config);

// Trace-type masks of the two traced passes: the event-queue operations
// (replayed into a standalone queue) and every other record type.
constexpr std::uint64_t kQueueOpTypes =
    obs::trace_bit(obs::TraceType::kEvPush) |
    obs::trace_bit(obs::TraceType::kEvPop) |
    obs::trace_bit(obs::TraceType::kEvCancel) |
    obs::trace_bit(obs::TraceType::kEvRearm);
constexpr std::uint64_t kLayerTypes = obs::kAllTraceTypes & ~kQueueOpTypes;

struct TracedRun {
  TrialRun run;  // timings exclude the sink's copy of the ring
  std::vector<obs::TraceRecord> records;
  std::uint64_t emitted = 0;
  std::uint64_t overwritten = 0;
  int attempts = 0;  // runs made, doubling the ring until nothing overwrote
};

// Runs `config` traced with `type_mask`, starting from a ring that holds
// `expected_records` and doubling it (re-running the trial) while the ring
// overwrote records, up to 2^25 records.
TracedRun traced_trial(harness::ScenarioConfig config, std::uint64_t type_mask,
                       std::uint64_t expected_records);

// Why a traced run fails its checks, or "" when it passes: its RunMetrics
// must encode to `untraced` byte for byte, its ring must have overwritten
// nothing, and (when asked) its records must pass obs::check_conservation.
std::string traced_run_problem(const TracedRun& t,
                               const std::vector<std::uint8_t>& untraced,
                               bool check_conservation);

// snap::capture_trial of `config`, then snap::resume_trial of its
// snapshot, each checked byte for byte against `straight` (the plain run's
// RunMetrics encoding).
struct SnapshotRoundTrip {
  bool capture_ok = false;
  bool resume_ok = false;
  double bytes = 0.0;     // framed snapshot size
  double resume_s = 0.0;  // thread CPU seconds of resume_trial
};
SnapshotRoundTrip snapshot_round_trip(const harness::ScenarioConfig& config,
                                      const std::vector<std::uint8_t>& straight);

// Bytes requested from the global allocator by every thread so far
// (bench/alloc_hook.h).
std::uint64_t allocated_bytes();

// CPU seconds (user + system) of this process's children that have been
// waited for.
double children_cpu_s();

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
