#include "perfbench/trials.h"

#include <sys/resource.h>

// The counting global operator new; exactly one translation unit of the
// driver includes it.
#include "bench/alloc_hook.h"
#include "src/obs/lifecycle.h"
#include "src/obs/tracer.h"
#include "src/sim/simulator.h"
#include "src/snap/hook.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/trial.h"

namespace perfbench {

namespace {

namespace bench_alloc = essat::bench_alloc;
namespace snap = essat::snap;

constexpr std::uint64_t kMaxRingRecords = 1ull << 25;

// Shared by the plain and traced paths; `sink_s` is the time a trace sink
// spent inside the run, taken out of the run timing.
TrialRun run_hooked(const harness::ScenarioConfig& config, const double& sink_s) {
  TrialRun r;
  double cpu_barrier = 0.0;
  std::uint64_t barrier_events = 0;
  std::uint64_t allocs0 = 0;
  std::uint64_t bytes0 = 0;
  snap::TrialHookSpec hook;
  hook.enabled = true;
  hook.at = snap::capture_barrier(config);
  hook.hook = [&](snap::TrialCheckpoint& cp) {
    cpu_barrier = thread_cpu_s();
    r.setup_bytes = bench_alloc::allocated_bytes() - bytes0;
    barrier_events = cp.sim.executed_events();
  };
  allocs0 = bench_alloc::allocations();
  bytes0 = bench_alloc::allocated_bytes();
  r.begin = Clock::now();
  const double cpu_begin = thread_cpu_s();
  r.metrics = harness::run_scenario(config, hook);
  const double cpu_end = thread_cpu_s();
  r.end = Clock::now();
  r.allocs = bench_alloc::allocations() - allocs0;
  r.setup_s = cpu_barrier - cpu_begin;
  r.run_s = cpu_end - cpu_barrier - sink_s;
  r.events_after_setup = r.metrics.sim_events - barrier_events;
  r.bytes = snap::run_metrics_to_bytes(r.metrics);
  return r;
}

std::uint64_t ring_capacity(std::uint64_t expected) {
  std::uint64_t cap = 1 << 16;
  while (cap < expected && cap < kMaxRingRecords) cap <<= 1;
  return cap;
}

}  // namespace

TrialRun timed_trial(const harness::ScenarioConfig& config) {
  const double no_sink = 0.0;
  return run_hooked(config, no_sink);
}

TracedRun traced_trial(harness::ScenarioConfig config, std::uint64_t type_mask,
                       std::uint64_t expected_records) {
  TracedRun t;
  double sink_s = 0.0;
  config.trace = obs::TraceSpec{};
  config.trace.enabled = true;
  config.trace.type_mask = type_mask;
  config.trace.sink = [&](const obs::Tracer& tracer) {
    const double t0 = thread_cpu_s();
    t.emitted = tracer.emitted();
    t.overwritten = tracer.overwritten();
    t.records = tracer.snapshot();
    sink_s = thread_cpu_s() - t0;
  };
  for (std::uint64_t cap = ring_capacity(expected_records);; cap <<= 1) {
    config.trace.buffer_cap = cap;
    sink_s = 0.0;
    t.records.clear();
    t.records.shrink_to_fit();
    ++t.attempts;
    t.run = run_hooked(config, sink_s);
    if (t.overwritten == 0 || cap >= kMaxRingRecords) break;
  }
  return t;
}

std::string traced_run_problem(const TracedRun& t,
                               const std::vector<std::uint8_t>& untraced,
                               bool check_conservation) {
  if (t.run.bytes != untraced) return "traced run differs from the untraced run";
  if (t.overwritten != 0) {
    return "trace ring overwrote " + std::to_string(t.overwritten) + " records";
  }
  if (check_conservation) {
    const obs::ConservationReport cons = obs::check_conservation(t.records);
    if (!cons.ok) return "packet conservation violated: " + cons.detail;
  }
  return "";
}

SnapshotRoundTrip snapshot_round_trip(const harness::ScenarioConfig& config,
                                      const std::vector<std::uint8_t>& straight) {
  SnapshotRoundTrip t;
  const snap::TrialCapture capture = snap::capture_trial(config);
  t.capture_ok = snap::run_metrics_to_bytes(capture.metrics) == straight;
  t.bytes = static_cast<double>(capture.snapshot.to_bytes().size());
  const double t0 = thread_cpu_s();
  const harness::RunMetrics resumed = snap::resume_trial(capture.snapshot);
  t.resume_s = thread_cpu_s() - t0;
  t.resume_ok = snap::run_metrics_to_bytes(resumed) == straight;
  return t;
}

std::uint64_t allocated_bytes() { return bench_alloc::allocated_bytes(); }

double children_cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
