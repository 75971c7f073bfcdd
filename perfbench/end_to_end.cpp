// The untraced run: closed-loop batches over the workload's grid for the
// requested time, then the correctness checks.
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "perfbench/host_speed.h"
#include "perfbench/runs.h"
#include "perfbench/trials.h"
#include "src/exp/fork_sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/snap/metrics_codec.h"

namespace perfbench {

namespace snap = essat::snap;

std::vector<TrialRun> run_batch(const Workload& w, const Batch& b, double& wall_s,
                                std::vector<std::thread::id>* workers) {
  std::vector<TrialRun> runs(b.trials.size());
  std::vector<std::thread::id> ran_on(b.trials.size());
  if (w.driver != Driver::kSweepRunner) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < b.trials.size(); ++i) {
      runs[i] = timed_trial(b.trials[i]);
      ran_on[i] = std::this_thread::get_id();
    }
    wall_s = seconds_between(t0, Clock::now());
  } else {
    // The injected run_fn times each trial and files it under its position
    // in b.trials, keyed by what distinguishes the grid's trials.
    using Key = std::tuple<std::string, double, std::uint64_t>;
    const auto key_of = [](const harness::ScenarioConfig& c) {
      return Key{c.protocol.name, c.workload.base_rate_hz, c.seed};
    };
    std::map<Key, std::size_t> index;
    for (std::size_t i = 0; i < b.trials.size(); ++i) {
      if (!index.emplace(key_of(b.trials[i]), i).second) {
        throw std::logic_error{w.name + ": trials are not uniquely keyed"};
      }
    }
    exp::SweepRunner::Options opts;
    opts.jobs = w.jobs;
    opts.run_fn = [&](const harness::ScenarioConfig& c) {
      const auto it = index.find(key_of(c));
      if (it == index.end()) throw std::logic_error{w.name + ": unexpected trial"};
      runs[it->second] = timed_trial(c);
      ran_on[it->second] = std::this_thread::get_id();
      return runs[it->second].metrics;
    };
    exp::SweepRunner runner{std::move(opts)};
    const Clock::time_point t0 = Clock::now();
    runner.run(*b.sweep);
    wall_s = seconds_between(t0, Clock::now());
  }
  if (workers != nullptr) *workers = std::move(ran_on);
  return runs;
}

std::vector<harness::RunMetrics> run_forked(const Batch& b,
                                            const std::vector<std::size_t>& indices,
                                            double& cpu_s) {
  std::vector<harness::WorkloadSpec> variants;
  for (std::size_t i : indices) variants.push_back(b.trials[i].workload);
  const double cpu0 = thread_cpu_s() + children_cpu_s();
  std::vector<harness::RunMetrics> forked =
      exp::run_fork_sweep(b.trials[indices.front()], variants, 1);
  cpu_s = thread_cpu_s() + children_cpu_s() - cpu0;
  return forked;
}

Report run_end_to_end(const Workload& w, double seconds) {
  Report rep;
  const Batch first = w.batch(0);

  // Warm-up: one untimed trial, so first-touch costs (registries, allocator
  // arenas, page faults) stay out of the timings.
  log_phase(w.name + ": warm-up");
  rep.trial(!timed_trial(first.trials[0]).bytes.empty(), "warm-up trial");

  // Host time is noisy in bursts of a few seconds and each trial's work
  // varies with its placement, so a cell's times are medians over batches;
  // each batch's times are scaled to nominal host speed by the reference
  // timed just before and just after it.
  std::vector<std::vector<double>> cell_total(w.cells), cell_run(w.cells),
      cell_events(w.cells);
  std::vector<double> setup_samples;
  std::vector<double> sweep_samples;
  std::vector<std::vector<std::uint8_t>> reference;
  std::vector<std::uint64_t> reference_events;
  double min_batch_bytes = 0.0;
  double min_batch_nodes = 0.0;
  std::vector<double> reference_samples = {reference_s(w.jobs)};
  const Clock::time_point start = Clock::now();
  double batch_s = 0.0;
  // Past min_batches, stops where one more batch would end further past the
  // budget than stopping now ends short of it.
  for (std::uint64_t bi = 0;
       bi < w.min_batches ||
       seconds_between(start, Clock::now()) + 0.5 * batch_s < seconds;
       ++bi) {
    const Batch b = bi == 0 ? first : w.batch(bi);
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t bytes0 = allocated_bytes();
    double wall_s = 0.0;
    const std::vector<TrialRun> runs = run_batch(w, b, wall_s);
    if (bi < w.min_batches) {
      min_batch_bytes += static_cast<double>(allocated_bytes() - bytes0);
      for (const harness::ScenarioConfig& c : b.trials) {
        min_batch_nodes += c.deployment.num_nodes;
      }
    }
    // The pool's cost is its wall time; a serial path's is the CPU time of
    // the process and, for the fork path, of its children.
    double sweep_s = wall_s;
    if (w.driver == Driver::kSerial) {
      sweep_s = 0.0;
      for (const TrialRun& r : runs) sweep_s += r.total_s();
    } else if (w.driver == Driver::kForkVariants) {
      const std::vector<harness::RunMetrics> forked = run_forked(b, w.fork_trials, sweep_s);
      for (std::size_t k = 0; k < w.fork_trials.size(); ++k) {
        rep.trial(k < forked.size() && snap::run_metrics_to_bytes(forked[k]) ==
                                           runs[w.fork_trials[k]].bytes,
                  "batch " + std::to_string(bi) + " fork variant " +
                      std::to_string(k) + " differs from its from-scratch run");
      }
    }
    reference_samples.push_back(reference_s(w.jobs));
    const double scale =
        kNominalReferenceS /
        (0.5 * (reference_samples.end()[-2] + reference_samples.end()[-1]));
    sweep_samples.push_back(scale * sweep_s);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const TrialRun& r = runs[i];
      rep.trial();
      setup_samples.push_back(scale * r.setup_s);
      cell_total[b.cells[i]].push_back(scale * r.total_s());
      cell_run[b.cells[i]].push_back(scale * r.run_s);
      cell_events[b.cells[i]].push_back(static_cast<double>(r.events_after_setup));
      if (bi == 0) {
        reference.push_back(r.bytes);
        reference_events.push_back(r.metrics.sim_events);
      }
    }
    batch_s = seconds_between(t0, Clock::now());
    log_phase(w.name + ": batch " + std::to_string(bi) + " took " +
              std::to_string(batch_s) + " s, host speed " +
              std::to_string(scale) + " x nominal");
  }
  const double rss_mb = peak_rss_mb();

  // Checks, all on batch 0: the same seed twice, traced == untraced with
  // packet conservation, snapshot capture and resume == the straight run,
  // and the fork path == from scratch.
  rep.trial(timed_trial(first.trials[0]).bytes == reference[0],
            "trial 0 differs from its first run");
  const std::size_t ci = w.layer_trials.front();
  const harness::ScenarioConfig& cc = first.trials[ci];
  const TracedRun traced =
      traced_trial(cc, kLayerTypes, 4 * reference_events[ci] + (1 << 16));
  for (int i = 1; i < traced.attempts; ++i) rep.trial();
  const std::string problem =
      traced_run_problem(traced, reference[ci], /*check_conservation=*/true);
  rep.trial(problem.empty(), problem);
  log_phase(w.name + ": traced check done");

  if (w.snapshots) {
    const SnapshotRoundTrip snapshot = snapshot_round_trip(cc, reference[ci]);
    rep.trial(snapshot.capture_ok, "capturing run differs from the straight run");
    rep.trial(snapshot.resume_ok, "resumed run differs from the straight run");
  }
  if (w.driver == Driver::kSerial && !w.fork_trials.empty()) {
    double cpu_s = 0.0;
    const std::vector<harness::RunMetrics> forked = run_forked(first, w.fork_trials, cpu_s);
    for (std::size_t k = 0; k < w.fork_trials.size(); ++k) {
      rep.trial(k < forked.size() && snap::run_metrics_to_bytes(forked[k]) ==
                                         reference[w.fork_trials[k]],
                "fork variant differs from its from-scratch run");
    }
  }
  log_phase(w.name + ": checks done");

  double total_s = 0.0;
  double run_s = 0.0;
  double events = 0.0;
  for (std::size_t c = 0; c < w.cells; ++c) {
    total_s += median(cell_total[c]);
    run_s += median(cell_run[c]);
    events += median(cell_events[c]);
  }
  rep.add("trials_per_s", ratio(static_cast<double>(w.cells), total_s), "1/s");
  rep.add("events_per_s", ratio(events, run_s), "1/s");
  rep.add("setup_s", median(setup_samples), "s");
  rep.add("sweep_s", median(sweep_samples), "s");
  rep.add("peak_rss_mb", rss_mb, "MiB");
  rep.add("alloc_bytes_per_node", ratio(min_batch_bytes, min_batch_nodes), "B");
  return rep;
}

}  // namespace perfbench
