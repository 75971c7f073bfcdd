#pragma once

#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/trials.h"
#include "perfbench/workloads.h"

namespace perfbench {

// Runs batch `b` of `w` through the workload's driver (serially, or through
// exp::SweepRunner at w.jobs workers; the fork path is not part of it).
// Returns the trials in b.trials order and sets `wall_s`; when `workers` is
// given, it receives the thread each trial ran on.
std::vector<TrialRun> run_batch(const Workload& w, const Batch& b, double& wall_s,
                                std::vector<std::thread::id>* workers = nullptr);

// Trials `indices` of `b`, which share their set-up prefix, through
// exp::run_fork_sweep(max_parallel = 1); sets `cpu_s` to the CPU time of
// this thread and of the forked children.
std::vector<harness::RunMetrics> run_forked(const Batch& b,
                                            const std::vector<std::size_t>& indices,
                                            double& cpu_s);

// Untraced run of `w`: batches until `seconds` have elapsed (at least
// w.min_batches), then the correctness checks. Reports every end-to-end
// metric.
Report run_end_to_end(const Workload& w, double seconds);

// Traced run of `w`'s layer trials plus standalone calls into single
// layers, repeated until `seconds` have elapsed. Reports every per-layer
// metric.
Report run_per_layer(const Workload& w, double seconds);

}  // namespace perfbench
