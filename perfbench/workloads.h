// The benchmark's four workloads. Each is a grid of trials repeated over
// batches of placements drawn from the workload seed: batch b of seed s is
// always the same trials, and a run works through batches 0, 1, 2, ...
// until its time is up. perfbench/workloads.json records why each workload
// was chosen and which layers it drives or bypasses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/sweep.h"
#include "src/harness/scenario.h"

namespace perfbench {

namespace exp = essat::exp;
namespace harness = essat::harness;

// How one batch is executed.
enum class Driver {
  kSerial,        // trials run one after another from scratch
  kForkVariants,  // trials from scratch, then Workload::fork_trials through
                  // exp::run_fork_sweep(max_parallel = 1)
  kSweepRunner,   // the grid through exp::SweepRunner at Workload::jobs workers
};

// One pass over the workload's grid at one set of placements.
struct Batch {
  std::vector<harness::ScenarioConfig> trials;
  // Grid cell of each trial: trials of one cell differ only in placement.
  std::vector<std::size_t> cells;
  // kSweepRunner: the grid the runner expands into `trials`.
  std::optional<exp::SweepSpec> sweep;
};

struct Workload {
  std::string name;
  Driver driver = Driver::kSerial;
  int jobs = 1;
  std::size_t cells = 0;  // grid cells per batch
  // Batches every run makes, however long they take; exact counts
  // (allocation volume) are taken over these so they repeat exactly.
  std::uint64_t min_batches = 1;
  std::uint64_t seed = 0;
  Batch (*make_batch)(std::uint64_t seed, std::uint64_t index) = nullptr;
  // Trials of batch 0 traced by the per-layer run; the first is also the
  // trial the end-to-end run's traced and snapshot checks use.
  std::vector<std::size_t> layer_trials;
  // Trials of a batch that share their set-up prefix and differ only in
  // workload: kForkVariants runs them through the fork path every batch;
  // otherwise the end-to-end run checks the fork path on batch 0's.
  std::vector<std::size_t> fork_trials;
  // Whether the runs capture and resume a snapshot of the first layer
  // trial (city-100k's would be 678 MB, ~1.4 GB with its framed copy).
  bool snapshots = true;

  Batch batch(std::uint64_t index) const { return make_batch(seed, index); }
};

// The workload names, in report order.
const std::vector<std::string>& workload_names();

// The named workload for `seed`. Throws std::invalid_argument for an
// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// Simulated time at which a trial's run ends (the last event horizon).
essat::util::Time trial_horizon(const harness::ScenarioConfig& c);

}  // namespace perfbench
