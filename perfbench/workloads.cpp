#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using essat::util::Time;
namespace net = essat::net;

// Scenario seed of batch `index` of a workload seeded with `seed`
// (SplitMix64), so neighbouring workload seeds share no placement.
std::uint64_t placement_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) >> 8;  // headroom for SweepRunner's seed + rep
}

// static-dense: the BENCH_5-9 grid (DTS-SS, 160 nodes uniform in a 500 m
// square, 125 m range, 300 m tree cap, {1, 2, 4} Hz, 20 s window, static,
// unit disc). A batch is one placement at the three rates.
constexpr double kStaticRates[] = {1.0, 2.0, 4.0};

Batch static_dense_batch(std::uint64_t seed, std::uint64_t index) {
  Batch b;
  harness::ScenarioConfig c;
  c.protocol = harness::Protocol::kDtsSs;
  c.deployment.num_nodes = 160;
  c.deployment.area_m = 500.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 300.0;
  c.measure_duration = Time::seconds(20);
  c.seed = placement_seed(seed, index);
  for (std::size_t r = 0; r < std::size(kStaticRates); ++r) {
    c.workload.base_rate_hz = kStaticRates[r];
    b.trials.push_back(c);
    b.cells.push_back(r);
  }
  return b;
}

// mobile-churn: K rate variants of one set-up-heavy prefix: 20 s of random
// waypoint at 10 ms neighbour epochs before the workload starts, queries
// starting within 2 s, so the shared prefix dominates each trial.
constexpr double kMobileRates[] = {1.0, 1.5, 2.0};

Batch mobile_churn_batch(std::uint64_t seed, std::uint64_t index) {
  Batch b;
  harness::ScenarioConfig c;
  c.protocol = harness::Protocol::kDtsSs;
  c.deployment.num_nodes = 120;
  c.deployment.area_m = 420.0;
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 300.0;
  c.setup_duration = Time::seconds(20);
  c.workload.query_start_window = Time::seconds(2);
  c.measure_duration = Time::seconds(5);
  c.latency_grace = Time::from_seconds(0.5);
  c.mobility.kind = net::MobilityKind::kRandomWaypoint;
  c.mobility.epoch_s = 0.01;
  c.enable_maintenance = true;
  c.faults.churn.node_fraction = 0.10;
  c.channel_model.kind = net::LinkModelKind::kLogNormalShadowing;
  c.routing.policy = "etx";
  c.seed = placement_seed(seed, index);
  for (std::size_t r = 0; r < std::size(kMobileRates); ++r) {
    c.workload.base_rate_hz = kMobileRates[r];
    b.trials.push_back(c);
    b.cells.push_back(r);
  }
  return b;
}

// city-100k: the fig12 shape at n = 100,000 (paper density, 300 m active
// region, 1 Hz). The window is 20 s rather than fig12's 5 s so the latency
// summary (which drops the last 5 s grace) covers some epochs.
constexpr int kCityNodes = 100000;

Batch city_100k_batch(std::uint64_t seed, std::uint64_t index) {
  Batch b;
  harness::ScenarioConfig c;
  c.protocol = harness::Protocol::kDtsSs;
  c.deployment.num_nodes = kCityNodes;
  c.deployment.area_m = 500.0 * std::sqrt(kCityNodes / 80.0);
  c.deployment.range_m = 125.0;
  c.deployment.max_tree_dist_m = 300.0;
  c.workload.base_rate_hz = 1.0;
  c.measure_duration = Time::seconds(20);
  c.seed = placement_seed(seed, index);
  b.trials.push_back(c);
  b.cells.push_back(0);
  return b;
}

// paper-sweep: the six protocols x the fig3/fig6 base rates at the paper's
// section-5 setup (80 nodes, 6:3:2 queries; a 60 s window instead of 200 s),
// kPaperRuns placements per point, through SweepRunner. Rates are the outer
// axis, highest first, so the pool starts on the longest trials and its
// tail stays short.
constexpr double kPaperRates[] = {5.0, 3.0, 1.0};
constexpr harness::Protocol kPaperProtocols[] = {
    harness::Protocol::kNtsSs, harness::Protocol::kStsSs, harness::Protocol::kDtsSs,
    harness::Protocol::kSync,  harness::Protocol::kPsm,   harness::Protocol::kSpan};
constexpr int kPaperRuns = 2;

Batch paper_sweep_batch(std::uint64_t seed, std::uint64_t index) {
  Batch b;
  harness::ScenarioConfig base;
  base.deployment.num_nodes = 80;
  base.deployment.area_m = 500.0;
  base.deployment.range_m = 125.0;
  base.deployment.max_tree_dist_m = 300.0;
  base.measure_duration = Time::seconds(60);
  base.seed = placement_seed(seed, index);
  b.sweep.emplace(base);
  b.sweep->axis_rate({std::begin(kPaperRates), std::end(kPaperRates)})
      .axis_protocol({std::begin(kPaperProtocols), std::end(kPaperProtocols)})
      .runs(kPaperRuns);
  for (const exp::SweepPoint& point : b.sweep->points()) {
    for (int rep = 0; rep < kPaperRuns; ++rep) {
      harness::ScenarioConfig c = point.config;
      c.seed += static_cast<std::uint64_t>(rep);  // SweepRunner's seeding
      b.trials.push_back(c);
      b.cells.push_back(point.index);
    }
  }
  return b;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "static-dense", "mobile-churn", "city-100k", "paper-sweep"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "static-dense") {
    w.make_batch = static_dense_batch;
    w.cells = std::size(kStaticRates);
    w.min_batches = 4;
    w.layer_trials = {0, 1, 2};
    w.fork_trials = {0, 1, 2};
  } else if (name == "mobile-churn") {
    w.make_batch = mobile_churn_batch;
    w.driver = Driver::kForkVariants;
    w.cells = std::size(kMobileRates);
    w.min_batches = 2;
    w.layer_trials = {0};
    w.fork_trials = {0, 1, 2};
  } else if (name == "city-100k") {
    w.make_batch = city_100k_batch;
    w.cells = 1;
    w.min_batches = 3;
    w.layer_trials = {0};
    w.snapshots = false;
  } else if (name == "paper-sweep") {
    w.make_batch = paper_sweep_batch;
    w.driver = Driver::kSweepRunner;
    w.jobs = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    const std::size_t protocols = std::size(kPaperProtocols);
    w.cells = std::size(kPaperRates) * protocols;
    w.min_batches = 2;
    // Every protocol at the middle rate, first placement.
    for (std::size_t p = 0; p < protocols; ++p) {
      w.layer_trials.push_back((protocols + p) * kPaperRuns);
    }
  } else {
    throw std::invalid_argument{"unknown workload: " + name};
  }
  return w;
}

Time trial_horizon(const harness::ScenarioConfig& c) {
  // run_scenario's measurement window ends this far into the trial.
  return c.setup_duration + Time::seconds(2) + c.workload.query_start_window +
         c.measure_duration;
}

}  // namespace perfbench
