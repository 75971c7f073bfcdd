// Benchmark driver: runs one workload for a given time and prints one JSON
// line with the run's verdict, trial counts and metrics (the end-to-end
// metrics, or with --trace 1 the per-layer ones). perfbench/run.py builds
// and invokes it; see perfbench/README.md.
//
//   essat_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/runs.h"
#include "perfbench/workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: essat_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') seconds = 0.0;
    } else if (flag == "--trace") {
      const std::string v = value;
      trace = v == "1" ? 1 : v == "0" ? 0 : -1;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !(seconds > 0.0) ||
      trace < 0) {
    return usage();
  }

  perfbench::log_phase(workload + ": start, trace " + std::to_string(trace));
  perfbench::Report rep;
  try {
    const perfbench::Workload w = perfbench::make_workload(workload, seed);
    rep = trace == 1 ? perfbench::run_per_layer(w, seconds)
                     : perfbench::run_end_to_end(w, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "essat_perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }

  for (const perfbench::Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) rep.fail("metric " + m.name + " is not finite");
  }
  for (const std::string& f : rep.failures) {
    std::fprintf(stderr, "essat_perfbench: FAILED: %s\n", f.c_str());
  }
  const bool correct = rep.failed == 0 && rep.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
