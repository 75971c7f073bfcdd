// Shared plumbing of the benchmark driver: host clock, medians, the ordered
// metric report, and the per-run trial ledger (attempted / failed counts).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU seconds the calling thread has used. Trial timings use it rather than
// wall time: on a shared host it leaves out the time the thread sat
// descheduled or its virtual CPU was stolen, which is not the code's cost.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Median of the samples (mean of the middle two for an even count); 0 for
// an empty set.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Progress line on stderr, stamped with host seconds since the first call.
inline void log_phase(const std::string& what) {
  static const Clock::time_point t0 = Clock::now();
  std::fprintf(stderr, "[%7.2fs] %s\n", seconds_between(t0, Clock::now()),
               what.c_str());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Outcome of one benchmark run: the metrics in report order, the number of
// trials the run executed and how many of them failed a correctness check,
// and a human-readable line per failure (printed to stderr).
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // Records one executed trial; `ok` is the verdict of every check the
  // trial fed, `what` describes a failure.
  void trial(bool ok = true, const std::string& what = "") {
    ++attempted;
    if (!ok) fail(what);
  }
  // A failed check on a trial already counted as attempted.
  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

}  // namespace perfbench
