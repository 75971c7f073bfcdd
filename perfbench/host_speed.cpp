#include "perfbench/host_speed.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <queue>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

namespace {

// Read through a volatile so the compiler cannot fold the kernel away;
// the result lands in an atomic because several threads may store it.
volatile std::uint64_t g_seed = 0x9E3779B97F4A7C15ull;
std::atomic<std::uint64_t> g_sink{0};

double kernel_s() {
  constexpr int kPending = 2048;
  constexpr int kSteps = 340000;
  const double t0 = thread_cpu_s();
  std::uint64_t x = g_seed;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<std::uint64_t>>
      pending;
  for (int i = 0; i < kPending; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    pending.push(x >> 40);
  }
  std::uint64_t now = 0;
  for (int i = 0; i < kSteps; ++i) {
    now = pending.top();
    pending.pop();
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    pending.push(now + (x >> 44));
  }
  g_sink.store(now, std::memory_order_relaxed);
  return thread_cpu_s() - t0;
}

}  // namespace

double reference_s(int threads) {
  if (threads <= 1) return kernel_s();
  // std::async futures join in their destructors, exception paths included.
  std::vector<std::future<double>> runs;
  for (int i = 0; i < threads; ++i) runs.push_back(std::async(std::launch::async, kernel_s));
  std::vector<double> times;
  for (std::future<double>& r : runs) times.push_back(r.get());
  return median(times);
}

}  // namespace perfbench
