// Deterministic random number generation for reproducible simulation runs.
//
// Every simulation run is parameterized by a single 64-bit seed; independent
// streams (node placement, query phases, MAC backoff per node, ...) are
// derived with `fork`, so adding a consumer never perturbs other streams.
//
// A stream draws exactly what `std::mt19937_64{splitmix64(seed)}` draws, but
// is a ~40-byte value instead of a 2.5 KB engine, and `fork` is O(1):
//
//  * The first 156 outputs need no state buffer. MT19937-64's first twist
//    rewrites word k (k < 156) from seeded words x[k], x[k+1] and x[k+156]
//    only, none of which that twist has touched yet, and output k is word k
//    tempered. Seeding is a one-step recurrence, x[i] = f(x[i-1], i), so a
//    stream keeps (x[k], x[k+156]) and pays two recurrence steps, one twist
//    step and one temper per output. The first draw walks x[0] to x[156].
//  * The 157th output builds a heap `std::mt19937_64` once (seed, then
//    discard 156) and every later draw comes from it.
//
// Most streams are one-shot (a per-link shadowing gain, a node's start
// jitter) or never drawn at all (the MAC of a node outside the active
// region), so city-scale set-up neither seeds nor stores an engine for them.
#pragma once

#include <cstdint>
#include <memory>
#include <random>

#include "src/util/time.h"

namespace essat::snap {
class Serializer;
class Deserializer;
}  // namespace essat::snap

namespace essat::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_{seed} {}

  // Move-only: a copied generator silently replays the same random sequence
  // in two places, which breaks run reproducibility in ways no test sees
  // directly. Components own their stream (constructed from `fork`) and
  // everything else takes `Rng&` — the essat-rng-by-ref lint check enforces
  // the signatures, this enforces the call sites.
  //
  // Moving leaves the source where it was, as moving a std engine does, so
  // a built engine is copied rather than stolen. Streams are moved while
  // components are set up, long before they build one; running out of
  // memory for that copy terminates.
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&& other) noexcept;
  Rng& operator=(Rng&& other) noexcept;

  // Derives an independent generator; deterministic in (seed, stream), O(1).
  Rng fork(std::uint64_t stream) const;

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Uniform Time in [lo, hi).
  Time uniform_time(Time lo, Time hi);
  // Exponential with the given mean (> 0).
  double exponential(double mean);
  // Gaussian with the given mean and standard deviation (>= 0; 0 returns
  // `mean`).
  double normal(double mean, double stddev);
  bool bernoulli(double p);

  std::uint64_t seed() const { return seed_; }

  // Snapshot hooks: the seed, then the text of the equivalent
  // std::mt19937_64 at this stream's position (built temporarily if this
  // stream has not built its own), so the bytes are the engine's. The text
  // round-trip is exact per the standard, and every distribution above is
  // constructed fresh per call, so this is the complete stream state.
  // Restoring builds the engine.
  void save_state(snap::Serializer& out) const;
  void restore_state(snap::Deserializer& in);

 private:
  class Bits;  // the URBG view the distributions draw through

  std::uint64_t next_();
  std::uint64_t next_from_seed_words_();

  std::uint64_t seed_;
  std::uint64_t lo_ = 0;  // seeded word x[k] (valid once k_ > 0)
  std::uint64_t hi_ = 0;  // seeded word x[k + 156] (valid once k_ > 0)
  std::uint64_t k_ = 0;   // outputs drawn before the engine was built
  std::unique_ptr<std::mt19937_64> engine_;  // built at the 157th output
};

}  // namespace essat::util
