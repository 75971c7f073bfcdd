#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/snap/serializer.h"
#include "src/util/rng.h"

namespace essat::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1'000'000) != b.uniform_int(0, 1'000'000)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(Rng, ForkIsIndependentOfConsumption) {
  Rng a{7};
  Rng fork_before = a.fork(3);
  a.uniform(0.0, 1.0);  // consume from the parent
  Rng fork_after = a.fork(3);
  // Forks derive from the seed, not the stream position.
  EXPECT_EQ(fork_before.uniform_int(0, 1 << 30), fork_after.uniform_int(0, 1 << 30));
}

TEST(Rng, ForkStreamsDiffer) {
  Rng a{7};
  Rng s1 = a.fork(1);
  Rng s2 = a.fork(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (s1.uniform_int(0, 1 << 30) != s2.uniform_int(0, 1 << 30)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(Rng, UniformRange) {
  Rng r{99};
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r{99};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);  // all of 0..4 hit
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, UniformTimeWithinRange) {
  Rng r{5};
  const Time lo = Time::milliseconds(10);
  const Time hi = Time::milliseconds(20);
  for (int i = 0; i < 500; ++i) {
    const Time t = r.uniform_time(lo, hi);
    EXPECT_GE(t, lo);
    EXPECT_LT(t, hi);
  }
}

TEST(Rng, UniformTimeDegenerateRange) {
  Rng r{5};
  EXPECT_EQ(r.uniform_time(Time::seconds(1), Time::seconds(1)), Time::seconds(1));
}

TEST(Rng, ExponentialMean) {
  Rng r{11};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng r{13};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalWithZeroStddevReturnsMean) {
  Rng r{17};
  for (const double mean : {0.0, -3.5, 42.0}) {
    for (int i = 0; i < 10; ++i) EXPECT_EQ(r.normal(mean, 0.0), mean);
  }
}

// The reference every stream must match draw for draw: the engine Rng
// stood on before it built one lazily, seeded with SplitMix64 of the seed.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::mt19937_64 reference(std::uint64_t seed) {
  return std::mt19937_64{splitmix64(seed)};
}

// normal() must draw exactly what std::normal_distribution{mean, sd} draws
// from the same engine state.
TEST(Rng, NormalMatchesStdNormalDistribution) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {-92.5, 4.0}, {3.25, 0.001}, {1e6, 250.0}};
  for (const auto& [mean, sd] : params) {
    Rng r{99};
    std::mt19937_64 ref = reference(99);
    for (int i = 0; i < 100; ++i) {
      std::normal_distribution<double> d{mean, sd};
      ASSERT_EQ(r.normal(mean, sd), d(ref)) << mean << " " << sd << " #" << i;
    }
  }
}

// ------------------------------------------------- bit identity with the engine
//
// A stream serves its first 156 outputs from two seeded words and builds a
// std::mt19937_64 at the 157th. Every check below crosses that boundary and
// compares against the reference engine bit for bit.

enum class Kind { kUniform, kUniformInt, kUniformTime, kExponential, kNormal, kBernoulli };
constexpr Kind kKinds[] = {Kind::kUniform,     Kind::kUniformInt, Kind::kUniformTime,
                           Kind::kExponential, Kind::kNormal,     Kind::kBernoulli};

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}
std::uint64_t bits(std::int64_t v) { return static_cast<std::uint64_t>(v); }

// Draw i of the given kind, as a bit pattern so doubles compare exactly.
// Parameters vary with i, so the rejection loops of uniform_int and normal
// consume varying numbers of words per draw.
std::uint64_t draw(Kind kind, int i, Rng& r) {
  switch (kind) {
    case Kind::kUniform:
      return bits(r.uniform(-1.0 * i, 3.0 + i));
    case Kind::kUniformInt:
      return bits(r.uniform_int(-i, (std::int64_t{1} << (i % 63)) + 6));
    case Kind::kUniformTime:
      return bits(r.uniform_time(Time::microseconds(i), Time::milliseconds(1 + i)).ns());
    case Kind::kExponential:
      return bits(r.exponential(0.5 + i));
    case Kind::kNormal:
      return bits(r.normal(i, 0.25 + i));
    case Kind::kBernoulli:
      return r.bernoulli((i % 97) / 96.0) ? 1 : 0;
  }
  return 0;
}

std::uint64_t draw(Kind kind, int i, std::mt19937_64& e) {
  switch (kind) {
    case Kind::kUniform:
      return bits(std::uniform_real_distribution<double>{-1.0 * i, 3.0 + i}(e));
    case Kind::kUniformInt:
      return bits(std::uniform_int_distribution<std::int64_t>{
          -i, (std::int64_t{1} << (i % 63)) + 6}(e));
    case Kind::kUniformTime:
      return bits(std::uniform_int_distribution<std::int64_t>{
          Time::microseconds(i).ns(), Time::milliseconds(1 + i).ns() - 1}(e));
    case Kind::kExponential:
      return bits(std::exponential_distribution<double>{1.0 / (0.5 + i)}(e));
    case Kind::kNormal:
      return bits(std::normal_distribution<double>{0.0, 1.0}(e) * (0.25 + i) + i);
    case Kind::kBernoulli:
      return std::bernoulli_distribution{(i % 97) / 96.0}(e) ? 1 : 0;
  }
  return 0;
}

// One raw engine word per call: the distribution's range equals the
// engine's, so libstdc++ passes the word straight through.
std::int64_t raw(Rng& r) {
  return r.uniform_int(std::numeric_limits<std::int64_t>::min(),
                       std::numeric_limits<std::int64_t>::max());
}
std::int64_t raw(std::mt19937_64& e) {
  return std::uniform_int_distribution<std::int64_t>{
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()}(e);
}

// Checks `n` raw words of `r` against `ref`.
void expect_raw_match(Rng& r, std::mt19937_64& ref, int n, const char* what) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(raw(r), raw(ref)) << what << " word " << i;
  }
}

std::vector<std::uint8_t> saved(const Rng& r) {
  snap::Serializer s;
  r.save_state(s);
  return s.take();
}

std::vector<std::uint8_t> saved(std::uint64_t seed, const std::mt19937_64& e) {
  snap::Serializer s;
  s.u64(seed);
  std::ostringstream text;
  text << e;
  s.str(text.str());
  return s.take();
}

// The boundary positions: fresh, last and first word around the engine
// build, one past it.
constexpr int kBoundary[] = {0, 1, 155, 156, 157, 400};

TEST(RngBitIdentity, EveryDrawKindMatchesTheEngineAcrossTheBuild) {
  for (const Kind kind : kKinds) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng r{seed * 0x9e3779b97f4a7c15ULL + 3};
      std::mt19937_64 ref = reference(seed * 0x9e3779b97f4a7c15ULL + 3);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(draw(kind, i, r), draw(kind, i, ref))
            << "kind " << static_cast<int>(kind) << " seed " << seed << " draw " << i;
      }
    }
  }
}

TEST(RngBitIdentity, RawWordsMatchAroundTheBuild) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                                   ~std::uint64_t{0}, std::uint64_t{0x5555555555555555}}) {
    Rng r{seed};
    std::mt19937_64 ref = reference(seed);
    expect_raw_match(r, ref, 2000, "raw");
  }
}

TEST(RngBitIdentity, ForkedStreamsMatchTheEngine) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Rng parent{seed};
    for (const std::uint64_t stream : {std::uint64_t{0}, std::uint64_t{1},
                                       std::uint64_t{4}, std::uint64_t{1} << 40}) {
      Rng child = parent.fork(stream);
      const std::uint64_t child_seed =
          splitmix64(seed ^ splitmix64(stream + 0x517cc1b727220a95ULL));
      ASSERT_EQ(child.seed(), child_seed);
      std::mt19937_64 ref = reference(child_seed);
      expect_raw_match(child, ref, 400, "fork");
      // A fork of a fork, drawn through a non-raw kind.
      Rng grandchild = child.fork(stream + 1);
      std::mt19937_64 gref = reference(grandchild.seed());
      for (int i = 0; i < 300; ++i) {
        ASSERT_EQ(draw(Kind::kNormal, i, grandchild), draw(Kind::kNormal, i, gref));
      }
    }
  }
}

TEST(RngBitIdentity, MovedFromAndMovedToStreamsBothContinue) {
  for (const int k : {0, 155, 156, 157}) {
    // Move construction: the source stays where it was, as a std engine's
    // would, and the target picks up at the same position.
    Rng src{42};
    std::mt19937_64 ref = reference(42);
    expect_raw_match(src, ref, k, "advance");
    Rng dst{std::move(src)};
    std::mt19937_64 ref_dst = ref;
    expect_raw_match(dst, ref_dst, 300, "moved-to");
    expect_raw_match(src, ref, 300, "moved-from");  // NOLINT: moved-from is specified

    // Move assignment, into a fresh target and into one with a built engine.
    for (const int target_k : {0, 200}) {
      Rng from{7};
      std::mt19937_64 ref_from = reference(7);
      expect_raw_match(from, ref_from, k, "advance");
      Rng to{9};
      std::mt19937_64 skip = reference(9);
      expect_raw_match(to, skip, target_k, "advance target");
      to = std::move(from);
      std::mt19937_64 ref_to = ref_from;
      expect_raw_match(to, ref_to, 300, "assigned-to");
      expect_raw_match(from, ref_from, 300, "assigned-from");  // NOLINT: as above
    }
  }
}

TEST(RngBitIdentity, SavedBytesEqualTheEngineTextWithOrWithoutABuiltEngine) {
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{123456789}}) {
    for (const int k : kBoundary) {
      Rng r{seed};
      std::mt19937_64 ref = reference(seed);
      expect_raw_match(r, ref, k, "advance");
      EXPECT_EQ(saved(r), saved(seed, ref)) << "seed " << seed << " k " << k;
    }
  }
}

TEST(RngBitIdentity, RestoreThenContinue) {
  for (const int k : kBoundary) {
    Rng r{77};
    std::mt19937_64 ref = reference(77);
    expect_raw_match(r, ref, k, "advance");
    const std::vector<std::uint8_t> bytes = saved(r);
    // Restore over a fresh stream and over one with a built engine.
    for (const int target_k : {0, 500}) {
      Rng restored{1};
      std::mt19937_64 skip = reference(1);
      expect_raw_match(restored, skip, target_k, "advance target");
      snap::Deserializer in{bytes};
      restored.restore_state(in);
      EXPECT_EQ(restored.seed(), 77u);
      std::mt19937_64 ref_copy = ref;
      expect_raw_match(restored, ref_copy, 300, "restored");
      // Forks derive from the restored seed.
      Rng fork = restored.fork(5);
      Rng expected = Rng{77}.fork(5);
      std::mt19937_64 fork_ref = reference(expected.seed());
      expect_raw_match(fork, fork_ref, 200, "fork of restored");
      // The restored stream saves the same bytes as the reference.
      EXPECT_EQ(saved(restored), saved(77, ref_copy));
    }
  }
}

TEST(RngBitIdentity, StreamIsASmallValue) {
  // Five words: seed, two seeded words, the output count, the engine
  // pointer. An inline engine would be 2.5 KB per stream.
  EXPECT_LE(sizeof(Rng), 5 * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace essat::util
