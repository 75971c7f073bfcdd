#include "src/util/rng.h"

#include <sstream>

#include "src/snap/serializer.h"

namespace essat::util {
namespace {

using Engine = std::mt19937_64;

// Outputs served from the seeded words: the first twist's first half,
// which reads no word it has already rewritten.
constexpr std::uint64_t kPrefix = Engine::state_size - Engine::shift_size;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << Engine::mask_bits;

// SplitMix64: well-distributed seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Seeded word x[i] from x[i-1] (std::mersenne_twister_engine::seed).
std::uint64_t seed_step(std::uint64_t prev, std::uint64_t i) {
  return Engine::initialization_multiplier *
             (prev ^ (prev >> (Engine::word_size - 2))) +
         i;
}

std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> Engine::tempering_u) & Engine::tempering_d;
  z ^= (z << Engine::tempering_s) & Engine::tempering_b;
  z ^= (z << Engine::tempering_t) & Engine::tempering_c;
  return z ^ (z >> Engine::tempering_l);
}

std::unique_ptr<Engine> clone(const std::unique_ptr<Engine>& e) {
  return e ? std::make_unique<Engine>(*e) : nullptr;
}

}  // namespace

// Uniform random bit generator over Rng's output, so the std distributions
// see the same range and the same words as they would from the engine.
class Rng::Bits {
 public:
  using result_type = Engine::result_type;
  static constexpr result_type min() { return Engine::min(); }
  static constexpr result_type max() { return Engine::max(); }
  explicit Bits(Rng& rng) : rng_{rng} {}
  result_type operator()() { return rng_.next_(); }

 private:
  Rng& rng_;
};

Rng::Rng(Rng&& other) noexcept
    : seed_{other.seed_},
      lo_{other.lo_},
      hi_{other.hi_},
      k_{other.k_},
      engine_{clone(other.engine_)} {}

Rng& Rng::operator=(Rng&& other) noexcept {
  seed_ = other.seed_;
  lo_ = other.lo_;
  hi_ = other.hi_;
  k_ = other.k_;
  engine_ = clone(other.engine_);
  return *this;
}

Rng Rng::fork(std::uint64_t stream) const {
  return Rng{splitmix64(seed_ ^ splitmix64(stream + 0x517cc1b727220a95ULL))};
}

std::uint64_t Rng::next_() {
  if (engine_ != nullptr) return (*engine_)();
  return next_from_seed_words_();
}

std::uint64_t Rng::next_from_seed_words_() {
  if (k_ == kPrefix) {
    engine_ = std::make_unique<Engine>(splitmix64(seed_));
    engine_->discard(kPrefix);
    return (*engine_)();
  }
  if (k_ == 0) {
    lo_ = splitmix64(seed_);
    hi_ = lo_;
    for (std::uint64_t i = 1; i <= Engine::shift_size; ++i) {
      hi_ = seed_step(hi_, i);
    }
  }
  // The first twist's word k, then output k (std::mersenne_twister_engine::
  // _M_gen_rand's first loop, and operator()).
  const std::uint64_t next_lo = seed_step(lo_, k_ + 1);
  const std::uint64_t y = (lo_ & kUpperMask) | (next_lo & ~kUpperMask);
  const std::uint64_t word =
      hi_ ^ (y >> 1) ^ ((y & 1) != 0 ? Engine::xor_mask : 0);
  lo_ = next_lo;
  // At the last prefix output this is x[312], which is never read.
  hi_ = seed_step(hi_, k_ + Engine::shift_size + 1);
  ++k_;
  return temper(word);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d{lo, hi};
  Bits bits{*this};
  return d(bits);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d{lo, hi};
  Bits bits{*this};
  return d(bits);
}

Time Rng::uniform_time(Time lo, Time hi) {
  if (hi <= lo) return lo;
  return Time::nanoseconds(uniform_int(lo.ns(), hi.ns() - 1));
}

double Rng::exponential(double mean) {
  std::exponential_distribution<double> d{1.0 / mean};
  Bits bits{*this};
  return d(bits);
}

double Rng::normal(double mean, double stddev) {
  // Scale a standard draw rather than passing stddev to the distribution:
  // libstdc++ requires stddev > 0 there, and a zero spread (e.g. shadowing
  // off) must simply return the mean. z * stddev + mean is the formula
  // libstdc++ applies itself, so draws for stddev > 0 are bit-identical.
  std::normal_distribution<double> d{0.0, 1.0};
  Bits bits{*this};
  return d(bits) * stddev + mean;
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution d{p};
  Bits bits{*this};
  return d(bits);
}

void Rng::save_state(snap::Serializer& out) const {
  out.u64(seed_);
  std::ostringstream ss;
  if (engine_ != nullptr) {
    ss << *engine_;
  } else {
    Engine e{splitmix64(seed_)};
    e.discard(k_);
    ss << e;
  }
  out.str(ss.str());
}

void Rng::restore_state(snap::Deserializer& in) {
  seed_ = in.u64();
  auto e = std::make_unique<Engine>();
  std::istringstream ss{in.str()};
  ss >> *e;
  if (!ss) throw snap::SnapError{"corrupt mt19937_64 engine state"};
  engine_ = std::move(e);
  k_ = kPrefix;
}

}  // namespace essat::util
