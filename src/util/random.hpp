#pragma once
// Deterministic, fast random number generation.
//
// All experiments are seeded so that paper-reproduction runs are exactly
// repeatable; figures that report min/avg/max over 10 seeds (paper
// Fig. 6) iterate seed = 0..9.  xoshiro256** is used instead of
// std::mt19937_64 for speed when filling large random matrices.

#include <cstdint>
#include <span>

namespace tsbo::util {

/// xoshiro256** by Blackman & Vigna: tiny state, excellent statistical
/// quality, much faster than Mersenne Twister for bulk generation.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 seeding as recommended by the authors.
    std::uint64_t z = seed;
    for (auto& s : state_) {
      z += 0x9e3779b97f4a7c15ull;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      s = x ^ (x >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Marsaglia polar method.
  double normal();

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) { return next() % n; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// Fills `out` with i.i.d. standard normal samples.
void fill_normal(Xoshiro256& rng, std::span<double> out);

}  // namespace tsbo::util
