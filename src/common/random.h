// Deterministic, seedable RNG used by every randomized component.
//
// SplitMix64 for seeding, xoshiro256** for the stream. All samplers take an
// explicit Rng so experiments are reproducible bit-for-bit.

#ifndef PSGRAPH_COMMON_RANDOM_H_
#define PSGRAPH_COMMON_RANDOM_H_

#include <cstdint>

namespace psgraph {

/// One mixing step of SplitMix64; also usable as an integer hash finalizer.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Not cryptographic; fast and high quality for
/// simulation workloads.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& s : s_) s = SplitMix64(sm);
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's nearly-divisionless method.
    __uint128_t m = static_cast<__uint128_t>(NextU64()) * bound;
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float NextFloat() {
    return static_cast<float>(NextU64() >> 40) * 0x1.0p-24f;
  }

  bool NextBool(double p_true) { return NextDouble() < p_true; }

  /// Standard normal via Box-Muller (one value per call; simple, fine for
  /// embedding init).
  double NextGaussian();

  /// Forks an independent stream; children of distinct indices do not
  /// overlap in practice.
  Rng Fork(uint64_t index) const {
    uint64_t sm = s_[0] ^ (s_[3] + 0x9e3779b97f4a7c15ULL * (index + 1));
    return Rng(SplitMix64(sm));
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t s_[4];
};

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_RANDOM_H_
