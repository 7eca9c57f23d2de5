#ifndef DPCOPULA_COMMON_RNG_H_
#define DPCOPULA_COMMON_RNG_H_

#include <cstdint>

namespace dpcopula {

/// Deterministic pseudo-random number generator: xoshiro256++ seeded through
/// splitmix64. Fast, high quality, and reproducible across platforms, which
/// matters for the experiment harness (every bench fixes its seed).
///
/// Not cryptographically secure; the privacy guarantees in this library are
/// analytical (sensitivity / Laplace-scale proofs), and a production release
/// for adversarial settings would swap in a CSPRNG behind this same interface.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  std::uint64_t NextUint64();

  /// Uniform on [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform on (0, 1) — never returns exactly 0, safe for log() transforms.
  double NextDoubleOpen();

  /// Uniform integer in [0, bound), bound > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t NextUint64Below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive, lo <= hi.
  std::int64_t NextInt64InRange(std::int64_t lo, std::int64_t hi);

  /// Standard normal deviate via the 128-layer ziggurat of Marsaglia &
  /// Tsang (Doornik's variant): one 64-bit draw serves both the layer
  /// index (low 7 bits) and the 53-bit uniform, so the common case is a
  /// single multiply + compare. Wedge and tail rejections draw more.
  double NextGaussian();

  /// Fills dst[0..n) with n successive NextGaussian() deviates; the
  /// block-sampling hot path for the tiled copula kernel.
  void FillGaussian(double* dst, std::size_t n);

  /// Derives an independent child generator; useful for giving parallel
  /// experiment arms decorrelated streams from one master seed.
  Rng Split();

 private:
  std::uint64_t s_[4];
};

}  // namespace dpcopula

#endif  // DPCOPULA_COMMON_RNG_H_
