#include "common/rng.h"

#include <cmath>

namespace dpcopula {

namespace {

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// 128-layer ziggurat for the standard normal (Marsaglia & Tsang, with
// Doornik's layout): kZigX[i] is the right edge of layer i (decreasing,
// kZigX[0] is the virtual base-layer width V/f(R), kZigX[1] = R,
// kZigX[128] = 0), kZigRatio[i] = kZigX[i+1]/kZigX[i] is the always-accept
// threshold for the uniform, and kZigF[i] = exp(-x_i^2/2) feeds the wedge
// test. Tables are built once at first use from the two published
// constants; everything else is derived, so there is no 400-line constant
// blob to transcribe wrong.
constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;       // x_1: start of the tail.
constexpr double kZigV = 9.91256303526217e-3;  // per-layer area.

struct ZigguratTables {
  double x[kZigLayers + 1];
  double ratio[kZigLayers];
  double f[kZigLayers + 1];

  ZigguratTables() {
    x[0] = kZigV / std::exp(-0.5 * kZigR * kZigR);
    x[1] = kZigR;
    x[kZigLayers] = 0.0;
    for (int i = 2; i < kZigLayers; ++i) {
      x[i] = std::sqrt(
          -2.0 * std::log(kZigV / x[i - 1] +
                          std::exp(-0.5 * x[i - 1] * x[i - 1])));
    }
    for (int i = 0; i < kZigLayers; ++i) ratio[i] = x[i + 1] / x[i];
    for (int i = 0; i <= kZigLayers; ++i) f[i] = std::exp(-0.5 * x[i] * x[i]);
  }
};

const ZigguratTables& ZigTables() {
  static const ZigguratTables tables;
  return tables;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpen() {
  // The top 52 bits as an integer k in [0, 2^52), shifted to the midpoint
  // k + 0.5 and scaled by 2^-52: values in [2^-53, 1 - 2^-53], never 0 or 1.
  return (static_cast<double>(NextUint64() >> 12) + 0.5) * 0x1.0p-52;
}

std::uint64_t Rng::NextUint64Below(std::uint64_t bound) {
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::NextInt64InRange(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextUint64Below(span));
}

double Rng::NextGaussian() {
  const ZigguratTables& t = ZigTables();
  for (;;) {
    // One draw serves both: low 7 bits pick the layer, the top 53 bits make
    // a signed uniform in (-1, 1). The bit ranges are disjoint, so layer
    // and position are independent.
    const std::uint64_t bits = NextUint64();
    const int i = static_cast<int>(bits & (kZigLayers - 1));
    const double u =
        2.0 * (static_cast<double>(bits >> 11) * 0x1.0p-53) - 1.0;
    if (std::fabs(u) < t.ratio[i]) return u * t.x[i];  // ~98.6% of draws.
    if (i == 0) {
      // Base layer overflow: sample the tail |z| > R (Marsaglia 1964).
      double xx, yy;
      do {
        xx = -std::log(NextDoubleOpen()) / kZigR;
        yy = -std::log(NextDoubleOpen());
      } while (2.0 * yy < xx * xx);
      return (u < 0.0) ? -(kZigR + xx) : kZigR + xx;
    }
    // Wedge between the inscribed and circumscribed rectangles: accept
    // with probability (f(z) - f(x_i)) / (f(x_{i+1}) - f(x_i)).
    const double z = u * t.x[i];
    if (t.f[i] + NextDouble() * (t.f[i + 1] - t.f[i]) <
        std::exp(-0.5 * z * z)) {
      return z;
    }
  }
}

void Rng::FillGaussian(double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = NextGaussian();
}

Rng Rng::Split() { return Rng(NextUint64() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace dpcopula
