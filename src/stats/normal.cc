#include "stats/normal.h"

#include <cmath>
#include <limits>

#include "common/cpuinfo.h"
#include "stats/normal_acklam.h"

#ifndef DPCOPULA_SIMD_COMPILED
#define DPCOPULA_SIMD_COMPILED 0
#endif

namespace dpcopula::stats {

namespace {
constexpr double kSqrt2 = 1.4142135623730951;
constexpr double kInvSqrt2Pi = 0.3989422804014327;
}  // namespace

double NormalPdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }

double NormalCdf(double x) { return 0.5 * std::erfc(-x / kSqrt2); }

double NormalInverseCdf(double p) {
  if (std::isnan(p) || p < 0.0 || p > 1.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (p == 0.0) return -std::numeric_limits<double>::infinity();
  if (p == 1.0) return std::numeric_limits<double>::infinity();

  // Coefficients for Acklam's rational approximation (shared with the AVX2
  // batch kernel — see normal_acklam.h).
  const double* a = internal::kAcklamA;
  const double* b = internal::kAcklamB;
  const double* c = internal::kAcklamC;
  const double* d = internal::kAcklamD;
  constexpr double p_low = internal::kAcklamPLow;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // One Halley refinement step pushes the error to near machine precision.
  const double e = NormalCdf(x) - p;
  const double u = e / NormalPdf(x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

namespace internal {

void NormalInverseCdfBatchScalar(const double* p, double* z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = NormalInverseCdf(p[i]);
}

#if !DPCOPULA_SIMD_COMPILED
// The compiler does not take -mavx2, so the AVX2 translation unit is not
// part of this build; keep the symbol defined (as a scalar forward) so tests
// can reference it unconditionally.
void NormalInverseCdfBatchAvx2(const double* p, double* z, std::size_t n) {
  NormalInverseCdfBatchScalar(p, z, n);
}
#endif

}  // namespace internal

bool NormalBatchAvx2Compiled() { return DPCOPULA_SIMD_COMPILED != 0; }

bool NormalBatchAvx2Active() {
  // Resolved once: CPU features cannot change mid process, and a stable
  // answer keeps every batch call's dispatch to one predictable branch.
  static const bool active =
      NormalBatchAvx2Compiled() && common::CpuSupportsAvx2();
  return active;
}

void NormalInverseCdfBatch(const double* p, double* z, std::size_t n) {
  if (NormalBatchAvx2Active()) {
    internal::NormalInverseCdfBatchAvx2(p, z, n);
  } else {
    internal::NormalInverseCdfBatchScalar(p, z, n);
  }
}

}  // namespace dpcopula::stats
