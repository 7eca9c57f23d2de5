// AVX2 batch kernel for Phi^{-1}. Compiled with -mavx2 (and
// deliberately WITHOUT -mfma: a fused multiply-add rounds once where the
// scalar code rounds twice, which would break the bit-identity contract).
//
// Bit-identity with the scalar path is the design constraint, not an
// accident: every arithmetic step is a correctly-rounded IEEE-754
// operation (+, -, *, /, sqrt) issued in exactly the scalar evaluation
// order, and the libm transcendentals (log, erfc, exp) — whose rounding
// glibc does not guarantee across implementations — are invoked lane by
// lane through the very same scalar entry points normal.cc uses. A
// four-lane group whose elements do not all fall in the same Acklam branch
// (or that contains a special value: NaN, 0, 1, out-of-range) is delegated
// to the scalar NormalInverseCdf wholesale. The vector win is the rational
// polynomial, divide, sqrt and Halley arithmetic; the transcendental calls
// are shared with — and therefore identical to — the scalar kernel.
#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "stats/normal.h"
#include "stats/normal_acklam.h"

namespace dpcopula::stats::internal {

namespace {

/// ((((c0*q + c1)*q + c2)*q + c3)*q + c4)*q + c5 — Acklam tail numerator,
/// same Horner order as the scalar kernel.
inline __m256d TailNumerator(__m256d q) {
  __m256d acc = _mm256_set1_pd(kAcklamC[0]);
  for (int i = 1; i < 6; ++i) {
    acc = _mm256_add_pd(_mm256_mul_pd(acc, q), _mm256_set1_pd(kAcklamC[i]));
  }
  return acc;
}

/// (((d0*q + d1)*q + d2)*q + d3)*q + 1.0 — Acklam tail denominator.
inline __m256d TailDenominator(__m256d q) {
  __m256d acc = _mm256_set1_pd(kAcklamD[0]);
  for (int i = 1; i < 4; ++i) {
    acc = _mm256_add_pd(_mm256_mul_pd(acc, q), _mm256_set1_pd(kAcklamD[i]));
  }
  return _mm256_add_pd(_mm256_mul_pd(acc, q), _mm256_set1_pd(1.0));
}

/// One Halley refinement step on a 4-lane candidate vector, identical to
/// the scalar epilogue: e = Phi(x) - p, u = e / phi(x),
/// x <- x - u / (1 + 0.5 * x * u). Phi and phi are evaluated through the
/// scalar entry points so their erfc/exp rounding matches exactly.
inline __m256d HalleyStep(__m256d x, __m256d p) {
  alignas(32) double xs[4], cdf[4], pdf[4];
  _mm256_store_pd(xs, x);
  for (int k = 0; k < 4; ++k) {
    cdf[k] = NormalCdf(xs[k]);
    pdf[k] = NormalPdf(xs[k]);
  }
  const __m256d e = _mm256_sub_pd(_mm256_load_pd(cdf), p);
  const __m256d u = _mm256_div_pd(e, _mm256_load_pd(pdf));
  const __m256d hxu =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), x), u);
  return _mm256_sub_pd(
      x, _mm256_div_pd(u, _mm256_add_pd(_mm256_set1_pd(1.0), hxu)));
}

/// q = sqrt(-2 * log(t)) with the log taken lane by lane through libm —
/// the only transcendental in the tail branches.
inline __m256d TailQ(__m256d t) {
  alignas(32) double ts[4];
  _mm256_store_pd(ts, t);
  for (int k = 0; k < 4; ++k) ts[k] = std::log(ts[k]);
  return _mm256_sqrt_pd(
      _mm256_mul_pd(_mm256_set1_pd(-2.0), _mm256_load_pd(ts)));
}

}  // namespace

void NormalInverseCdfBatchAvx2(const double* p, double* z, std::size_t n) {
  const __m256d p_low = _mm256_set1_pd(kAcklamPLow);
  const __m256d p_high = _mm256_set1_pd(1.0 - kAcklamPLow);
  const __m256d zero = _mm256_set1_pd(0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vp = _mm256_loadu_pd(p + i);
    // Branch classification with ordered compares: a NaN lane fails every
    // mask and the group falls through to the scalar kernel, which owns
    // all special values.
    const int central = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(vp, p_low, _CMP_GE_OQ),
                      _mm256_cmp_pd(vp, p_high, _CMP_LE_OQ)));
    const int low = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(vp, zero, _CMP_GT_OQ),
                      _mm256_cmp_pd(vp, p_low, _CMP_LT_OQ)));
    const int high = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(vp, p_high, _CMP_GT_OQ),
                      _mm256_cmp_pd(vp, one, _CMP_LT_OQ)));

    __m256d x;
    if (central == 0xF) {
      // x = A(r) * q / B(r), q = p - 0.5, r = q^2.
      const __m256d q = _mm256_sub_pd(vp, _mm256_set1_pd(0.5));
      const __m256d r = _mm256_mul_pd(q, q);
      __m256d num = _mm256_set1_pd(kAcklamA[0]);
      for (int k = 1; k < 6; ++k) {
        num = _mm256_add_pd(_mm256_mul_pd(num, r),
                            _mm256_set1_pd(kAcklamA[k]));
      }
      __m256d den = _mm256_set1_pd(kAcklamB[0]);
      for (int k = 1; k < 5; ++k) {
        den = _mm256_add_pd(_mm256_mul_pd(den, r),
                            _mm256_set1_pd(kAcklamB[k]));
      }
      den = _mm256_add_pd(_mm256_mul_pd(den, r), one);
      x = _mm256_div_pd(_mm256_mul_pd(num, q), den);
    } else if (low == 0xF) {
      // x = C(q) / D(q), q = sqrt(-2 log p).
      const __m256d q = TailQ(vp);
      x = _mm256_div_pd(TailNumerator(q), TailDenominator(q));
    } else if (high == 0xF) {
      // x = -C(q) / D(q), q = sqrt(-2 log(1 - p)).
      const __m256d q = TailQ(_mm256_sub_pd(one, vp));
      x = _mm256_xor_pd(
          _mm256_div_pd(TailNumerator(q), TailDenominator(q)), sign_mask);
    } else {
      // Mixed branches or special values: the scalar kernel is the one
      // source of truth for NaN / 0 / 1 / out-of-range handling.
      for (int k = 0; k < 4; ++k) z[i + k] = NormalInverseCdf(p[i + k]);
      continue;
    }
    _mm256_storeu_pd(z + i, HalleyStep(x, vp));
  }
  for (; i < n; ++i) z[i] = NormalInverseCdf(p[i]);
}

}  // namespace dpcopula::stats::internal
