#ifndef DPCOPULA_STATS_NORMAL_H_
#define DPCOPULA_STATS_NORMAL_H_

#include <cstddef>

namespace dpcopula::stats {

/// Standard normal density phi(x).
double NormalPdf(double x);

/// Standard normal CDF Phi(x), accurate to ~1e-15 via erfc.
double NormalCdf(double x);

/// Inverse standard normal CDF Phi^{-1}(p) for p in (0, 1).
/// Acklam's rational approximation refined with one Halley step, giving
/// ~1e-15 relative accuracy over the full open interval. Returns +/-inf at
/// p = 1 / p = 0 and NaN outside [0, 1].
double NormalInverseCdf(double p);

/// Batch form of NormalInverseCdf, behind both array-shaped Phi^{-1}
/// evaluations: the sampler's InverseCdfTable z-edge construction and the
/// batched MLE normal-score build. Dispatches at runtime to an AVX2 kernel
/// when the build compiled one (the compiler takes -mavx2) and the CPU
/// supports AVX2; otherwise a scalar loop over NormalInverseCdf runs. Both
/// paths are bit-identical element for element — the vector kernel
/// performs the same correctly-rounded IEEE operation sequence and defers
/// to the scalar libm transcendentals lane by lane — so the dispatch can
/// never change a released result.
///
/// `p` and `z` may alias only if identical; n may be 0.
void NormalInverseCdfBatch(const double* p, double* z, std::size_t n);

/// True when the AVX2 batch kernel was compiled into this binary.
bool NormalBatchAvx2Compiled();

/// True when the batch entry point above will actually dispatch to the
/// AVX2 kernel at runtime (compiled in + CPU support).
bool NormalBatchAvx2Active();

namespace internal {

/// Scalar reference loop (exactly the batch fallback), exposed so tests
/// and microbenchmarks can pin the non-SIMD path regardless of dispatch.
void NormalInverseCdfBatchScalar(const double* p, double* z, std::size_t n);

/// AVX2 kernel. When the build did not compile it (the compiler has no
/// -mavx2) this symbol is defined as a forward to the scalar loop, so
/// tests may always reference it; NormalBatchAvx2Compiled() says which
/// implementation is behind the name.
void NormalInverseCdfBatchAvx2(const double* p, double* z, std::size_t n);

}  // namespace internal

}  // namespace dpcopula::stats

#endif  // DPCOPULA_STATS_NORMAL_H_
