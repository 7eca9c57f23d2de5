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

/// Batch forms of the three functions above, shared by every hot path that
/// evaluates Phi / Phi^{-1} over arrays (the sampler's InverseCdfTable
/// z-edge construction, the batched MLE normal-score build, and the
/// synthetic-data generator). Dispatch at runtime to an AVX2 kernel when
/// the build compiled one (the compiler takes -mavx2) and the CPU supports
/// AVX2; otherwise a scalar loop over the functions above runs. Both paths
/// are bit-identical element for element — the vector kernel performs the
/// same correctly-rounded IEEE operation sequence and defers to the scalar
/// libm transcendentals lane by lane — so the dispatch can never change a
/// released result.
///
/// `in` and `out` may alias only if identical; n may be 0.
void NormalInverseCdfBatch(const double* p, double* z, std::size_t n);
void NormalCdfBatch(const double* x, double* out, std::size_t n);
void NormalPdfBatch(const double* x, double* out, std::size_t n);

/// True when the AVX2 batch kernels were compiled into this binary.
bool NormalBatchAvx2Compiled();

/// True when the batch entry points above will actually dispatch to the
/// AVX2 kernels at runtime (compiled in + CPU support).
bool NormalBatchAvx2Active();

namespace internal {

/// Scalar reference loops (exactly the batch fallback), exposed so tests
/// and microbenchmarks can pin the non-SIMD path regardless of dispatch.
void NormalInverseCdfBatchScalar(const double* p, double* z, std::size_t n);
void NormalCdfBatchScalar(const double* x, double* out, std::size_t n);
void NormalPdfBatchScalar(const double* x, double* out, std::size_t n);

/// AVX2 kernels. When the build did not compile them (the compiler has no
/// -mavx2) these symbols are defined as forwards to the scalar loops, so
/// tests may always reference them; NormalBatchAvx2Compiled() says which
/// implementation is behind the name.
void NormalInverseCdfBatchAvx2(const double* p, double* z, std::size_t n);
void NormalCdfBatchAvx2(const double* x, double* out, std::size_t n);
void NormalPdfBatchAvx2(const double* x, double* out, std::size_t n);

}  // namespace internal

}  // namespace dpcopula::stats

#endif  // DPCOPULA_STATS_NORMAL_H_
