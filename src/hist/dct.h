#ifndef DPCOPULA_HIST_DCT_H_
#define DPCOPULA_HIST_DCT_H_

#include <vector>

namespace dpcopula::hist {

/// Orthonormal DCT-II and its inverse (DCT-III). For input x of length N:
///   X_k = s_k * sum_n x_n cos(pi (n + 1/2) k / N),  s_0 = sqrt(1/N),
///   s_k = sqrt(2/N) for k > 0.
/// Orthonormality gives Parseval's identity, which the EFPA error analysis
/// relies on.
///
/// Both directions cost O(N log N) at every N >= 1 (DESIGN.md §15).
/// Makhoul's reordering maps the transform onto one length-N complex DFT.
/// A radix-2 FFT computes it when N is a power of two, and Bluestein's
/// chirp-z otherwise, by three radix-2 FFTs of the power of two
/// M >= 2N - 1 (M < 4N). Each twiddle and chirp is one cos/sin of an exactly
/// reduced angle, with no recurrence, and nothing is cached between calls.
/// Peak scratch is Bluestein's: two complex buffers of length M, plus an
/// N-entry chirp, an M/2-entry twiddle table and the N-entry reordered
/// input, about 200 KB at N = 1,248 and 115 MB at N = 10^6. Results agree
/// with the direct O(N^2) sums (tests/reference/dct_reference.h) within
/// 1e-12 * ||x||_2.
std::vector<double> ForwardDct(const std::vector<double>& x);
std::vector<double> InverseDct(const std::vector<double>& coeffs);

}  // namespace dpcopula::hist

#endif  // DPCOPULA_HIST_DCT_H_
