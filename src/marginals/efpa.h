#ifndef DPCOPULA_MARGINALS_EFPA_H_
#define DPCOPULA_MARGINALS_EFPA_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace dpcopula::marginals {

/// EFPA — Enhanced Fourier Perturbation Algorithm (Acs, Castelluccia &
/// Chen [1]) — the method DPCopula uses to publish its DP marginal
/// histograms (paper §4.1 step 1).
///
/// The histogram is moved into an orthonormal frequency basis (we use
/// DCT-II; see DESIGN.md §3 on this substitution), the number k of retained
/// low-frequency coefficients is chosen *privately* with the exponential
/// mechanism scoring the expected reconstruction error (compression tail
/// energy + Laplace noise energy), the k retained coefficients get
/// Lap(sqrt(k)/epsilon_noise) noise (the L1 sensitivity of k orthonormal
/// coefficients is at most sqrt(k) because one record changes the
/// coefficient vector by at most 1 in L2), and the inverse transform
/// reconstructs the histogram.
///
/// Budget split: epsilon/2 for selecting k, epsilon/2 for the noise.
///
/// The private selection additionally considers the *identity* release
/// (per-bin Laplace, Dwork's method) as a candidate, whose expected-error
/// score is data-independent: for spiky, incompressible histograms (e.g.
/// zipf margins) identity noise dominates any frequency truncation, and
/// the exponential mechanism will pick it.
///
/// Publishes a noisy histogram with `epsilon`-DP. Output may contain
/// negative values; callers clamp as needed.
Result<std::vector<double>> PublishEfpaHistogram(
    const std::vector<double>& counts, double epsilon, Rng* rng);

/// Expected squared reconstruction error if k coefficients are kept:
/// tail energy + k Laplace variances (exposed for tests/ablation).
double EfpaExpectedError(const std::vector<double>& spectrum_sq_tail,
                         std::size_t k, double epsilon_noise);

}  // namespace dpcopula::marginals

#endif  // DPCOPULA_MARGINALS_EFPA_H_
