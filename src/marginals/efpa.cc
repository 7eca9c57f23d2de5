#include "marginals/efpa.h"

#include <algorithm>
#include <cmath>

#include "dp/mechanisms.h"
#include "hist/dct.h"
#include "stats/distributions.h"

namespace dpcopula::marginals {

namespace {

// Fraction of the budget spent on the private selection of k.
constexpr double kSelectionFraction = 0.5;

}  // namespace

double EfpaExpectedError(const std::vector<double>& spectrum_sq_tail,
                         std::size_t k, double epsilon_noise) {
  // spectrum_sq_tail[k] = sum_{i >= k} F_i^2 (energy discarded when keeping
  // the first k coefficients). Each kept coefficient carries Laplace noise
  // with scale sqrt(k)/eps => variance 2k/eps^2; k of them total 2k^2/eps^2.
  const double tail = spectrum_sq_tail[k];
  const double kd = static_cast<double>(k);
  const double noise = 2.0 * kd * kd / (epsilon_noise * epsilon_noise);
  return tail + noise;
}

Result<std::vector<double>> PublishEfpaHistogram(
    const std::vector<double>& counts, double epsilon, Rng* rng) {
  if (counts.empty()) {
    return Status::InvalidArgument("EFPA: empty input");
  }
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("EFPA: epsilon must be > 0");
  }
  const double eps_select = epsilon * kSelectionFraction;
  const double eps_noise = epsilon - eps_select;
  const std::size_t n = counts.size();

  const std::vector<double> spectrum = hist::ForwardDct(counts);

  // Suffix energies: tail[k] = sum_{i >= k} F_i^2.
  std::vector<double> tail(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    tail[i] = tail[i + 1] + spectrum[i] * spectrum[i];
  }

  // Score for keeping k coefficients: negative RMSE of the expected
  // reconstruction. Using the square root bounds the score's sensitivity:
  // one record moves the spectrum by <= 1 in L2, so sqrt(tail(k)) moves by
  // <= 1 and the noise term is data-independent.
  //
  // Candidate n+1 is the *identity* release (per-bin Laplace with
  // sensitivity 1, expected squared error 2n/eps^2, data-independent
  // score): spiky, incompressible histograms — e.g. zipf-distributed
  // attributes — are served far better by identity noise than by any
  // frequency-domain truncation, and letting the exponential mechanism
  // make that choice keeps the whole selection private.
  std::vector<double> scores(n + 1);
  for (std::size_t k = 1; k <= n; ++k) {
    scores[k - 1] = -std::sqrt(EfpaExpectedError(tail, k, eps_noise));
  }
  scores[n] =
      -std::sqrt(2.0 * static_cast<double>(n)) / eps_noise;  // Identity.
  DPC_ASSIGN_OR_RETURN(
      std::size_t k_index,
      dp::ExponentialMechanism(rng, scores, eps_select, /*sensitivity=*/1.0));

  if (k_index == n) {
    // Identity branch: Lap(1/eps_noise) per bin in the count domain.
    std::vector<double> noisy(n);
    for (std::size_t i = 0; i < n; ++i) {
      noisy[i] = counts[i] + stats::SampleLaplace(rng, 1.0 / eps_noise);
    }
    return noisy;
  }
  const std::size_t k = k_index + 1;

  // Perturb the first k coefficients with Lap(sqrt(k)/eps_noise); drop the
  // rest (keeping the *prefix* avoids leaking which indices were largest).
  std::vector<double> noisy(n, 0.0);
  const double scale = std::sqrt(static_cast<double>(k)) / eps_noise;
  for (std::size_t i = 0; i < k; ++i) {
    noisy[i] = spectrum[i] + stats::SampleLaplace(rng, scale);
  }
  return hist::InverseDct(noisy);
}

}  // namespace dpcopula::marginals
