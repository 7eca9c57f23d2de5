// Test oracle for the orthonormal DCT (hist/dct.cc): the textbook O(N^2)
// DCT-II and DCT-III, one std::cos per term, that predates the FFT
// transform. It uses the same orthonormal scaling as hist::ForwardDct and
// hist::InverseDct, so the two agree to round-off at every length.
#ifndef DPCOPULA_TESTS_REFERENCE_DCT_REFERENCE_H_
#define DPCOPULA_TESTS_REFERENCE_DCT_REFERENCE_H_

#include <cmath>
#include <vector>

namespace dpcopula::reference {

inline std::vector<double> ForwardDct(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  const double pi_over_n = M_PI / static_cast<double>(n);
  const double s0 = std::sqrt(1.0 / static_cast<double>(n));
  const double sk = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += x[i] * std::cos(pi_over_n * (static_cast<double>(i) + 0.5) *
                             static_cast<double>(k));
    }
    out[k] = (k == 0 ? s0 : sk) * acc;
  }
  return out;
}

inline std::vector<double> InverseDct(const std::vector<double>& coeffs) {
  const std::size_t n = coeffs.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  const double pi_over_n = M_PI / static_cast<double>(n);
  const double s0 = std::sqrt(1.0 / static_cast<double>(n));
  const double sk = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    double acc = s0 * coeffs[0];
    for (std::size_t k = 1; k < n; ++k) {
      acc += sk * coeffs[k] *
             std::cos(pi_over_n * (static_cast<double>(i) + 0.5) *
                      static_cast<double>(k));
    }
    out[i] = acc;
  }
  return out;
}

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_DCT_REFERENCE_H_
