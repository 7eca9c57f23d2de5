#include "hist/dct.h"

#include <cmath>
#include <complex>
#include <cstdint>
#include <utility>

namespace dpcopula::hist {

namespace {

using Complex = std::complex<double>;

// e^{-i pi num / den}. Callers pass num already reduced below 2 den, so
// every twiddle and chirp is one cos/sin of an angle in (-2 pi, 0].
Complex ExpMinusIPi(std::uint64_t num, std::uint64_t den) {
  const double angle =
      -M_PI * static_cast<double>(num) / static_cast<double>(den);
  return {std::cos(angle), std::sin(angle)};
}

// In-place forward DFT, a_k <- sum_j a_j e^{-2 pi i jk/m}, of a power-of-two
// length m: iterative radix-2 decimation in time. The m/2 twiddles
// e^{-2 pi i j/m} are set up once and shared by every stage.
void Radix2Fft(std::vector<Complex>* data,
               const std::vector<Complex>& twiddles) {
  std::vector<Complex>& a = *data;
  const std::size_t m = a.size();
  for (std::size_t i = 1, j = 0; i < m; ++i) {  // Bit-reversal permutation.
    std::size_t bit = m >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t half = 1; half < m; half <<= 1) {
    const std::size_t stride = m / (2 * half);
    for (std::size_t start = 0; start < m; start += 2 * half) {
      for (std::size_t j = 0; j < half; ++j) {
        const Complex t = twiddles[j * stride] * a[start + half + j];
        a[start + half + j] = a[start + j] - t;
        a[start + j] += t;
      }
    }
  }
}

std::vector<Complex> Twiddles(std::size_t m) {
  std::vector<Complex> twiddles(m / 2);
  for (std::size_t j = 0; j < m / 2; ++j) twiddles[j] = ExpMinusIPi(j, m / 2);
  return twiddles;
}

// In-place forward DFT of any length n >= 1. A power of two goes straight to
// the radix-2 FFT. Otherwise Bluestein's chirp-z writes jk = (j^2 + k^2 -
// (k - j)^2) / 2, so X_k = c_k sum_j (x_j c_j) conj(c_{k-j}) with the chirp
// c_j = e^{-i pi j^2/n}: a linear convolution that three radix-2 FFTs of a
// power of two m >= 2n - 1 compute cyclically without wrap-around.
void Dft(std::vector<Complex>* data) {
  std::vector<Complex>& x = *data;
  const std::size_t n = x.size();
  if ((n & (n - 1)) == 0) {
    Radix2Fft(data, Twiddles(n));
    return;
  }
  std::size_t m = 1;
  while (m < 2 * n - 1) m <<= 1;
  const std::vector<Complex> twiddles = Twiddles(m);

  // c_j depends on j^2 only modulo 2n; reducing the integer first keeps the
  // angle exact at any n.
  std::vector<Complex> chirp(n);
  for (std::size_t j = 0; j < n; ++j) {
    chirp[j] = ExpMinusIPi(static_cast<std::uint64_t>(j) * j % (2 * n), n);
  }
  std::vector<Complex> a(m);
  std::vector<Complex> b(m);
  for (std::size_t j = 0; j < n; ++j) a[j] = x[j] * chirp[j];
  b[0] = std::conj(chirp[0]);
  for (std::size_t j = 1; j < n; ++j) {
    b[j] = b[m - j] = std::conj(chirp[j]);
  }
  Radix2Fft(&a, twiddles);
  Radix2Fft(&b, twiddles);
  // Inverse FFT by conjugation: ifft(z) = conj(fft(conj(z))) / m.
  for (std::size_t k = 0; k < m; ++k) a[k] = std::conj(a[k] * b[k]);
  Radix2Fft(&a, twiddles);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) {
    x[k] = chirp[k] * std::conj(a[k]) * inv_m;
  }
}

}  // namespace

// Makhoul (1980): the DCT-II of x is the real part of a length-n DFT of x
// reordered as evens ascending then odds descending, each bin k turned by
// e^{-i pi k/2n}.
std::vector<double> ForwardDct(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  std::vector<Complex> v(n);
  for (std::size_t j = 0; 2 * j < n; ++j) v[j] = x[2 * j];
  for (std::size_t j = 0; 2 * j + 1 < n; ++j) v[n - 1 - j] = x[2 * j + 1];
  Dft(&v);
  const double s0 = std::sqrt(1.0 / static_cast<double>(n));
  const double sk = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = (k == 0 ? s0 : sk) * (ExpMinusIPi(k, 2 * n) * v[k]).real();
  }
  return out;
}

// The same map run backwards. With a_k the coefficients times their
// orthonormal scales, V_0 = a_0 and V_k = (1/2) e^{i pi k/2n} (a_k -
// i a_{n-k}); the unnormalised inverse DFT v of V is real, and the output
// is y_{2j} = v_j, y_{2j+1} = v_{n-1-j}. Re v is the real part of the
// forward DFT of conj(V), so one forward transform serves both directions.
std::vector<double> InverseDct(const std::vector<double>& coeffs) {
  const std::size_t n = coeffs.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  const double s0 = std::sqrt(1.0 / static_cast<double>(n));
  const double half_sk = 0.5 * std::sqrt(2.0 / static_cast<double>(n));
  std::vector<Complex> v(n);
  v[0] = s0 * coeffs[0];
  for (std::size_t k = 1; k < n; ++k) {  // v_k = conj(V_k).
    v[k] = ExpMinusIPi(k, 2 * n) *
           Complex(half_sk * coeffs[k], half_sk * coeffs[n - k]);
  }
  Dft(&v);
  for (std::size_t j = 0; 2 * j < n; ++j) out[2 * j] = v[j].real();
  for (std::size_t j = 0; 2 * j + 1 < n; ++j) {
    out[2 * j + 1] = v[n - 1 - j].real();
  }
  return out;
}

}  // namespace dpcopula::hist
