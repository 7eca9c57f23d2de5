#include "copula/gaussian_copula.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpcopula::copula {

namespace {

/// Tile height for the blocked correlation kernel. 256 rows x 8 bytes keeps
/// one tile of every column (m <= a few hundred) inside L2 while the
/// C(m,2)+m pair accumulations sweep it.
constexpr std::size_t kCorrTileRows = 256;

/// Grow-once scratch for NormalScoresCorrelationTiledPacked; one per
/// thread.
struct CorrWorkspace {
  std::vector<double> centered;  // m x kCorrTileRows, column-major tiles.
  std::vector<double> acc;       // Packed upper triangle incl. diagonal.
  std::vector<double> mean;
  std::vector<std::uint32_t> pa;  // Packed index -> column a.
  std::vector<std::uint32_t> pb;  // Packed index -> column b.
};

}  // namespace

Result<linalg::PackedSymmetric> NormalScoresCorrelationTiledPacked(
    const double* const* cols, std::size_t m, std::size_t n) {
  if (m == 0) return Status::InvalidArgument("no score columns");
  if (n < 2) return Status::InvalidArgument("need >= 2 rows");

  // Pair p of the packed upper-triangle accumulators covers columns
  // ws.pa[p] <= ws.pb[p], a-major.
  thread_local CorrWorkspace ws;
  ws.mean.assign(m, 0.0);
  ws.acc.assign(m * (m + 1) / 2, 0.0);
  ws.centered.resize(m * kCorrTileRows);
  ws.pa.resize(ws.acc.size());
  ws.pb.resize(ws.acc.size());
  {
    std::size_t p = 0;
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = a; b < m; ++b, ++p) {
        ws.pa[p] = static_cast<std::uint32_t>(a);
        ws.pb[p] = static_cast<std::uint32_t>(b);
      }
    }
  }

  // Column means: one sequential pass per column in row order.
  for (std::size_t j = 0; j < m; ++j) {
    double s = 0.0;
    const double* c = cols[j];
    for (std::size_t i = 0; i < n; ++i) s += c[i];
    ws.mean[j] = s / static_cast<double>(n);
  }

  // Blocked syrk-style accumulation: center one tile of every column, then
  // run all pairs over the hot tile. Carrying each pair's scalar
  // accumulator across tiles in row order keeps every pair's sum strictly
  // sequential.
  for (std::size_t i0 = 0; i0 < n; i0 += kCorrTileRows) {
    const std::size_t tile = std::min(kCorrTileRows, n - i0);
    for (std::size_t j = 0; j < m; ++j) {
      const double* c = cols[j] + i0;
      const double mu = ws.mean[j];
      double* dst = ws.centered.data() + j * kCorrTileRows;
      for (std::size_t ii = 0; ii < tile; ++ii) dst[ii] = c[ii] - mu;
    }
    // Four pairs at a time: each pair keeps its own strictly sequential
    // accumulation, but the four independent chains hide the FP-add
    // latency that bounds a single running sum.
    const std::size_t np = ws.acc.size();
    std::size_t p = 0;
    for (; p + 4 <= np; p += 4) {
      const double* a0 = ws.centered.data() + ws.pa[p] * kCorrTileRows;
      const double* b0 = ws.centered.data() + ws.pb[p] * kCorrTileRows;
      const double* a1 = ws.centered.data() + ws.pa[p + 1] * kCorrTileRows;
      const double* b1 = ws.centered.data() + ws.pb[p + 1] * kCorrTileRows;
      const double* a2 = ws.centered.data() + ws.pa[p + 2] * kCorrTileRows;
      const double* b2 = ws.centered.data() + ws.pb[p + 2] * kCorrTileRows;
      const double* a3 = ws.centered.data() + ws.pa[p + 3] * kCorrTileRows;
      const double* b3 = ws.centered.data() + ws.pb[p + 3] * kCorrTileRows;
      double s0 = ws.acc[p];
      double s1 = ws.acc[p + 1];
      double s2 = ws.acc[p + 2];
      double s3 = ws.acc[p + 3];
      for (std::size_t ii = 0; ii < tile; ++ii) {
        s0 += a0[ii] * b0[ii];
        s1 += a1[ii] * b1[ii];
        s2 += a2[ii] * b2[ii];
        s3 += a3[ii] * b3[ii];
      }
      ws.acc[p] = s0;
      ws.acc[p + 1] = s1;
      ws.acc[p + 2] = s2;
      ws.acc[p + 3] = s3;
    }
    for (; p < np; ++p) {
      const double* ca = ws.centered.data() + ws.pa[p] * kCorrTileRows;
      const double* cb = ws.centered.data() + ws.pb[p] * kCorrTileRows;
      double s = ws.acc[p];
      for (std::size_t ii = 0; ii < tile; ++ii) s += ca[ii] * cb[ii];
      ws.acc[p] = s;
    }
  }

  // Diagonal covariance entries: pair (a, a) sits at the head of column
  // a's run in the a-major packed upper triangle.
  std::vector<double> cov_diag(m);
  for (std::size_t a = 0; a < m; ++a) {
    cov_diag[a] = ws.acc[a * m - a * (a - 1) / 2];
  }
  // Normalize straight into packed storage — one store per coefficient. A
  // zero-variance column gets zero off-diagonal correlations.
  linalg::PackedSymmetric corr(m);
  std::size_t p = 0;
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a; b < m; ++b, ++p) {
      if (a == b) {
        corr.at(a, a) = 1.0;
        continue;
      }
      const double denom = std::sqrt(cov_diag[a] * cov_diag[b]);
      corr.at(b, a) = (denom > 0.0) ? ws.acc[p] / denom : 0.0;
    }
  }
  return corr;
}

}  // namespace dpcopula::copula
