// Stage-1/stage-2 implementation of EigenSym: Householder
// tridiagonalization with deterministic row-sharded update loops, then
// implicit-shift QL on the tridiagonal with eigenvector accumulation.
// Dispatch, validation and the `linalg.eigen.converge` failpoint live in
// eigen_sym.cc; this file assumes a square, symmetric input.

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "linalg/eigen_sym.h"

namespace dpcopula::linalg::internal {

namespace {

/// Dimension below which the Householder update loops are not worth
/// sharding: a whole step's rank-2 update is ~l^2 flops, and below this the
/// pool dispatch costs more than it saves. The cutoff depends only on the
/// matrix dimension — never on the data or the thread count — so it cannot
/// perturb determinism.
constexpr std::size_t kParallelMinDim = 96;

/// Rows per shard of the Householder update loops. Row j of the active
/// block costs O(j) flops, so a modest grain amortizes dispatch while
/// keeping the tail balanced.
constexpr std::size_t kHouseholderGrain = 16;

}  // namespace

void HouseholderTridiagonalize(Matrix* z, std::vector<double>* d,
                               std::vector<double>* e, int num_threads) {
  Matrix& q = *z;
  const std::size_t n = q.rows();
  d->assign(n, 0.0);
  e->assign(n, 0.0);
  if (n == 0) return;
  const int threads = (n < kParallelMinDim) ? 1 : num_threads;
  std::vector<double> w(n, 0.0);  // A v / h, then the rank-2 vector w.

  // Reduce rows n-1 .. 1, shrinking the active leading block each step.
  // Only the lower triangle of the active block is read or written; the
  // strict upper triangle of column i stores v/h for the back-accumulation
  // below (the classic tred2 storage scheme).
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(q(i, k));
      if (scale == 0.0) {
        (*e)[i] = q(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          q(i, k) /= scale;  // Row i now holds the scaled Householder v.
          h += q(i, k) * q(i, k);
        }
        double f = q(i, l);
        const double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        (*e)[i] = scale * g;
        h -= f * g;  // h = |v|^2 / 2 up to the sign convention.
        q(i, l) = f - g;
        // w = A v / h over the leading (l+1)-block. Each row j is an
        // independent fixed-order dot product (reading only the lower
        // triangle plus the frozen row i), so the shard decomposition
        // cannot change a single bit of w. The v/h store into column i is
        // disjoint from every read (columns <= l).
        ParallelFor(
            0, l + 1, kHouseholderGrain,
            [&](std::size_t jb, std::size_t je) {
              for (std::size_t j = jb; j < je; ++j) {
                q(j, i) = q(i, j) / h;
                double acc = 0.0;
                for (std::size_t k = 0; k <= j; ++k) acc += q(j, k) * q(i, k);
                for (std::size_t k = j + 1; k <= l; ++k)
                  acc += q(k, j) * q(i, k);
                w[j] = acc / h;
              }
            },
            threads);
        // K = v^T w / 2h: one fixed-order sequential reduction, then
        // w <- w - K v is finalized *before* the rank-2 update so every
        // row reads the same w regardless of sharding.
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) f += w[j] * q(i, j);
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) w[j] -= hh * q(i, j);
        // A <- A - v w^T - w v^T on the lower triangle; row j writes only
        // row j and reads only the frozen v (row i) and w.
        ParallelFor(
            0, l + 1, kHouseholderGrain,
            [&](std::size_t jb, std::size_t je) {
              for (std::size_t j = jb; j < je; ++j) {
                const double vj = q(i, j);
                const double wj = w[j];
                for (std::size_t k = 0; k <= j; ++k) {
                  q(j, k) -= vj * w[k] + wj * q(i, k);
                }
              }
            },
            threads);
      }
    } else {
      (*e)[i] = q(i, l);
    }
    (*d)[i] = h;  // Stashed so the accumulation pass can skip null steps.
  }

  // Back-accumulate Q = P_1 P_2 .. P_{n-1}: apply each stored transform to
  // the growing identity block. Column j of the block is an independent
  // chain (reads the frozen v in row i and v/h in column i, writes only
  // column j), so the shard decomposition is again bit-invisible.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t l = i;
    if ((*d)[i] != 0.0) {
      ParallelFor(
          0, l, kHouseholderGrain,
          [&](std::size_t jb, std::size_t je) {
            for (std::size_t j = jb; j < je; ++j) {
              double g = 0.0;
              for (std::size_t k = 0; k < l; ++k) g += q(i, k) * q(k, j);
              for (std::size_t k = 0; k < l; ++k) q(k, j) -= g * q(k, i);
            }
          },
          threads);
    }
    (*d)[i] = q(i, i);
    q(i, i) = 1.0;
    for (std::size_t j = 0; j < l; ++j) {
      q(i, j) = 0.0;
      q(j, i) = 0.0;
    }
  }
}

Status TridiagQL(std::vector<double>* d_io, std::vector<double>* e_io,
                 Matrix* z, int max_iterations) {
  // Deflation threshold relative to the local diagonal magnitude.
  constexpr double kDeflationTol = 1e-13;
  std::vector<double>& d = *d_io;
  std::vector<double>& e = *e_io;
  Matrix& q = *z;
  const std::size_t n = d.size();
  if (n == 0) return Status::OK();
  // Renumber the subdiagonal to e[0..n-2] (e arrives in e[1..n-1]).
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      // Deflation scan: a subdiagonal entry negligible relative to its
      // diagonal neighbours splits the problem.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= kDeflationTol * dd) break;
      }
      if (m != l) {
        if (iter++ == max_iterations) {
          return Status::NumericalError(
              "EigenSym (tridiagonal QL) did not converge within " +
              std::to_string(max_iterations) + " implicit shifts");
        }
        // Wilkinson-style shift from the leading 2x2.
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // Rotation annihilated; recover by restarting the deflation
            // scan without finishing the chase.
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          // Accumulate the rotation into eigenvector columns i and i+1.
          for (std::size_t k = 0; k < n; ++k) {
            f = q(k, i + 1);
            q(k, i + 1) = s * q(k, i) + c * f;
            q(k, i) = c * q(k, i) - s * f;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return Status::OK();
}

Result<EigenDecomposition> EigenSymTridiagQL(const Matrix& a,
                                             const EigenSymOptions& options) {
  Matrix q = a;
  std::vector<double> d;
  std::vector<double> e;
  HouseholderTridiagonalize(&q, &d, &e, options.num_threads);
  Status ql = TridiagQL(&d, &e, &q, options.max_ql_iterations);
  if (!ql.ok()) return ql;
  EigenDecomposition ed;
  ed.values = std::move(d);
  ed.vectors = std::move(q);
  SortEigenpairsDescending(&ed);
  return ed;
}

}  // namespace dpcopula::linalg::internal
