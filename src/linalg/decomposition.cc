#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "common/fault.h"
#include "common/profile.h"
#include "common/rng.h"
#include "common/runguard.h"

namespace multiclust {

namespace {

// QL iterations allowed per eigenvalue before the solver gives up (the
// EISPACK tql2 limit; convergence normally takes one to three).
constexpr int kMaxQlIterations = 30;

// Inverse iteration (LAPACK dstein): solves allowed per eigenvector, and how
// many must pass the growth test before the iterate is accepted (the first
// pass plus two refinements).
constexpr int kMaxInverseIterations = 5;
constexpr int kInverseIterationPasses = 3;

// Seed of inverse iteration's start vectors; fixed, so the eigenvectors are
// a pure function of the input matrix.
constexpr uint64_t kInverseIterationSeed = 0x1A2B3C4D5E6F7081ULL;

// sqrt(a^2 + b^2) without destructive overflow or underflow. Division and
// sqrt are correctly rounded IEEE operations, so unlike libm's hypot the
// result has the same bits on every platform.
double Pythag(double a, double b) {
  const double abs_a = std::fabs(a);
  const double abs_b = std::fabs(b);
  if (abs_a > abs_b) {
    const double r = abs_b / abs_a;
    return abs_a * std::sqrt(1.0 + r * r);
  }
  if (abs_b == 0.0) return 0.0;
  const double r = abs_a / abs_b;
  return abs_b * std::sqrt(1.0 + r * r);
}

// Square, finite input: the contract both solvers share. A NaN or Inf would
// flow through every rotation and come back as NaN eigenpairs, so it is
// rejected before any work is done.
Status ValidateSymmetricInput(const char* who, const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument(std::string(who) +
                                   ": matrix must be square");
  }
  if (Status finite = ValidateMatrix(who, a); !finite.ok()) {
    return Status::ComputationError(finite.message());
  }
  return Status::OK();
}

// Householder reduction of the symmetric matrix held in `zt` to tridiagonal
// form T = V^T A V (the reduction half of JAMA/EISPACK tred2; only the upper
// triangle is read). On return:
//   - T's diagonal is the diagonal of `zt`, and `e[i]` couples i-1 and i
//     (e[0] = 0);
//   - row m of `zt` holds the Householder vector u_m in columns [0, m) and
//     `d[m]` its h_m = |u_m|^2 / 2, so H_m = I - u_m u_m^T / h_m (d[m] = 0
//     marks a skipped step, H_m = I). V = H_{n-1} ... H_1.
// Row-major storage of the transpose keeps every inner loop on a contiguous
// row.
void ReduceToTridiagonal(Matrix& zt, std::vector<double>& d,
                         std::vector<double>& e) {
  const size_t n = zt.rows();
  for (size_t j = 0; j < n; ++j) d[j] = zt.at(j, n - 1);

  for (size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (size_t j = 0; j < i; ++j) {
        d[j] = zt.at(j, i - 1);
        zt.at(j, i) = 0.0;
        zt.at(i, j) = 0.0;
      }
    } else {
      // Householder vector, scaled against under/overflow.
      for (size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (size_t j = 0; j < i; ++j) e[j] = 0.0;

      // p = A u / h, accumulated over the stored triangle.
      double* zi = zt.row_data(i);
      for (size_t j = 0; j < i; ++j) {
        const double* zj = zt.row_data(j);
        f = d[j];
        zi[j] = f;
        g = e[j] + zj[j] * f;
        for (size_t k = j + 1; k < i; ++k) {
          g += zj[k] * d[k];
          e[k] += zj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      // Symmetric rank-2 update A -= u q^T + q u^T.
      for (size_t j = 0; j < i; ++j) {
        double* zj = zt.row_data(j);
        f = d[j];
        g = e[j];
        for (size_t k = j; k < i; ++k) zj[k] -= (f * e[k] + g * d[k]);
        d[j] = zj[i - 1];
        zj[i] = 0.0;
      }
    }
    d[i] = h;
  }
  e[0] = 0.0;
}

// Multiplies the reflectors ReduceToTridiagonal left in (`zt`, `d`) into V,
// in place (the accumulation half of tred2): row r of `zt` becomes column r
// of V, and `d` becomes T's diagonal.
void AccumulateReflectors(Matrix& zt, std::vector<double>& d) {
  const size_t n = zt.rows();
  for (size_t i = 0; i + 1 < n; ++i) {
    zt.at(i, n - 1) = zt.at(i, i);
    zt.at(i, i) = 1.0;
    double* zn = zt.row_data(i + 1);
    const double h = d[i + 1];
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) d[k] = zn[k] / h;
      for (size_t j = 0; j <= i; ++j) {
        double* zj = zt.row_data(j);
        double g = 0.0;
        for (size_t k = 0; k <= i; ++k) g += zn[k] * zj[k];
        for (size_t k = 0; k <= i; ++k) zj[k] -= g * d[k];
      }
    }
    for (size_t k = 0; k <= i; ++k) zn[k] = 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    d[j] = zt.at(j, n - 1);
    zt.at(j, n - 1) = 0.0;
  }
  zt.at(n - 1, n - 1) = 1.0;
}

// Implicit-shift QL on the tridiagonal (d, e) (JAMA/EISPACK tql2). When
// `zt` is non-null, each Givens rotation also updates two contiguous rows
// of it, so row r ends as the eigenvector of d[r] (for zt = V^T from
// AccumulateReflectors); when it is null only the eigenvalues are computed,
// with the same arithmetic, so they are bit-identical either way. On
// success `d` holds the (unsorted) eigenvalues and the result is the number
// of rotations applied. `who` names the caller in the error.
Result<uint64_t> TridiagonalQl(const char* who, Matrix* zt,
                               std::vector<double>& d,
                               std::vector<double>& e) {
  const size_t n = d.size();
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::numeric_limits<double>::epsilon();
  uint64_t rotations = 0;
  double f = 0.0;
  double tst1 = 0.0;
  for (size_t l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element; e[n-1] = 0 ends the scan.
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    size_t m = l;
    while (m + 1 < n && std::fabs(e[m]) > eps * tst1) ++m;

    if (m > l) {
      int iter = 0;
      bool converged = false;
      while (!converged) {
        if (++iter > kMaxQlIterations) {
          return Status::ComputationError(
              std::string(who) + ": QL did not converge for eigenvalue " +
              std::to_string(l) + " within " +
              std::to_string(kMaxQlIterations) + " iterations");
        }
        // Implicit shift.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = Pythag(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Implicit QL transformation, sweeping i = m-1 down to l.
        p = d[m];
        double c = 1.0, c2 = 1.0, c3 = 1.0;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = Pythag(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          if (zt != nullptr) {
            double* zi = zt->row_data(i);
            double* zi1 = zt->row_data(i + 1);
            for (size_t k = 0; k < n; ++k) {
              const double t = zi1[k];
              zi1[k] = s * zi[k] + c * t;
              zi[k] = c * zi[k] - s * t;
            }
          }
        }
        rotations += m - l;
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
        // Written so that a NaN ends the loop; the caller's finite check
        // then reports it.
        converged = !(std::fabs(e[l]) > eps * tst1) &&
                    !MC_FAULT_FIRES("eigen", FaultKind::kForceNonConvergence,
                                    l);
      }
    }
    d[l] += f;
    e[l] = 0.0;
  }
  return rotations;
}

// Finite input so large that the arithmetic overflowed shows up as a
// non-finite eigenvalue.
Status CheckFiniteEigenvalues(const char* who, const std::vector<double>& d) {
  for (double v : d) {
    if (!std::isfinite(v)) {
      return Status::ComputationError(
          std::string(who) +
          ": non-finite eigenvalue (arithmetic overflow)");
    }
  }
  return Status::OK();
}

// Indices of `d` by descending value; ties keep their QL order.
std::vector<size_t> DescendingOrder(const std::vector<double>& d) {
  std::vector<size_t> order(d.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return d[x] > d[y]; });
  return order;
}

double MaxAbs(const double* x, size_t n) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

// Unit eigenvectors of the symmetric tridiagonal T (diagonal `diag`, e[i]
// coupling i-1 and i) for `values`, eigenvalues of T in descending order, by
// inverse iteration in the style of LAPACK dstein. Row j of the result is
// the vector of values[j]. Each vector costs O(n) per solve.
Result<Matrix> TridiagonalEigenvectors(const std::vector<double>& diag,
                                       const std::vector<double>& e,
                                       const std::vector<double>& values) {
  const size_t n = diag.size();
  const size_t k = values.size();
  const double eps = std::numeric_limits<double>::epsilon();
  double tnorm = 0.0;  // ||T||_1
  for (size_t i = 0; i < n; ++i) {
    const double below = i + 1 < n ? std::fabs(e[i + 1]) : 0.0;
    tnorm = std::max(tnorm, std::fabs(diag[i]) + std::fabs(e[i]) + below);
  }
  // T = 0: any orthonormal set is an eigenbasis, and any scale finds one.
  if (tnorm == 0.0) tnorm = 1.0;
  // A pivot below eps*||T|| (the shift is an eigenvalue to working
  // precision) is replaced by it. Shifts closer than 10 eps ||T|| are pushed
  // apart so that the solves differ, and a vector is orthogonalised against
  // the earlier vectors of its cluster: shifts within 1e-3 ||T|| of their
  // predecessor.
  const double tiny_pivot = eps * tnorm;
  const double min_gap = 10.0 * eps * tnorm;
  const double cluster_gap = 1e-3 * tnorm;
  // dstein's growth test: the right-hand side is scaled to infinity norm
  // n * max(eps ||T||, |shift - value|), how far the shift is known to be
  // from its eigenvalue. An iterate of infinity norm >= sqrt(0.1 / n) then
  // has a residual against the shift of at most ~3 n^2 times that; the two
  // extra passes refine it to working precision.
  const double growth = std::sqrt(0.1 / static_cast<double>(n));

  Rng rng(kInverseIterationSeed);
  Matrix y(k, n);
  // P L U of T - shift I: U's diagonal and two superdiagonals, L's
  // multipliers, and whether step i swapped rows i and i+1.
  std::vector<double> u0(n), u1(n), u2(n), mult(n);
  std::vector<uint8_t> swapped(n);
  uint64_t solves = 0;
  uint64_t projections = 0;
  double prev_shift = 0.0;
  size_t cluster = 0;
  for (size_t j = 0; j < k; ++j) {
    double shift = values[j];
    if (j > 0) {
      if (prev_shift - shift < min_gap) shift = prev_shift - min_gap;
      if (prev_shift - shift > cluster_gap) cluster = j;
    }
    prev_shift = shift;
    const double rhs_norm = static_cast<double>(n) *
                            std::max(tiny_pivot, std::fabs(values[j] - shift));

    for (size_t i = 0; i < n; ++i) {
      u0[i] = diag[i] - shift;
      u1[i] = i + 1 < n ? e[i + 1] : 0.0;
      u2[i] = 0.0;
    }
    for (size_t i = 0; i + 1 < n; ++i) {
      const double sub = e[i + 1];
      swapped[i] = std::fabs(sub) > std::fabs(u0[i]);
      if (!swapped[i]) {
        mult[i] = u0[i] == 0.0 ? 0.0 : sub / u0[i];
        u0[i + 1] -= mult[i] * u1[i];
      } else {
        mult[i] = u0[i] / sub;
        const double t = u0[i + 1];
        u0[i] = sub;
        u0[i + 1] = u1[i] - mult[i] * t;
        u1[i] = t;
        u2[i] = u1[i + 1];
        u1[i + 1] = -mult[i] * u2[i];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (std::fabs(u0[i]) < tiny_pivot) {
        u0[i] = u0[i] < 0.0 ? -tiny_pivot : tiny_pivot;
      }
    }

    double* x = y.row_data(j);
    for (size_t i = 0; i < n; ++i) x[i] = rng.Uniform(-1.0, 1.0);
    int passes = 0;
    for (int its = 0; passes < kInverseIterationPasses; ++its) {
      if (its == kMaxInverseIterations) {
        return Status::ComputationError(
            "TopEigenpairs: inverse iteration did not converge for "
            "eigenvalue " +
            std::to_string(j) + " within " +
            std::to_string(kMaxInverseIterations) + " solves");
      }
      const double scale = rhs_norm / MaxAbs(x, n);
      for (size_t i = 0; i < n; ++i) x[i] *= scale;
      for (size_t i = 0; i + 1 < n; ++i) {
        if (swapped[i]) std::swap(x[i], x[i + 1]);
        x[i + 1] -= mult[i] * x[i];
      }
      for (size_t i = n; i-- > 0;) {
        double s = x[i];
        if (i + 1 < n) s -= u1[i] * x[i + 1];
        if (i + 2 < n) s -= u2[i] * x[i + 2];
        x[i] = s / u0[i];
      }
      // Modified Gram-Schmidt against the cluster's earlier vectors.
      for (size_t c = cluster; c < j; ++c) {
        const double* q = y.row_data(c);
        double dot = 0.0;
        for (size_t i = 0; i < n; ++i) dot += q[i] * x[i];
        for (size_t i = 0; i < n; ++i) x[i] -= dot * q[i];
      }
      ++solves;
      projections += j - cluster;
      if (MaxAbs(x, n) >= growth) ++passes;
    }
    double norm_sq = 0.0;
    for (size_t i = 0; i < n; ++i) norm_sq += x[i] * x[i];
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (size_t i = 0; i < n; ++i) x[i] *= inv;
  }
  // Factor ~8n per vector, solve ~7n, projection 4n, normalisation 3n.
  const uint64_t n64 = n;
  telemetry::CountFlops(n64 * (8 * k + 7 * solves + 4 * projections + 3 * k),
                        sizeof(double) * n64 * (6 * k + 2 * solves));
  return y;
}

// x <- V x for V = H_{n-1} ... H_1, the reflectors ReduceToTridiagonal
// left in (`zt`, `h`): 4m FLOPs for H_m, 2 n^2 in all.
void ApplyReflectors(const Matrix& zt, const std::vector<double>& h,
                     double* x) {
  const size_t n = zt.rows();
  for (size_t m = 1; m < n; ++m) {
    if (h[m] == 0.0) continue;
    const double* u = zt.row_data(m);
    double g = 0.0;
    for (size_t i = 0; i < m; ++i) g += u[i] * x[i];
    g /= h[m];
    for (size_t i = 0; i < m; ++i) x[i] -= g * u[i];
  }
}

}  // namespace

Result<SymmetricEigen> EigenSymmetric(const Matrix& a) {
  MC_RETURN_IF_ERROR(ValidateSymmetricInput("EigenSymmetric", a));
  const size_t n = a.rows();
  SymmetricEigen out;
  if (n == 0) return out;

  Matrix zt = a;
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  ReduceToTridiagonal(zt, d, e);
  AccumulateReflectors(zt, d);
  MC_ASSIGN_OR_RETURN(const uint64_t rotations,
                      TridiagonalQl("EigenSymmetric", &zt, d, e));
  // Reduction and accumulation are ~4/3 n^3 each; a rotation is 6n.
  const uint64_t n64 = n;
  telemetry::CountFlops(8 * n64 * n64 * n64 / 3 + 6 * n64 * rotations,
                        sizeof(double) * (n64 * n64 + 2 * n64 * rotations));
  MC_RETURN_IF_ERROR(CheckFiniteEigenvalues("EigenSymmetric", d));

  const std::vector<size_t> order = DescendingOrder(d);
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    const double* col = zt.row_data(order[j]);
    for (size_t i = 0; i < n; ++i) out.vectors.at(i, j) = col[i];
  }
  return out;
}

Result<SymmetricEigen> TopEigenpairs(const Matrix& a, size_t k) {
  MC_RETURN_IF_ERROR(ValidateSymmetricInput("TopEigenpairs", a));
  const size_t n = a.rows();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("TopEigenpairs: need 0 < k <= n");
  }

  Matrix zt = a;
  std::vector<double> h(n, 0.0);
  std::vector<double> e(n, 0.0);
  ReduceToTridiagonal(zt, h, e);
  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = zt.at(i, i);
  std::vector<double> d = diag;
  std::vector<double> ql_e = e;
  MC_ASSIGN_OR_RETURN(const uint64_t rotations,
                      TridiagonalQl("TopEigenpairs", nullptr, d, ql_e));
  MC_RETURN_IF_ERROR(CheckFiniteEigenvalues("TopEigenpairs", d));

  const std::vector<size_t> order = DescendingOrder(d);
  SymmetricEigen out;
  out.values.resize(k);
  for (size_t j = 0; j < k; ++j) out.values[j] = d[order[j]];
  MC_ASSIGN_OR_RETURN(Matrix y, TridiagonalEigenvectors(diag, e, out.values));

  out.vectors = Matrix(n, k);
  for (size_t j = 0; j < k; ++j) {
    double* x = y.row_data(j);
    ApplyReflectors(zt, h, x);
    // Sign: the largest-magnitude component (the first, on a tie) is
    // positive.
    size_t top = 0;
    for (size_t i = 1; i < n; ++i) {
      if (std::fabs(x[i]) > std::fabs(x[top])) top = i;
    }
    const double sign = x[top] < 0.0 ? -1.0 : 1.0;
    for (size_t i = 0; i < n; ++i) out.vectors.at(i, j) = sign * x[i];
  }
  if (Status finite = ValidateMatrix("TopEigenpairs", out.vectors);
      !finite.ok()) {
    return Status::ComputationError(finite.message());
  }
  // Reduction ~4/3 n^3, back-transform 2 n^2 per vector, ~20 scalar FLOPs
  // per QL rotation; inverse iteration counts its own.
  const uint64_t n64 = n;
  const uint64_t k64 = k;
  telemetry::CountFlops(
      4 * n64 * n64 * n64 / 3 + 2 * n64 * n64 * k64 + 20 * rotations,
      sizeof(double) * (n64 * n64 + k64 * n64 * n64 / 2));
  return out;
}

Result<Svd> ComputeSvd(const Matrix& a, double tol, int max_sweeps) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("ComputeSvd: empty matrix");
  }
  // Work with a tall matrix (m >= n); if wide, decompose the transpose and
  // swap U and V at the end.
  const bool transposed = a.rows() < a.cols();
  Matrix w = transposed ? a.Transpose() : a;
  const size_t m = w.rows();
  const size_t n = w.cols();

  Matrix v = Matrix::Identity(n);
  const double scale = std::max(1.0, w.FrobeniusNorm());

  // One-sided Jacobi: orthogonalise pairs of columns of w.
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double max_cos = 0.0;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (size_t i = 0; i < m; ++i) {
          const double wp = w.at(i, p);
          const double wq = w.at(i, q);
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
        const double denom = std::sqrt(alpha * beta);
        const double cosine = denom > 1e-300 ? std::fabs(gamma) / denom : 0.0;
        if (cosine > max_cos) max_cos = cosine;
        if (cosine <= tol) continue;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (size_t i = 0; i < m; ++i) {
          const double wp = w.at(i, p);
          const double wq = w.at(i, q);
          w.at(i, p) = c * wp - s * wq;
          w.at(i, q) = s * wp + c * wq;
        }
        for (size_t i = 0; i < n; ++i) {
          const double vp = v.at(i, p);
          const double vq = v.at(i, q);
          v.at(i, p) = c * vp - s * vq;
          v.at(i, q) = s * vp + c * vq;
        }
      }
    }
    if (max_cos <= tol) break;
    if (sweep == max_sweeps - 1 && max_cos > 1e-6 && scale > 0) {
      return Status::ComputationError("ComputeSvd: Jacobi did not converge");
    }
  }

  // Column norms are the singular values; normalised columns form U.
  std::vector<double> sigma(n);
  Matrix u(m, n);
  for (size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (size_t i = 0; i < m; ++i) norm += w.at(i, j) * w.at(i, j);
    norm = std::sqrt(norm);
    sigma[j] = norm;
    if (norm > 1e-300) {
      for (size_t i = 0; i < m; ++i) u.at(i, j) = w.at(i, j) / norm;
    }
  }

  // Sort descending.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return sigma[x] > sigma[y]; });
  Svd out;
  out.sigma.resize(n);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    out.sigma[j] = sigma[order[j]];
    for (size_t i = 0; i < m; ++i) out.u.at(i, j) = u.at(i, order[j]);
    for (size_t i = 0; i < n; ++i) out.v.at(i, j) = v.at(i, order[j]);
  }
  if (transposed) std::swap(out.u, out.v);
  return out;
}

Result<Matrix> Cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky: matrix must be square");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double s = a.at(i, j);
      for (size_t k = 0; k < j; ++k) s -= l.at(i, k) * l.at(j, k);
      if (i == j) {
        if (s <= 0.0) {
          return Status::ComputationError(
              "Cholesky: matrix not positive definite");
        }
        l.at(i, j) = std::sqrt(s);
      } else {
        l.at(i, j) = s / l.at(j, j);
      }
    }
  }
  return l;
}

Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("SolveSpd: dimension mismatch");
  }
  MC_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  const size_t n = b.size();
  // Forward solve L y = b.
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l.at(i, k) * y[k];
    y[i] = s / l.at(i, i);
  }
  // Backward solve L^T x = y.
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double s = y[i];
    for (size_t k = i + 1; k < n; ++k) s -= l.at(k, i) * x[k];
    x[i] = s / l.at(i, i);
  }
  return x;
}

Result<Matrix> Inverse(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Inverse: matrix must be square");
  }
  const size_t n = a.rows();
  Matrix m = a;
  Matrix inv = Matrix::Identity(n);
  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    size_t pivot = col;
    double best = std::fabs(m.at(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(m.at(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      return Status::ComputationError("Inverse: singular matrix");
    }
    if (pivot != col) {
      for (size_t j = 0; j < n; ++j) {
        std::swap(m.at(pivot, j), m.at(col, j));
        std::swap(inv.at(pivot, j), inv.at(col, j));
      }
    }
    const double d = m.at(col, col);
    for (size_t j = 0; j < n; ++j) {
      m.at(col, j) /= d;
      inv.at(col, j) /= d;
    }
    for (size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = m.at(r, col);
      if (f == 0.0) continue;
      for (size_t j = 0; j < n; ++j) {
        m.at(r, j) -= f * m.at(col, j);
        inv.at(r, j) -= f * inv.at(col, j);
      }
    }
  }
  return inv;
}

namespace {

Result<Matrix> PowSymmetric(const Matrix& a, double power, double eps) {
  MC_ASSIGN_OR_RETURN(SymmetricEigen eig, EigenSymmetric(a));
  const size_t n = a.rows();
  std::vector<double> powered(n);
  for (size_t i = 0; i < n; ++i) {
    const double lambda = std::max(eig.values[i], eps);
    powered[i] = std::pow(lambda, power);
  }
  // V * diag(powered) * V^T
  Matrix scaled = eig.vectors;
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) scaled.at(i, j) *= powered[j];
  }
  return scaled * eig.vectors.Transpose();
}

}  // namespace

Result<Matrix> SqrtSymmetric(const Matrix& a, double eps) {
  return PowSymmetric(a, 0.5, eps);
}

Result<Matrix> InverseSqrtSymmetric(const Matrix& a, double eps) {
  return PowSymmetric(a, -0.5, eps);
}

Result<Qr> ComputeQr(const Matrix& a) {
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument("ComputeQr: requires rows >= cols");
  }
  const size_t m = a.rows();
  const size_t n = a.cols();
  Matrix r = a;
  // Accumulate Q implicitly by applying the Householder reflectors to an
  // m x n slice of the identity at the end.
  std::vector<std::vector<double>> reflectors;
  reflectors.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    // Build Householder vector for column k, rows k..m-1.
    std::vector<double> v(m, 0.0);
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) {
      v[i] = r.at(i, k);
      norm += v[i] * v[i];
    }
    norm = std::sqrt(norm);
    if (norm < 1e-300) {
      reflectors.push_back(std::vector<double>(m, 0.0));
      continue;
    }
    const double alpha = (v[k] >= 0 ? -norm : norm);
    v[k] -= alpha;
    double vnorm = 0.0;
    for (size_t i = k; i < m; ++i) vnorm += v[i] * v[i];
    vnorm = std::sqrt(vnorm);
    if (vnorm < 1e-300) {
      reflectors.push_back(std::vector<double>(m, 0.0));
      continue;
    }
    for (size_t i = k; i < m; ++i) v[i] /= vnorm;
    // Apply H = I - 2 v v^T to R (columns k..n-1).
    for (size_t j = k; j < n; ++j) {
      double dot = 0.0;
      for (size_t i = k; i < m; ++i) dot += v[i] * r.at(i, j);
      for (size_t i = k; i < m; ++i) r.at(i, j) -= 2.0 * dot * v[i];
    }
    reflectors.push_back(std::move(v));
  }
  // Build thin Q by applying reflectors in reverse to identity columns.
  Matrix q(m, n);
  for (size_t j = 0; j < n; ++j) q.at(j, j) = 1.0;
  for (size_t kk = reflectors.size(); kk > 0; --kk) {
    const std::vector<double>& v = reflectors[kk - 1];
    double vn = 0.0;
    for (double x : v) vn += x * x;
    if (vn < 1e-300) continue;
    for (size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (size_t i = 0; i < m; ++i) dot += v[i] * q.at(i, j);
      for (size_t i = 0; i < m; ++i) q.at(i, j) -= 2.0 * dot * v[i];
    }
  }
  Qr out;
  out.q = std::move(q);
  out.r = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) out.r.at(i, j) = r.at(i, j);
  }
  return out;
}

}  // namespace multiclust
