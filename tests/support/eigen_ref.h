#ifndef MULTICLUST_TESTS_SUPPORT_EIGEN_REF_H_
#define MULTICLUST_TESTS_SUPPORT_EIGEN_REF_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/result.h"
#include "linalg/decomposition.h"
#include "linalg/matrix.h"

namespace multiclust {
namespace test {

/// Cyclic-Jacobi reference eigensolver: the rotation sweeps that
/// linalg/decomposition.cc replaced with Householder tridiagonalisation +
/// implicit QL. It plays the role kernels::ref plays for the SIMD layer:
/// slow (O(n^3) per sweep, ~10 sweeps) but simple enough to trust, so
/// tests and the A2 ablation compare EigenSymmetric against it. Same
/// contract: values descending, eigenvectors as columns. The QL solver in
/// turn is the oracle for TopEigenpairs.
inline Result<SymmetricEigen> RefEigenJacobi(const Matrix& a) {
  constexpr double tol = 1e-12;
  constexpr int max_sweeps = 64;
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("RefEigenJacobi: matrix must be square");
  }
  const size_t n = a.rows();
  Matrix m = a;
  Matrix v = Matrix::Identity(n);

  auto off_diag_norm = [&]() {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) s += m.at(i, j) * m.at(i, j);
    }
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(1.0, m.FrobeniusNorm());
  bool converged = n <= 1;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    if (off_diag_norm() <= tol * scale) {
      converged = true;
      break;
    }
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = m.at(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = m.at(p, p);
        const double aqq = m.at(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply rotation J(p, q, theta) on both sides.
        for (size_t k = 0; k < n; ++k) {
          const double mkp = m.at(k, p);
          const double mkq = m.at(k, q);
          m.at(k, p) = c * mkp - s * mkq;
          m.at(k, q) = s * mkp + c * mkq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double mpk = m.at(p, k);
          const double mqk = m.at(q, k);
          m.at(p, k) = c * mpk - s * mqk;
          m.at(q, k) = s * mpk + c * mqk;
        }
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v.at(k, p);
          const double vkq = v.at(k, q);
          v.at(k, p) = c * vkp - s * vkq;
          v.at(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  if (!converged && off_diag_norm() > tol * scale * 100) {
    return Status::ComputationError("RefEigenJacobi: did not converge");
  }

  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = m.at(i, i);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return values[x] > values[y]; });
  SymmetricEigen out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    out.values[j] = values[order[j]];
    for (size_t i = 0; i < n; ++i) {
      out.vectors.at(i, j) = v.at(i, order[j]);
    }
  }
  return out;
}

/// RefEigenJacobi cut to its k largest eigenpairs: the oracle with
/// TopEigenpairs' contract.
inline Result<SymmetricEigen> RefTopEigenJacobi(const Matrix& a, size_t k) {
  MC_ASSIGN_OR_RETURN(SymmetricEigen full, RefEigenJacobi(a));
  if (k == 0 || k > full.values.size()) {
    return Status::InvalidArgument("RefTopEigenJacobi: need 0 < k <= n");
  }
  SymmetricEigen out;
  out.values.assign(full.values.begin(), full.values.begin() + k);
  out.vectors = Matrix(a.rows(), k);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < k; ++j) out.vectors.at(i, j) = full.vectors.at(i, j);
  }
  return out;
}

/// Ng-Jordan-Weiss embedding as serial loops: the degree normalisation and
/// row normalisation SpectralEmbedding (cluster/spectral.h) replaced in
/// spectral, mv-spectral and A2, around `eigen`, a top-k solver (the Jacobi
/// oracle by default). The diagonal of `affinity` is treated as zero. With
/// `eigen = TopEigenpairs` the result must equal SpectralEmbedding bit for
/// bit.
inline Result<Matrix> RefSpectralEmbedding(
    const Matrix& affinity, size_t k,
    Result<SymmetricEigen> (*eigen)(const Matrix&, size_t) =
        RefTopEigenJacobi) {
  const size_t n = affinity.rows();
  std::vector<double> inv_sqrt_deg(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double deg = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) deg += affinity.at(i, j);
    }
    inv_sqrt_deg[i] = deg > 1e-12 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  Matrix norm(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (j != i) {
        norm.at(i, j) = inv_sqrt_deg[i] * affinity.at(i, j) * inv_sqrt_deg[j];
      }
    }
  }
  MC_ASSIGN_OR_RETURN(SymmetricEigen eig, eigen(norm, k));
  Matrix embed(n, k);
  for (size_t i = 0; i < n; ++i) {
    double norm_sq = 0.0;
    for (size_t c = 0; c < k; ++c) {
      embed.at(i, c) = eig.vectors.at(i, c);
      norm_sq += embed.at(i, c) * embed.at(i, c);
    }
    if (norm_sq > 1e-24) {
      const double inv = 1.0 / std::sqrt(norm_sq);
      for (size_t c = 0; c < k; ++c) embed.at(i, c) *= inv;
    }
  }
  return embed;
}

}  // namespace test
}  // namespace multiclust

#endif  // MULTICLUST_TESTS_SUPPORT_EIGEN_REF_H_
