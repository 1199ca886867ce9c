#ifndef MULTICLUST_LINALG_DECOMPOSITION_H_
#define MULTICLUST_LINALG_DECOMPOSITION_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace multiclust {

/// Eigenpairs of a symmetric matrix: A v_j = values[j] v_j. `values` are
/// sorted descending; column j of `vectors` is the unit eigenvector for
/// `values[j]`. EigenSymmetric returns all n pairs (A = V diag(values)
/// V^T); TopEigenpairs returns the k largest, with an n x k `vectors`.
struct SymmetricEigen {
  std::vector<double> values;
  Matrix vectors;
};

/// Computes the full eigendecomposition of symmetric `a` (only its upper
/// triangle is read): Householder reduction to tridiagonal form, then
/// implicit-shift QL (EISPACK tred2 + tql2). O(n^3): ~8/3 n^3 FLOPs with
/// two n x n scratch matrices. Plain scalar arithmetic in a fixed order, so
/// results are bit-identical across thread counts and SIMD builds; equal
/// eigenvalues keep their QL order (stable sort). For callers that need
/// every eigenvector (PCA, ORCLUS); TopEigenpairs is the cheaper path for a
/// few.
///
/// Returns InvalidArgument for non-square input, and ComputationError for
/// a non-finite cell (named as ValidateMatrix names it), for a QL
/// iteration that exceeds its fixed per-eigenvalue cap, or for finite
/// input so large that the arithmetic overflows.
Result<SymmetricEigen> EigenSymmetric(const Matrix& a);

/// The k largest eigenpairs of symmetric `a` (only its upper triangle is
/// read), as the spectral embedding needs them. The same Householder
/// reduction as EigenSymmetric, without accumulating the transformation;
/// the same QL, without eigenvectors, so `values` equal EigenSymmetric's
/// first k bit for bit. The k eigenvectors come from inverse iteration on
/// the tridiagonal (LAPACK dstein style: fixed-seed start vectors, close
/// eigenvalues shifted apart, Gram-Schmidt within clusters closer than
/// 1e-3 ||T||), back-transformed through the stored reflectors. Each
/// vector's largest-magnitude component is positive. ~4/3 n^3 + 2 n^2 k
/// FLOPs and one n x n scratch matrix; serial scalar code in a fixed order,
/// so bit-identical across thread counts and SIMD builds.
///
/// Returns InvalidArgument for non-square input or unless 0 < k <= n, and
/// ComputationError for a non-finite cell, for a QL or inverse iteration
/// that exceeds its fixed cap, or for arithmetic overflow.
Result<SymmetricEigen> TopEigenpairs(const Matrix& a, size_t k);

/// Thin singular value decomposition A = U * diag(sigma) * V^T for an
/// m x n matrix with any m, n. U is m x r, V is n x r, r = min(m, n);
/// singular values are sorted descending and non-negative.
struct Svd {
  Matrix u;
  std::vector<double> sigma;
  Matrix v;
};

/// One-sided Jacobi SVD; robust for the small/medium dense matrices used
/// throughout the library.
Result<Svd> ComputeSvd(const Matrix& a, double tol = 1e-12,
                       int max_sweeps = 64);

/// Cholesky factor L (lower triangular) with A = L * L^T. Fails with
/// ComputationError when `a` is not (numerically) positive definite.
Result<Matrix> Cholesky(const Matrix& a);

/// Solves A x = b for symmetric positive definite A via Cholesky.
Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b);

/// General inverse via Gauss-Jordan with partial pivoting. Fails on
/// (numerically) singular input.
Result<Matrix> Inverse(const Matrix& a);

/// Symmetric (principal) matrix square root A^{1/2} via eigendecomposition.
/// Negative eigenvalues are clamped to `eps` before taking roots.
Result<Matrix> SqrtSymmetric(const Matrix& a, double eps = 1e-12);

/// Symmetric inverse square root A^{-1/2}; eigenvalues below `eps` are
/// clamped to `eps` (pseudo-inverse style regularisation). Used by the
/// Qi & Davidson alternative-clustering transformation.
Result<Matrix> InverseSqrtSymmetric(const Matrix& a, double eps = 1e-8);

/// Householder QR: A (m x n, m >= n) = Q (m x n, orthonormal cols) * R
/// (n x n upper triangular).
struct Qr {
  Matrix q;
  Matrix r;
};

/// Computes the thin QR decomposition; requires rows >= cols.
Result<Qr> ComputeQr(const Matrix& a);

}  // namespace multiclust

#endif  // MULTICLUST_LINALG_DECOMPOSITION_H_
