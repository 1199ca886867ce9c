#ifndef MULTICLUST_SUBSPACE_ORCLUS_H_
#define MULTICLUST_SUBSPACE_ORCLUS_H_

#include <cstdint>
#include <vector>

#include "cluster/clustering.h"
#include "common/result.h"
#include "common/runguard.h"
#include "linalg/matrix.h"

namespace multiclust {

/// Options for ORCLUS (Aggarwal & Yu 2000; tutorial slide 66): projected
/// clustering in *arbitrarily oriented* subspaces — each cluster owns an
/// eigen-derived low-dimensional subspace rather than an axis-parallel one.
struct OrclusOptions {
  size_t k = 3;
  /// Target subspace dimensionality per cluster.
  size_t l = 2;
  /// Initial seed multiplier: start from k0 = a_factor * k seeds and merge
  /// down while dimensionality shrinks from full d to l.
  size_t a_factor = 3;
  size_t max_iters = 12;
  /// Independent restarts; the run with the lowest total projected energy
  /// wins (the projected objective has spurious local optima on strongly
  /// oriented data).
  size_t restarts = 3;
  uint64_t seed = 1;
  /// Wall-clock / iteration / cancellation limits (see common/runguard.h).
  RunBudget budget;
  /// Optional observability sink (not owned): per-outer-iteration
  /// ConvergenceTrace (mean projected energy, its change, dropped empty
  /// groups) plus iterations/convergence/stop-reason. Computing the
  /// per-iteration energy costs one extra pass over the data; the default
  /// nullptr records nothing and costs nothing.
  RunDiagnostics* diagnostics = nullptr;
};

/// One ORCLUS cluster's oriented subspace.
struct OrientedSubspace {
  /// d x l orthonormal basis: the directions of *least* spread of the
  /// cluster (projection onto them yields small projected energy for
  /// members).
  Matrix basis;

  void Visit(ckpt::Archive& ar);  ///< checkpoint serialization
};

/// Full result.
struct OrclusResult {
  Clustering clustering;
  std::vector<OrientedSubspace> subspaces;  ///< one per cluster
  /// Mean projected energy of objects in their cluster's subspace
  /// (the ORCLUS objective; lower is better).
  double projected_energy = 0.0;

  void Visit(ckpt::Archive& ar);  ///< checkpoint serialization
};

/// ORCLUS: seeds -> iterated {assign by projected distance in each seed's
/// least-spread eigenspace; recompute seeds and eigenspaces; merge the
/// closest pair while reducing the working dimensionality} until k clusters
/// with l-dimensional subspaces remain. Finds clusters that axis-parallel
/// methods (PROCLUS, CLIQUE) cannot represent.
Result<OrclusResult> RunOrclus(const Matrix& data,
                               const OrclusOptions& options);

/// Distance of point x to centroid c measured inside the subspace spanned
/// by `basis` (d x l, orthonormal columns): || basis^T (x - c) ||^2.
double ProjectedSquaredDistance(const std::vector<double>& x,
                                const std::vector<double>& centroid,
                                const Matrix& basis);

/// Pointer form for hot paths (`x` has `xd` values); avoids the per-row
/// vector copies of the assignment sweeps.
double ProjectedSquaredDistance(const double* x, size_t xd,
                                const std::vector<double>& centroid,
                                const Matrix& basis);

}  // namespace multiclust

#endif  // MULTICLUST_SUBSPACE_ORCLUS_H_
