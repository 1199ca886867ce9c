#ifndef MULTICLUST_SUBSPACE_MSC_H_
#define MULTICLUST_SUBSPACE_MSC_H_

#include <cstdint>
#include <vector>

#include <string>

#include "cluster/clustering.h"
#include "common/result.h"
#include "common/runguard.h"
#include "core/solution_set.h"
#include "linalg/matrix.h"

namespace multiclust {

/// Options for multiple non-redundant spectral clustering views
/// (after Niu & Dy 2010, tutorial slide 90). This implementation is the
/// axis-aligned variant: dimensions are partitioned into statistically
/// independent groups using the Hilbert-Schmidt Independence Criterion
/// (the same dependence measure mSC penalises), then each group is
/// clustered spectrally.
struct MscOptions {
  /// Number of views (subspace blocks) to extract.
  size_t num_views = 2;
  /// Clusters per view.
  size_t k = 2;
  /// RBF parameter for both HSIC and the spectral affinities
  /// (<= 0 = median heuristic).
  double gamma = 0.0;
  uint64_t seed = 1;
  /// Wall-clock / cancellation limits; the remaining deadline is forwarded
  /// to each per-view spectral run.
  RunBudget budget;
  /// Optional observability sink (not owned): forwarded to every per-view
  /// spectral run, whose embedded k-means traces accumulate in it. The
  /// algorithm is reported as "msc". nullptr (the default) records nothing.
  RunDiagnostics* diagnostics = nullptr;
};

/// One extracted view.
struct MscView {
  std::vector<size_t> dims;
  Clustering clustering;
};

/// Full result.
struct MscResult {
  std::vector<MscView> views;
  SolutionSet solutions;
  /// Pairwise HSIC between single dimensions (for inspection).
  Matrix dim_dependence;
  /// Views skipped because their spectral run failed recoverably or the
  /// budget expired; empty on a clean run. The surviving views are still
  /// returned (graceful degradation).
  std::vector<std::string> warnings;
};

/// Partitions the dimensions into `num_views` blocks by average-link
/// agglomeration on pairwise HSIC *similarity* (dependent dims end up in
/// the same view; independent dims are split apart), then runs spectral
/// clustering inside each block. The result is one clustering per view,
/// with view dissimilarity enforced through subspace independence rather
/// than through an explicit Diss(C1, C2) term. Scoring the dimension pairs
/// holds d centred n x n kernels at once (one per dimension).
Result<MscResult> RunMultipleSpectralViews(const Matrix& data,
                                           const MscOptions& options);

}  // namespace multiclust

#endif  // MULTICLUST_SUBSPACE_MSC_H_
