#ifndef MULTICLUST_CLUSTER_SPECTRAL_H_
#define MULTICLUST_CLUSTER_SPECTRAL_H_

#include <cstdint>
#include <string>

#include "cluster/clustering.h"
#include "common/result.h"
#include "common/runguard.h"

namespace multiclust {

/// Options for Ng-Jordan-Weiss spectral clustering.
struct SpectralOptions {
  size_t k = 2;
  /// RBF affinity parameter; <= 0 selects the median heuristic.
  double gamma = 0.0;
  /// k-means settings for the embedded space.
  size_t kmeans_restarts = 5;
  uint64_t seed = 1;
  /// Wall-clock / cancellation limits. Checked between the affinity,
  /// eigendecomposition and embedded-k-means phases; the remaining
  /// deadline is forwarded to the embedded k-means.
  RunBudget budget;
  /// Optional observability sink (not owned): the embedded k-means fills
  /// the per-iteration ConvergenceTrace; the algorithm name is reported
  /// as "spectral". nullptr (the default) records nothing.
  RunDiagnostics* diagnostics = nullptr;
};

/// Ng-Jordan-Weiss spectral embedding of an n x n symmetric affinity:
/// degree normalisation D^{-1/2} W D^{-1/2} (the diagonal of `affinity` is
/// treated as zero), the top-k eigenvectors of that matrix (the bottom-k of
/// the normalised Laplacian), then each row scaled to unit length. Returns
/// the n x k embedding; eigensolver errors pass through. Bit-identical for
/// any thread count.
Result<Matrix> SpectralEmbedding(const Matrix& affinity, size_t k);

/// Spectral clustering (Ng, Jordan & Weiss 2001): Gaussian affinity,
/// SpectralEmbedding, k-means. The base method of the mSC multiple-views
/// approach referenced by the tutorial (slide 90). O(n^3) in the
/// eigendecomposition.
Result<Clustering> RunSpectral(const Matrix& data,
                               const SpectralOptions& options);

/// `Clusterer` adapter.
class SpectralClusterer : public Clusterer {
 public:
  explicit SpectralClusterer(SpectralOptions options) : options_(options) {}

  Result<Clustering> Cluster(const Matrix& data) override {
    return RunSpectral(data, options_);
  }
  std::string name() const override { return "spectral"; }

 private:
  SpectralOptions options_;
};

}  // namespace multiclust

#endif  // MULTICLUST_CLUSTER_SPECTRAL_H_
