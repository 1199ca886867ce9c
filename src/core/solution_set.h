#ifndef MULTICLUST_CORE_SOLUTION_SET_H_
#define MULTICLUST_CORE_SOLUTION_SET_H_

#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "common/result.h"

namespace multiclust {

/// A set of clustering solutions over the same objects — the output type of
/// every multiple-clustering algorithm in the library (the
/// `Clust_1, ..., Clust_m` of the tutorial's abstract problem, slide 27).
class SolutionSet {
 public:
  SolutionSet() = default;

  /// Appends a solution (must label the same number of objects as existing
  /// solutions).
  Status Add(Clustering clustering);

  size_t size() const { return solutions_.size(); }
  bool empty() const { return solutions_.empty(); }

  const Clustering& at(size_t i) const { return solutions_[i]; }
  Clustering& at(size_t i) { return solutions_[i]; }

  const std::vector<Clustering>& solutions() const { return solutions_; }

  /// All label vectors (for the multi-solution metrics).
  std::vector<std::vector<int>> Labels() const;

  /// Mean pairwise dissimilarity (1 - NMI) across the set.
  Result<double> Diversity() const;

  /// Minimum pairwise dissimilarity (redundancy bottleneck).
  Result<double> MinDiversity() const;

  /// Drops solutions that are near-duplicates of an earlier one
  /// (dissimilarity < `min_dissimilarity`); returns the number removed.
  Result<size_t> Deduplicate(double min_dissimilarity);

  /// One line per solution: algorithm, #clusters, quality.
  std::string Summary() const;

  /// Checkpoint serialization (see ckpt::Archive). Reading bypasses Add's
  /// size check; the caller validates the restored set.
  void Visit(ckpt::Archive& ar);

 private:
  std::vector<Clustering> solutions_;
};

}  // namespace multiclust

#endif  // MULTICLUST_CORE_SOLUTION_SET_H_
