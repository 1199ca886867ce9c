#include "cluster/clustering.h"

#include "common/checkpoint.h"
#include "linalg/kernels.h"
#include "stats/contingency.h"

namespace multiclust {

void Clustering::Visit(ckpt::Archive& ar) {
  ar.Field("labels", labels)
      .Field("centroids", centroids)
      .Field("quality", quality)
      .Field("algorithm", algorithm)
      .Field("iterations", iterations)
      .Field("converged", converged);
}

size_t Clustering::NumClusters() const {
  std::vector<int> dense;
  return DenseRelabel(labels, &dense);
}

std::vector<std::vector<int>> Clustering::ClusterMembers() const {
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  std::vector<std::vector<int>> members(k);
  for (size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] >= 0) members[dense[i]].push_back(static_cast<int>(i));
  }
  return members;
}

void Clustering::Canonicalize() {
  std::vector<int> dense;
  DenseRelabel(labels, &dense);
  labels = std::move(dense);
}

std::vector<int> AssignToNearest(const Matrix& data, const Matrix& centers) {
  std::vector<int> labels(data.rows(), -1);
  if (centers.rows() == 0) return labels;
  const double* centers_flat = centers.row_data(0);
  for (size_t i = 0; i < data.rows(); ++i) {
    labels[i] = kernels::NearestSquared(data.row_data(i), centers_flat,
                                        centers.rows(), data.cols());
  }
  return labels;
}

}  // namespace multiclust
