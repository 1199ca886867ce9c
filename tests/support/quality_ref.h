#ifndef MULTICLUST_TESTS_SUPPORT_QUALITY_REF_H_
#define MULTICLUST_TESTS_SUPPORT_QUALITY_REF_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "stats/contingency.h"

namespace multiclust {
namespace test {

/// Serial reference implementations of the O(n^2) validity indices: the
/// textbook double loops that metrics/clustering_quality.cc replaced with
/// a shared, parallel distance-row pass. They play the role kernels::ref
/// plays for the SIMD layer: tests assert the library's values equal these
/// bit for bit, at every thread count.

/// Mean silhouette, one object at a time in ascending order; each
/// object's per-cluster distance sums run over j in ascending order.
inline Result<double> RefSilhouette(const Matrix& data,
                                    const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("Silhouette: size mismatch");
  }
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  if (k < 2) {
    return Status::FailedPrecondition("Silhouette: needs >= 2 clusters");
  }
  const size_t n = data.rows();
  std::vector<size_t> sizes(k, 0);
  for (int l : dense) {
    if (l >= 0) ++sizes[l];
  }

  double total = 0.0;
  size_t counted = 0;
  std::vector<double> dist_sum(k);
  for (size_t i = 0; i < n; ++i) {
    if (dense[i] < 0) continue;
    std::fill(dist_sum.begin(), dist_sum.end(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j == i || dense[j] < 0) continue;
      double s = 0.0;
      for (size_t c = 0; c < data.cols(); ++c) {
        const double d = data.at(i, c) - data.at(j, c);
        s += d * d;
      }
      dist_sum[dense[j]] += std::sqrt(s);
    }
    const size_t own = dense[i];
    if (sizes[own] <= 1) continue;  // silhouette undefined; skip
    const double a = dist_sum[own] / static_cast<double>(sizes[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      if (c == own || sizes[c] == 0) continue;
      b = std::min(b, dist_sum[c] / static_cast<double>(sizes[c]));
    }
    if (!std::isfinite(b)) continue;
    const double denom = std::max(a, b);
    if (denom > 0) {
      total += (b - a) / denom;
      ++counted;
    }
  }
  if (counted == 0) {
    return Status::FailedPrecondition("Silhouette: no scorable objects");
  }
  return total / static_cast<double>(counted);
}

/// Dunn index over the upper triangle of the distance matrix.
inline Result<double> RefDunnIndex(const Matrix& data,
                                   const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("DunnIndex: size mismatch");
  }
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  if (k < 2) {
    return Status::FailedPrecondition("DunnIndex: needs >= 2 clusters");
  }
  const size_t n = data.rows();
  double min_inter = std::numeric_limits<double>::infinity();
  double max_diam = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (dense[i] < 0) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (dense[j] < 0) continue;
      double s = 0.0;
      for (size_t c = 0; c < data.cols(); ++c) {
        const double d = data.at(i, c) - data.at(j, c);
        s += d * d;
      }
      const double dist = std::sqrt(s);
      if (dense[i] == dense[j]) {
        max_diam = std::max(max_diam, dist);
      } else {
        min_inter = std::min(min_inter, dist);
      }
    }
  }
  if (max_diam <= 0.0) {
    return Status::FailedPrecondition("DunnIndex: zero intra-cluster spread");
  }
  return min_inter / max_diam;
}

}  // namespace test
}  // namespace multiclust

#endif  // MULTICLUST_TESTS_SUPPORT_QUALITY_REF_H_
