#include "metrics/clustering_quality.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/parallel.h"
#include "common/profile.h"
#include "common/trace.h"
#include "stats/contingency.h"

namespace multiclust {

namespace {

// Objects per row block. The distances from a block's objects to every
// object are produced together, lane by lane, so the block's per-cluster
// sums form kRowBlock independent addition chains.
constexpr size_t kRowBlock = 4;

// Objects per parallel chunk (a multiple of kRowBlock). Every per-object
// result is computed from its own row alone, so this sets the scheduling
// granularity only, never a value.
constexpr size_t kRowGrain = 32;

// The shared pairwise-distance row pass behind Silhouette and DunnIndex.
// For j = j_begin .. n - 1 in ascending order, calls visit(j, dist) where
// dist[r] is the Euclidean distance from object min(i0 + r, last) to
// object j. Each squared distance is summed over the columns in ascending
// order in plain scalar arithmetic (this file is built without FP
// contraction), so every value equals the textbook double loop's bit for
// bit. A self-distance is exactly zero. Tallies 3d + 1 FLOPs per pair.
template <typename Visit>
void VisitDistanceRows(const Matrix& data, size_t i0, size_t last,
                       size_t j_begin, const Visit& visit) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  static_assert(kRowBlock == 4, "the row block is unrolled by hand");
  const double* x0 = data.row_data(i0);
  const double* x1 = data.row_data(std::min(i0 + 1, last));
  const double* x2 = data.row_data(std::min(i0 + 2, last));
  const double* x3 = data.row_data(std::min(i0 + 3, last));
  double dist[kRowBlock];
  for (size_t j = j_begin; j < n; ++j) {
    const double* y = data.row_data(j);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t c = 0; c < d; ++c) {
      const double t0 = x0[c] - y[c];
      const double t1 = x1[c] - y[c];
      const double t2 = x2[c] - y[c];
      const double t3 = x3[c] - y[c];
      s0 += t0 * t0;
      s1 += t1 * t1;
      s2 += t2 * t2;
      s3 += t3 * t3;
    }
    dist[0] = std::sqrt(s0);
    dist[1] = std::sqrt(s1);
    dist[2] = std::sqrt(s2);
    dist[3] = std::sqrt(s3);
    if (j >= i0 && j <= last) dist[j - i0] = 0.0;
    visit(j, dist);
  }
  const uint64_t pairs = (last - i0 + 1) * (n - std::min(j_begin, n));
  telemetry::CountFlops(pairs * (3 * d + 1), pairs * d * sizeof(double));
}

// One labeling of a SilhouetteBatch: its dense labels with noise routed to
// a discard bucket `k`, the cluster sizes, and the per-object scores.
struct SilhouetteJob {
  Status status = Status::OK();
  size_t k = 0;
  std::vector<int> bucket;
  std::vector<size_t> sizes;
  std::vector<double> score;
  std::vector<unsigned char> scored;
};

// The silhouette of object i from its per-cluster distance sums
// (sum[c * kRowBlock], one lane of the block). Leaves `scored` unset when
// the object is noise, a singleton, or has no finite nearest cluster.
void ScoreObject(SilhouetteJob* job, size_t i, const double* sum) {
  if (job->bucket[i] == static_cast<int>(job->k)) return;
  const size_t own = job->bucket[i];
  if (job->sizes[own] <= 1) return;  // silhouette undefined; skip
  const double a =
      sum[own * kRowBlock] / static_cast<double>(job->sizes[own] - 1);
  double b = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < job->k; ++c) {
    if (c == own || job->sizes[c] == 0) continue;
    b = std::min(b, sum[c * kRowBlock] / static_cast<double>(job->sizes[c]));
  }
  if (!std::isfinite(b)) return;
  const double denom = std::max(a, b);
  if (denom > 0) {
    job->score[i] = (b - a) / denom;
    job->scored[i] = 1;
  }
}

}  // namespace

Result<double> SumSquaredError(const Matrix& data,
                               const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("SumSquaredError: size mismatch");
  }
  MC_ASSIGN_OR_RETURN(Matrix means, ClusterMeans(data, labels));
  std::vector<int> dense;
  DenseRelabel(labels, &dense);
  double sse = 0.0;
  for (size_t i = 0; i < data.rows(); ++i) {
    if (dense[i] < 0) continue;
    const double* row = data.row_data(i);
    const double* mean = means.row_data(dense[i]);
    for (size_t j = 0; j < data.cols(); ++j) {
      const double d = row[j] - mean[j];
      sse += d * d;
    }
  }
  return sse;
}

std::vector<Result<double>> SilhouetteBatch(
    const Matrix& data, const std::vector<std::vector<int>>& labelings) {
  MULTICLUST_TRACE_SPAN("metrics.silhouette");
  const size_t n = data.rows();
  std::vector<SilhouetteJob> jobs(labelings.size());
  std::vector<SilhouetteJob*> live;
  for (size_t b = 0; b < labelings.size(); ++b) {
    SilhouetteJob& job = jobs[b];
    if (labelings[b].size() != n) {
      job.status = Status::InvalidArgument("Silhouette: size mismatch");
      continue;
    }
    job.k = DenseRelabel(labelings[b], &job.bucket);
    if (job.k < 2) {
      job.status =
          Status::FailedPrecondition("Silhouette: needs >= 2 clusters");
      continue;
    }
    job.sizes.assign(job.k, 0);
    for (int& l : job.bucket) {
      if (l >= 0) {
        ++job.sizes[l];
      } else {
        l = static_cast<int>(job.k);
      }
    }
    job.score.assign(n, 0.0);
    job.scored.assign(n, 0);
    live.push_back(&job);
  }

  if (!live.empty()) {
    ParallelFor(0, n, kRowGrain, [&](size_t lo, size_t hi) {
      std::vector<std::vector<double>> sums(live.size());
      for (size_t b = 0; b < live.size(); ++b) {
        sums[b].resize((live[b]->k + 1) * kRowBlock);
      }
      for (size_t i0 = lo; i0 < hi; i0 += kRowBlock) {
        const size_t last = std::min(i0 + kRowBlock, hi) - 1;
        for (std::vector<double>& sum : sums) {
          std::fill(sum.begin(), sum.end(), 0.0);
        }
        // Per-cluster sums in ascending j; noise lands in the discard
        // bucket and j == i adds an exact zero, as the serial loop skips
        // both.
        VisitDistanceRows(data, i0, last, 0, [&](size_t j, const double* dist) {
          for (size_t b = 0; b < live.size(); ++b) {
            double* acc = sums[b].data() + live[b]->bucket[j] * kRowBlock;
            for (size_t r = 0; r < kRowBlock; ++r) acc[r] += dist[r];
          }
        });
        for (size_t b = 0; b < live.size(); ++b) {
          for (size_t i = i0; i <= last; ++i) {
            ScoreObject(live[b], i, sums[b].data() + (i - i0));
          }
        }
      }
    });
  }

  std::vector<Result<double>> out;
  out.reserve(jobs.size());
  for (const SilhouetteJob& job : jobs) {
    if (!job.status.ok()) {
      out.push_back(job.status);
      continue;
    }
    // Serial sum in ascending i: the same order as a single-threaded loop.
    double total = 0.0;
    size_t counted = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!job.scored[i]) continue;
      total += job.score[i];
      ++counted;
    }
    if (counted == 0) {
      out.push_back(
          Status::FailedPrecondition("Silhouette: no scorable objects"));
    } else {
      out.push_back(total / static_cast<double>(counted));
    }
  }
  return out;
}

Result<double> Silhouette(const Matrix& data,
                          const std::vector<int>& labels) {
  return std::move(SilhouetteBatch(data, {labels}).front());
}

Result<double> DunnIndex(const Matrix& data, const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("DunnIndex: size mismatch");
  }
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  if (k < 2) {
    return Status::FailedPrecondition("DunnIndex: needs >= 2 clusters");
  }
  // Min and max ignore the order of their operands, so the parallel
  // chunks reproduce the serial upper-triangle loop exactly.
  struct Extremes {
    double min_inter = std::numeric_limits<double>::infinity();
    double max_diam = 0.0;
  };
  const Extremes ext = ParallelReduce(
      0, data.rows(), kRowGrain, Extremes{},
      [&](size_t lo, size_t hi) {
        Extremes e;
        for (size_t i0 = lo; i0 < hi; i0 += kRowBlock) {
          const size_t last = std::min(i0 + kRowBlock, hi) - 1;
          VisitDistanceRows(
              data, i0, last, i0 + 1, [&](size_t j, const double* dist) {
                if (dense[j] < 0) return;
                for (size_t i = i0; i <= last && i < j; ++i) {
                  if (dense[i] < 0) continue;
                  if (dense[i] == dense[j]) {
                    e.max_diam = std::max(e.max_diam, dist[i - i0]);
                  } else {
                    e.min_inter = std::min(e.min_inter, dist[i - i0]);
                  }
                }
              });
        }
        return e;
      },
      [](Extremes acc, Extremes part) {
        acc.min_inter = std::min(acc.min_inter, part.min_inter);
        acc.max_diam = std::max(acc.max_diam, part.max_diam);
        return acc;
      });
  if (ext.max_diam <= 0.0) {
    return Status::FailedPrecondition("DunnIndex: zero intra-cluster spread");
  }
  return ext.min_inter / ext.max_diam;
}

Result<Matrix> ClusterMeans(const Matrix& data,
                            const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("ClusterMeans: size mismatch");
  }
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  Matrix means(k, data.cols());
  std::vector<size_t> counts(k, 0);
  for (size_t i = 0; i < data.rows(); ++i) {
    if (dense[i] < 0) continue;
    ++counts[dense[i]];
    for (size_t j = 0; j < data.cols(); ++j) {
      means.at(dense[i], j) += data.at(i, j);
    }
  }
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    for (size_t j = 0; j < data.cols(); ++j) {
      means.at(c, j) /= static_cast<double>(counts[c]);
    }
  }
  return means;
}

double NoiseFraction(const std::vector<int>& labels) {
  if (labels.empty()) return 0.0;
  size_t noise = 0;
  for (int l : labels) {
    if (l < 0) ++noise;
  }
  return static_cast<double>(noise) / static_cast<double>(labels.size());
}

size_t NumClusters(const std::vector<int>& labels) {
  std::vector<int> dense;
  return DenseRelabel(labels, &dense);
}

}  // namespace multiclust
