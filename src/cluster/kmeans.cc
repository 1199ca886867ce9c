#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/iterative_run.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/profile.h"
#include "common/rng.h"
#include "common/trace.h"
#include "linalg/kernels.h"

namespace multiclust {

namespace {

// Squared distance from row i of data to row c of centers.
double RowCenterDist2(const Matrix& data, size_t i, const Matrix& centers,
                      size_t c) {
  return kernels::SquaredDistance(data.row_data(i), centers.row_data(c),
                                  data.cols());
}

// Per-row squared norms ||x_i||^2 (for the norm-form assignment step).
std::vector<double> RowSquaredNorms(const Matrix& m) {
  std::vector<double> norms(m.rows());
  ParallelFor(0, m.rows(), 1024, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      norms[i] = kernels::SquaredNorm(m.row_data(i), m.cols());
    }
  });
  return norms;
}

// Exact-form SSE via deterministic chunked reduction (fixed grain), so the
// objective is bit-identical for any thread count.
double SseOf(const Matrix& data, const Matrix& centers,
             const std::vector<int>& labels) {
  return ParallelReduce(
      0, data.rows(), 1024, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          s += RowCenterDist2(data, i, centers, labels[i]);
        }
        return s;
      },
      [](double a, double b) { return a + b; });
}

Matrix InitCenters(const Matrix& data, size_t k, bool plus_plus, Rng* rng) {
  MULTICLUST_TRACE_SPAN("cluster.kmeans.init");
  const size_t n = data.rows();
  const size_t d = data.cols();
  Matrix centers(k, d);
  if (!plus_plus) {
    const std::vector<size_t> picks = rng->SampleWithoutReplacement(n, k);
    for (size_t c = 0; c < k; ++c) centers.CopyRowFrom(data, picks[c], c);
    return centers;
  }
  // k-means++: first centre uniform, then proportional to D^2. The D^2
  // updates against the latest centre are independent per point, so they
  // parallelize without affecting the sampled sequence.
  centers.CopyRowFrom(data, rng->NextIndex(n), 0);
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  for (size_t c = 1; c < k; ++c) {
    ParallelFor(0, n, 512, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        d2[i] = std::min(d2[i], RowCenterDist2(data, i, centers, c - 1));
      }
    });
    centers.CopyRowFrom(data, rng->Categorical(d2), c);
  }
  return centers;
}

struct LloydResult {
  std::vector<int> labels;
  Matrix centers;
  double sse = 0.0;
  size_t iterations = 0;
  bool converged = false;

  void Visit(ckpt::Archive& ar) {
    ar.Field("labels", labels)
        .Field("centers", centers)
        .Field("sse", sse)
        .Field("iterations", iterations)
        .Field("converged", converged);
  }
};

/// Mid-restart resume point: continue the Lloyd loop of one restart from a
/// checkpointed iteration boundary instead of (re)initialising centres.
struct LloydSeed {
  size_t start_iter = 0;
  Matrix centers;
  std::vector<int> labels;
  Rng rng;  ///< the restart's own stream at that boundary

  void Visit(ckpt::Archive& ar) {
    ar.Field("next_iter", start_iter)
        .Field("centers", centers)
        .Field("labels", labels)
        .Field("rng", rng);
  }
};

using KMeansRun = IterativeRun<RestartState<LloydSeed, LloydResult>>;

Result<LloydResult> RunLloyd(const Matrix& data, const KMeansOptions& options,
                             Rng* rng, KMeansRun& run, size_t restart,
                             const LloydSeed* resume) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = options.k;
  LloydResult r;
  size_t start_iter = 0;
  if (resume != nullptr) {
    r.centers = resume->centers;
    r.labels = resume->labels;
    start_iter = resume->start_iter;
    r.iterations = start_iter;
  } else {
    r.centers = InitCenters(data, k, options.plus_plus_init, rng);
    r.labels.assign(n, 0);
  }
  const std::vector<double> x_norms = RowSquaredNorms(data);
  // Records where a resumed run continues: iteration `next_iter` of this
  // restart, from the current centres/labels and stream position.
  const auto seed_at = [&](size_t next_iter) {
    return [&r, rng, next_iter](LloydSeed& seed) {
      seed.start_iter = next_iter;
      seed.centers = r.centers;
      seed.labels = r.labels;
      seed.rng = *rng;
    };
  };

  for (size_t iter = start_iter; iter < options.max_iters; ++iter) {
    if (run.guard().Cancelled()) {
      run.FlushSeed(restart, seed_at(iter));
      return run.guard().CancelledStatus();
    }
    if (run.guard().ShouldStop(iter)) break;
    MC_METRIC_COUNT("cluster.kmeans.iterations", 1);
    {
      MULTICLUST_TRACE_SPAN("cluster.kmeans.assign");
      // Assignment step in the norm form ||x||^2 - 2 x.c + ||c||^2: the
      // inner loop is a plain dot product. Labels are written per point,
      // so the step is bit-identical for any thread count.
      const std::vector<double> c_norms = RowSquaredNorms(r.centers);
      const double* centers_flat = r.centers.row_data(0);
      ParallelFor(0, n, 256, [&](size_t lo, size_t hi) {
        // Telemetry FLOP tally per chunk (never per point): the norm-form
        // scan is a k x d dot product (2 flops/element) per point.
        telemetry::CountFlops(2 * (hi - lo) * k * d,
                              (hi - lo) * d * sizeof(double));
        for (size_t i = lo; i < hi; ++i) {
          r.labels[i] =
              kernels::NearestNormForm(data.row_data(i), centers_flat, k, d,
                                       x_norms[i], c_norms.data());
        }
      });
    }
    MULTICLUST_TRACE_SPAN("cluster.kmeans.update");
    Matrix next(k, d);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      ++counts[r.labels[i]];
      kernels::Add(next.row_data(r.labels[i]), data.row_data(i), d);
    }
    size_t reseeds = 0;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random object.
        next.CopyRowFrom(data, rng->NextIndex(n), c);
        ++reseeds;
        continue;
      }
      double* ctr = next.row_data(c);
      for (size_t j = 0; j < d; ++j) ctr[j] /= static_cast<double>(counts[c]);
    }
    if (reseeds > 0) MC_METRIC_COUNT("cluster.kmeans.reseeds", reseeds);
    if (MC_FAULT_FIRES("kmeans", FaultKind::kInjectNaN, iter)) {
      next.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("kmeans", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "k-means: injected allocation failure growing the centre matrix "
          "at iteration " + std::to_string(iter));
    }
    const double shift = next.MaxAbsDiff(r.centers);
    r.centers = std::move(next);
    r.iterations = iter + 1;
    if (!std::isfinite(shift)) {
      return Status::ComputationError(
          "k-means: non-finite centre shift at iteration " +
          std::to_string(iter));
    }
    if (run.recorder().enabled()) {
      run.recorder().Record(restart, iter, SseOf(data, r.centers, r.labels),
                            shift, reseeds);
    }
    if (shift <= options.tol &&
        !MC_FAULT_FIRES("kmeans", FaultKind::kForceNonConvergence, iter)) {
      r.converged = true;
      break;
    }
    // Persistence point: this restart continues, so a resumed run picks up
    // at iter + 1. IterativeRun's restart-boundary snapshot covers the
    // converged/exhausted exits.
    MC_RETURN_IF_ERROR(run.PersistSeed(restart, seed_at(iter + 1)));
  }

  r.sse = SseOf(data, r.centers, r.labels);
  return r;
}

uint64_t KMeansFingerprint(const Matrix& data, const KMeansOptions& options) {
  Fingerprint fp;
  fp.Mix("kmeans");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.max_iters));
  fp.MixDouble(options.tol);
  fp.Mix(static_cast<uint64_t>(options.plus_plus_init ? 1 : 0));
  fp.Mix(static_cast<uint64_t>(options.restarts));
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<Clustering> RunKMeans(const Matrix& data,
                             const KMeansOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k-means: k must be > 0");
  if (data.rows() < options.k) {
    return Status::InvalidArgument("k-means: fewer objects than clusters");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("k-means", data));
  MULTICLUST_TRACE_SPAN("cluster.kmeans.run");
  KMeansRun run("kmeans", options.budget, options.diagnostics,
                options.max_iters);
  run.state.rng = Rng(options.seed);
  run.Restore([&] { return KMeansFingerprint(data, options); },
              [](const auto&) { return true; });

  // Each restart runs on its own child stream split off the outer one; an
  // interrupted restart resumes on the child stream saved in its seed.
  MC_ASSIGN_OR_RETURN(
      LloydResult best,
      run.Restarts(
          std::max<size_t>(options.restarts, 1),
          [&](size_t r, LloydSeed* resume) {
            Rng child = resume != nullptr ? resume->rng : run.state.rng.Split();
            MC_METRIC_COUNT("cluster.kmeans.restarts", 1);
            return RunLloyd(data, options, &child, run, r, resume);
          },
          [](const LloydResult& a, const LloydResult& b) {
            return a.sse < b.sse;
          }));
  run.Finish(best.iterations, best.converged);
  Clustering c;
  c.labels = std::move(best.labels);
  c.centroids = std::move(best.centers);
  c.quality = best.sse;
  c.algorithm = "kmeans";
  c.iterations = best.iterations;
  c.converged = best.converged;
  return c;
}

}  // namespace multiclust
