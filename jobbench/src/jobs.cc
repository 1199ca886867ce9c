#include "jobs.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "altspace/dec_kmeans.h"
#include "altspace/meta_clustering.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "data/generators.h"
#include "linalg/decomposition.h"
#include "linalg/kernels.h"
#include "metrics/clustering_quality.h"
#include "metrics/multi_solution.h"
#include "orthogonal/ortho_projection.h"
#include "stats/hsic.h"
#include "subspace/msc.h"

namespace jobbench {

using multiclust::DiscoveryOptions;
using multiclust::DiscoveryReport;
using multiclust::DiscoveryStrategy;
using multiclust::Matrix;
using multiclust::SolutionSet;

double NowMs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::shared_ptr<const multiclust::Dataset> GenerateCustomer(size_t n,
                                                            uint64_t seed,
                                                            double* ms) {
  const double t0 = NowMs();
  auto made = multiclust::MakeCustomerScenario(n, seed);
  *ms = NowMs() - t0;
  if (!made.ok()) return nullptr;
  return std::make_shared<const multiclust::Dataset>(std::move(made).value());
}

std::string CheckReport(const DiscoveryReport& report, size_t rows) {
  if (report.solutions.empty()) return "no solution returned";
  const int k = static_cast<int>(report.chosen_k);
  for (const multiclust::Clustering& c : report.solutions.solutions()) {
    if (c.labels.size() != rows) return "label vector of wrong length";
    for (int label : c.labels) {
      if (label < 0 || label >= k) {
        return "label " + std::to_string(label) + " outside [0, " +
               std::to_string(k) + ")";
      }
    }
  }
  return "";
}

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool SameResult(const DiscoveryReport& a, const DiscoveryReport& b) {
  if (a.solutions.Labels() != b.solutions.Labels()) return false;
  const auto& qa = a.objective.qualities;
  const auto& qb = b.objective.qualities;
  if (qa.size() != qb.size()) return false;
  for (size_t i = 0; i < qa.size(); ++i) {
    if (!SameBits(qa[i], qb[i])) return false;
  }
  return SameBits(a.objective.mean_quality, b.objective.mean_quality) &&
         SameBits(a.objective.mean_dissimilarity,
                  b.objective.mean_dissimilarity) &&
         SameBits(a.objective.min_dissimilarity,
                  b.objective.min_dissimilarity);
}

double ViewRecovery(const multiclust::Dataset& dataset,
                    const std::vector<std::vector<int>>& solutions) {
  std::vector<std::vector<int>> truths;
  for (const std::string& name : dataset.GroundTruthNames()) {
    truths.push_back(dataset.GroundTruth(name).value());
  }
  auto match = multiclust::MatchSolutionsToTruths(truths, solutions);
  return match.ok() ? match->mean_recovery : 0.0;
}

namespace {

// One span around one call, closed when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t job, int parent)
      : log_(log), index_(log->Begin(name, job, parent, NowMs())) {}
  ~ScopedSpan() { log_->End(index_, NowMs()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

const char* StrategySpan(DiscoveryStrategy s) {
  switch (s) {
    case DiscoveryStrategy::kDecorrelatedKMeans:
      return "altspace.dec_kmeans";
    case DiscoveryStrategy::kOrthogonalProjections:
      return "orthogonal.ortho_projection";
    case DiscoveryStrategy::kSpectralViews:
      return "subspace.msc";
    case DiscoveryStrategy::kMetaClustering:
      return "altspace.meta_clustering";
  }
  return "strategy.unknown";
}

// The strategy stage with the options DiscoverMultipleClusterings builds
// for a first attempt under an unlimited budget (core/pipeline.cc).
// `msc_dims` receives the spectral views' dimensions for the probes.
multiclust::Result<SolutionSet> RunStrategyStage(
    const Matrix& data, const DiscoveryOptions& options, size_t k,
    LayerTotals* totals, std::vector<std::vector<size_t>>* msc_dims) {
  multiclust::RunDiagnostics diag;
  switch (options.strategy) {
    case DiscoveryStrategy::kDecorrelatedKMeans: {
      multiclust::DecKMeansOptions dk;
      dk.ks.assign(options.num_solutions, k);
      dk.lambda = 4.0;
      dk.restarts = 5;
      dk.seed = options.seed;
      dk.diagnostics = &diag;
      MC_ASSIGN_OR_RETURN(multiclust::DecKMeansResult r,
                          multiclust::RunDecorrelatedKMeans(data, dk));
      totals->deckm_iterations += static_cast<double>(r.iterations);
      ++totals->deckm_runs;
      return std::move(r.solutions);
    }
    case DiscoveryStrategy::kOrthogonalProjections: {
      multiclust::KMeansOptions km;
      km.k = k;
      km.restarts = 5;
      km.seed = options.seed;
      km.diagnostics = &diag;
      multiclust::KMeansClusterer clusterer(km);
      multiclust::OrthoProjectionOptions op;
      op.max_views = options.num_solutions;
      MC_ASSIGN_OR_RETURN(
          multiclust::OrthoProjectionResult r,
          multiclust::RunOrthoProjection(data, &clusterer, op));
      return std::move(r.solutions);
    }
    case DiscoveryStrategy::kSpectralViews: {
      multiclust::MscOptions msc;
      msc.num_views = options.num_solutions;
      msc.k = k;
      msc.seed = options.seed;
      msc.diagnostics = &diag;
      MC_ASSIGN_OR_RETURN(multiclust::MscResult r,
                          multiclust::RunMultipleSpectralViews(data, msc));
      for (const multiclust::MscView& v : r.views) msc_dims->push_back(v.dims);
      return std::move(r.solutions);
    }
    case DiscoveryStrategy::kMetaClustering: {
      multiclust::MetaClusteringOptions mc;
      mc.num_base = 10 * options.num_solutions;
      mc.k = k;
      mc.meta_k = options.num_solutions;
      mc.seed = options.seed;
      mc.diagnostics = &diag;
      MC_ASSIGN_OR_RETURN(multiclust::MetaClusteringResult r,
                          multiclust::RunMetaClustering(data, mc));
      return std::move(r.representatives);
    }
  }
  return multiclust::Status::InvalidArgument("unknown strategy");
}

// Repeats `pass` until at least 5 ms have elapsed; returns the elapsed ms
// and the number of passes.
template <typename Fn>
double TimeRepeated(Fn&& pass, size_t* passes) {
  const double t0 = NowMs();
  *passes = 0;
  double elapsed = 0.0;
  do {
    pass();
    ++*passes;
    elapsed = NowMs() - t0;
  } while (elapsed < 5.0);
  return elapsed;
}

volatile double g_sink = 0.0;

// Kernel throughput at the job's shape: squared distances from the first
// rows to every row, and the data times a d x d matrix.
void ProbeKernels(const Matrix& data, LayerTotals* totals) {
  const size_t n = data.rows(), d = data.cols();
  const size_t anchors = std::min<size_t>(n, 256);
  size_t passes = 0;
  totals->sqdist_ms += TimeRepeated(
      [&] {
        double acc = 0.0;
        for (size_t i = 0; i < anchors; ++i) {
          for (size_t j = 0; j < n; ++j) {
            acc += multiclust::kernels::SquaredDistance(data.row_data(i),
                                                        data.row_data(j), d);
          }
        }
        g_sink = g_sink + acc;
      },
      &passes);
  totals->sqdist_flops += 3.0 * d * anchors * n * passes;

  Matrix b(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) b.at(i, j) = 1.0 / (1.0 + i + 2.0 * j);
  }
  Matrix c(n, d);
  totals->gemm_ms += TimeRepeated(
      [&] {
        std::fill(c.row_data(0), c.row_data(0) + n * d, 0.0);
        multiclust::kernels::GemmRows(data.row_data(0), d, b.row_data(0), d,
                                      c.row_data(0), 0, n);
        g_sink = g_sink + c.at(n - 1, d - 1);
      },
      &passes);
  totals->gemm_flops += 2.0 * n * d * d * passes;
}

}  // namespace

DiscoveryReport TraceJob(const Job& job, int64_t job_id, size_t threads,
                         LayerTotals* totals, std::string* error) {
  const Matrix& data = job.dataset->data();
  const DiscoveryOptions& options = job.options;

  // The reference: the pipeline itself, untraced.
  const double p0 = NowMs();
  auto reference = multiclust::DiscoverMultipleClusterings(data, options);
  totals->pipeline_ms += NowMs() - p0;
  if (!reference.ok()) {
    *error = reference.status().ToString();
    return {};
  }
  if (reference->solutions.empty()) {
    *error = "no solution returned";
    return {};
  }
  ++totals->jobs;
  const multiclust::telemetry::ResourceProfile& res = reference->resource;
  totals->flops += static_cast<double>(res.flops);
  totals->allocs += static_cast<double>(res.alloc_count);
  totals->cpu_ms += res.user_cpu_ms + res.system_cpu_ms;
  totals->wall_thread_ms += res.wall_ms * static_cast<double>(threads);

  // The replay, one span per public call the pipeline makes.
  SpanLog* log = &totals->spans;
  DiscoveryReport replay;
  std::vector<std::vector<size_t>> msc_dims;
  bool replay_ok = true;
  const double r0 = NowMs();
  {
    ScopedSpan root(log, "core.job", job_id, -1);
    size_t k = options.k;
    if (k == 0) {
      ScopedSpan span(log, "core.select_k", job_id, root.index());
      auto chosen =
          multiclust::SelectKBySilhouette(data, options.max_k, options.seed);
      replay_ok = chosen.ok();
      if (replay_ok) k = *chosen;
    }
    replay.chosen_k = k;
    if (replay_ok) {
      ScopedSpan span(log, StrategySpan(options.strategy), job_id,
                      root.index());
      auto solved = RunStrategyStage(data, options, k, totals, &msc_dims);
      replay_ok = solved.ok();
      if (replay_ok) replay.solutions = std::move(solved).value();
    }
    if (replay_ok) {
      ScopedSpan span(log, "core.dedup", job_id, root.index());
      auto dropped = replay.solutions.Deduplicate(options.min_dissimilarity);
      replay_ok = dropped.ok();
      if (replay_ok) totals->dedup_dropped += static_cast<double>(*dropped);
    }
    if (replay_ok) {
      ScopedSpan span(log, "core.objective", job_id, root.index());
      auto objective = multiclust::EvaluateObjective(
          data, replay.solutions, multiclust::SilhouetteQuality(),
          multiclust::NmiDissimilarity(), 1.0);
      replay_ok = objective.ok();
      if (replay_ok) replay.objective = std::move(objective).value();
    }
  }
  totals->replay_ms += NowMs() - r0;
  if (replay_ok && replay.chosen_k == reference->chosen_k &&
      SameResult(replay, *reference)) {
    ++totals->replay_matched;
  }

  // Layer probes on the job's data, each its own root span.
  const size_t k = reference->chosen_k;
  {
    ScopedSpan span(log, "metrics.silhouette", job_id, -1);
    g_sink = g_sink +
             multiclust::Silhouette(data, reference->solutions.at(0).labels)
                 .value_or(0.0);
  }
  {
    multiclust::KMeansOptions km;
    km.k = k;
    km.restarts = 5;
    km.seed = options.seed;
    ScopedSpan span(log, "cluster.kmeans", job_id, -1);
    auto c = multiclust::RunKMeans(data, km);
    if (c.ok()) {
      totals->kmeans_iterations += static_cast<double>(c->iterations);
      ++totals->kmeans_runs;
    }
  }
  ProbeKernels(data, totals);
  if (msc_dims.size() >= 2) {
    const Matrix view0 = job.dataset->Project(msc_dims[0]);
    const Matrix view1 = job.dataset->Project(msc_dims[1]);
    {
      multiclust::SpectralOptions so;
      so.k = k;
      so.seed = options.seed;
      ScopedSpan span(log, "cluster.spectral", job_id, -1);
      g_sink = g_sink + static_cast<double>(
                            multiclust::RunSpectral(view0, so).ok());
    }
    {
      ScopedSpan span(log, "stats.hsic", job_id, -1);
      g_sink = g_sink + multiclust::Hsic(view0, view1).value_or(0.0);
    }
    const Matrix affinity = multiclust::GaussianKernelMatrix(view0);
    {
      ScopedSpan span(log, "linalg.eigen_symmetric", job_id, -1);
      g_sink = g_sink + static_cast<double>(
                            multiclust::EigenSymmetric(affinity).ok());
    }
  }
  return std::move(reference).value();
}

}  // namespace jobbench
