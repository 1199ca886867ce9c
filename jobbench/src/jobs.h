// In-process discovery jobs: building them from a seed, running them
// through the library's one-call entry point, checking their outputs, and
// replaying them stage by stage under the benchmark's own spans.
#ifndef JOBBENCH_JOBS_H_
#define JOBBENCH_JOBS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "measure.h"

namespace jobbench {

/// Milliseconds on the steady clock since the first call.
double NowMs();

/// One discovery job: a generated dataset plus the options of the call.
struct Job {
  std::shared_ptr<const multiclust::Dataset> dataset;
  multiclust::DiscoveryOptions options;
};

/// Generates the customer scenario and records the call's time.
std::shared_ptr<const multiclust::Dataset> GenerateCustomer(size_t n,
                                                            uint64_t seed,
                                                            double* ms);

/// Empty when `report` passes the per-job output checks (at least one
/// solution, every label vector of the dataset's length with labels in
/// [0, chosen_k)); otherwise what failed.
std::string CheckReport(const multiclust::DiscoveryReport& report,
                        size_t rows);

/// True when two reports agree bit for bit on every solution's labels and
/// on the objective (qualities, mean quality, dissimilarities).
bool SameResult(const multiclust::DiscoveryReport& a,
                const multiclust::DiscoveryReport& b);

/// Mean planted-view recovery of the report's solutions
/// (MatchSolutionsToTruths over the dataset's ground truths).
double ViewRecovery(const multiclust::Dataset& dataset,
                    const std::vector<std::vector<int>>& solutions);

/// Per-layer sums of a traced run, reduced to metrics at its end.
struct LayerTotals {
  size_t jobs = 0;
  size_t replay_matched = 0;
  double pipeline_ms = 0.0;  ///< untraced DiscoverMultipleClusterings
  double replay_ms = 0.0;    ///< the same job replayed under spans
  double dedup_dropped = 0.0;
  double deckm_iterations = 0.0;
  size_t deckm_runs = 0;
  double kmeans_iterations = 0.0;
  size_t kmeans_runs = 0;
  double sqdist_flops = 0.0, sqdist_ms = 0.0;
  double gemm_flops = 0.0, gemm_ms = 0.0;
  double flops = 0.0, allocs = 0.0;
  double cpu_ms = 0.0, wall_thread_ms = 0.0;
  SpanLog spans;
};

/// Runs `job` once through DiscoverMultipleClusterings (the reference),
/// then replays it stage by stage — SelectKBySilhouette, the strategy's
/// Run*, Deduplicate, EvaluateObjective — with one span per call, then
/// times the layer probes on the job's data. Returns the reference run's
/// report, or an error message in `*error`.
multiclust::DiscoveryReport TraceJob(const Job& job, int64_t job_id,
                                     size_t threads, LayerTotals* totals,
                                     std::string* error);

}  // namespace jobbench

#endif  // JOBBENCH_JOBS_H_
