#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "altspace/dec_kmeans.h"
#include "altspace/meta_clustering.h"
#include "cluster/kmeans.h"
#include "common/iterative_run.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "metrics/clustering_quality.h"
#include "orthogonal/ortho_projection.h"
#include "subspace/msc.h"

namespace multiclust {

Result<size_t> SelectKBySilhouette(const Matrix& data, size_t max_k,
                                   uint64_t seed) {
  if (max_k < 2) {
    return Status::InvalidArgument("SelectKBySilhouette: max_k must be >= 2");
  }
  MULTICLUST_TRACE_SPAN("pipeline.select_k");
  // Every candidate's k-means first, then one batched silhouette pass:
  // the distances are computed once for all candidates.
  std::vector<std::vector<int>> labelings;  // labelings[t] has k = t + 2
  for (size_t k = 2; k <= max_k && k < data.rows(); ++k) {
    KMeansOptions opts;
    opts.k = k;
    opts.restarts = 5;
    opts.seed = seed + k;
    MC_ASSIGN_OR_RETURN(Clustering c, RunKMeans(data, opts));
    labelings.push_back(std::move(c.labels));
  }
  const std::vector<Result<double>> scores = SilhouetteBatch(data, labelings);
  size_t best_k = 2;
  double best_score = -2.0;
  for (size_t t = 0; t < scores.size(); ++t) {
    if (!scores[t].ok()) continue;
    if (*scores[t] > best_score) {
      best_score = *scores[t];
      best_k = t + 2;
    }
  }
  return best_k;
}

namespace {

const char* StrategyName(DiscoveryStrategy s) {
  switch (s) {
    case DiscoveryStrategy::kDecorrelatedKMeans:
      return "dec-kmeans";
    case DiscoveryStrategy::kOrthogonalProjections:
      return "ortho-projection";
    case DiscoveryStrategy::kSpectralViews:
      return "spectral-views";
    case DiscoveryStrategy::kMetaClustering:
      return "meta-clustering";
  }
  return "unknown";
}

// Span name per strategy (span names must be string literals). Unused when
// tracing is compiled out.
[[maybe_unused]] const char* StrategySpanName(DiscoveryStrategy s) {
  switch (s) {
    case DiscoveryStrategy::kDecorrelatedKMeans:
      return "pipeline.strategy.dec-kmeans";
    case DiscoveryStrategy::kOrthogonalProjections:
      return "pipeline.strategy.ortho-projection";
    case DiscoveryStrategy::kSpectralViews:
      return "pipeline.strategy.spectral-views";
    case DiscoveryStrategy::kMetaClustering:
      return "pipeline.strategy.meta-clustering";
  }
  return "pipeline.strategy.unknown";
}

// Result of one strategy attempt: the solutions plus what the strategy
// reported about its own convergence.
struct StrategyOutcome {
  SolutionSet solutions;
  size_t iterations = 0;
  bool converged = true;
  std::vector<std::string> warnings;
};

Result<StrategyOutcome> RunStrategy(const Matrix& data,
                                    DiscoveryStrategy strategy, size_t k,
                                    const DiscoveryOptions& options,
                                    uint64_t seed, const RunBudget& budget,
                                    RunDiagnostics* diag) {
  MULTICLUST_TRACE_SPAN(StrategySpanName(strategy));
  StrategyOutcome out;
  switch (strategy) {
    case DiscoveryStrategy::kDecorrelatedKMeans: {
      DecKMeansOptions dk;
      dk.ks.assign(options.num_solutions, k);
      dk.lambda = 4.0;
      dk.restarts = 5;
      dk.seed = seed;
      dk.budget = budget;
      // Remaining() strips the checkpoint channel; each strategy re-attaches
      // it explicitly so inner iterative algorithms snapshot too.
      dk.budget.checkpoint = options.budget.checkpoint;
      dk.diagnostics = diag;
      MC_ASSIGN_OR_RETURN(DecKMeansResult r, RunDecorrelatedKMeans(data, dk));
      out.solutions = std::move(r.solutions);
      out.iterations = r.iterations;
      out.converged = r.converged;
      break;
    }
    case DiscoveryStrategy::kOrthogonalProjections: {
      KMeansOptions km;
      km.k = k;
      km.restarts = 5;
      km.seed = seed;
      km.diagnostics = diag;
      km.budget.checkpoint = options.budget.checkpoint;
      KMeansClusterer clusterer(km);
      OrthoProjectionOptions op;
      op.max_views = options.num_solutions;
      op.budget = budget;
      MC_ASSIGN_OR_RETURN(OrthoProjectionResult r,
                          RunOrthoProjection(data, &clusterer, op));
      out.solutions = std::move(r.solutions);
      out.iterations = r.views.size();
      out.converged = !r.stopped_early;
      if (r.stopped_early) out.warnings.push_back(r.stop_message);
      break;
    }
    case DiscoveryStrategy::kSpectralViews: {
      MscOptions msc;
      msc.num_views = options.num_solutions;
      msc.k = k;
      msc.seed = seed;
      msc.budget = budget;
      msc.budget.checkpoint = options.budget.checkpoint;
      msc.diagnostics = diag;
      MC_ASSIGN_OR_RETURN(MscResult r, RunMultipleSpectralViews(data, msc));
      out.solutions = std::move(r.solutions);
      out.iterations = r.views.size();
      out.converged = r.warnings.empty();
      out.warnings = std::move(r.warnings);
      break;
    }
    case DiscoveryStrategy::kMetaClustering: {
      MetaClusteringOptions mc;
      mc.num_base = 10 * options.num_solutions;
      mc.k = k;
      mc.meta_k = options.num_solutions;
      mc.seed = seed;
      mc.budget = budget;
      mc.budget.checkpoint = options.budget.checkpoint;
      mc.diagnostics = diag;
      MC_ASSIGN_OR_RETURN(MetaClusteringResult r, RunMetaClustering(data, mc));
      out.solutions = std::move(r.representatives);
      out.iterations = r.base.size();
      out.converged = r.warnings.empty();
      out.warnings = std::move(r.warnings);
      break;
    }
  }
  return out;
}

// Stage-granularity state of one DiscoverMultipleClusterings invocation:
// the report under construction plus the attempt cursor. Checkpointed are
// the chosen k (stage 1) and the attempt ledger including, once solved,
// the solution set (stage 2). Dedup + objective scoring are deterministic
// recomputation and never checkpointed.
struct PipelineState {
  DiscoveryReport report;
  size_t next_attempt = 0;
  Status last_error;
  bool solved = false;

  void Visit(ckpt::Archive& ar) {
    ar.Field("chosen_k", report.chosen_k)
        .Field("next_attempt", next_attempt)
        .Field("attempts", report.attempts)
        .Field("warnings", report.warnings)
        .Field("last_error", last_error);
    ar.Optional("solved", solved, [&] {
      ar.Field("strategy_name", report.strategy_name)
          .Field("solutions", report.solutions)
          .Field("degraded", report.degraded);
    });
  }
};

uint64_t PipelineFingerprint(const Matrix& data,
                             const DiscoveryOptions& options) {
  Fingerprint fp;
  fp.Mix("pipeline");
  fp.Mix(static_cast<uint64_t>(static_cast<int>(options.strategy)));
  fp.Mix(static_cast<uint64_t>(options.num_solutions));
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.max_k));
  fp.MixDouble(options.min_dissimilarity);
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.retry.max_retries));
  fp.Mix(static_cast<uint64_t>(options.allow_fallback ? 1 : 0));
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<DiscoveryReport> DiscoverMultipleClusterings(
    const Matrix& data, const DiscoveryOptions& options) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("Discover: empty data");
  }
  if (options.num_solutions < 2) {
    return Status::InvalidArgument(
        "Discover: num_solutions must be >= 2 (use a plain clusterer for 1)");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("Discover", data));
  MULTICLUST_TRACE_SPAN("pipeline.run");
  BudgetTracker guard(options.budget, "pipeline");
  telemetry::ResourceScope resource_scope;
  telemetry::EmitStage("pipeline", "start");
  // Pipeline-stage warnings (corrupt checkpoint, restore notes) land in
  // the report's warning list, not a per-algorithm RunDiagnostics.
  RunDiagnostics restore_diag;
  Snapshots<PipelineState> snapshots("pipeline", options.budget.checkpoint,
                                     &restore_diag);
  const bool resumed = snapshots.Restore(
      [&] { return PipelineFingerprint(data, options); },
      [&](const PipelineState& s) {
        for (const Clustering& c : s.report.solutions.solutions()) {
          if (c.labels.size() != data.rows()) return false;
        }
        return s.report.chosen_k != 0;
      });
  PipelineState& st = snapshots.state;
  DiscoveryReport& report = st.report;
  report.warnings.insert(report.warnings.begin(),
                         restore_diag.warnings.begin(),
                         restore_diag.warnings.end());

  if (!resumed) {
    size_t k = options.k;
    if (k == 0) {
      telemetry::EmitStage("pipeline.select_k", "start");
      MC_ASSIGN_OR_RETURN(k,
                          SelectKBySilhouette(data, options.max_k,
                                              options.seed));
      telemetry::EmitStage("pipeline.select_k", "end");
    }
    // Stage boundary: model selection done, no attempts yet.
    report.chosen_k = k;
    MC_RETURN_IF_ERROR(snapshots.Persist());
  }
  const size_t k = report.chosen_k;

  // Fallback chain: the requested strategy first, then (when allowed) the
  // most robust strategies — dec-kmeans degrades gracefully under budget
  // pressure and meta-clustering tolerates individual base failures.
  std::vector<DiscoveryStrategy> chain = {options.strategy};
  if (options.allow_fallback) {
    for (DiscoveryStrategy fb : {DiscoveryStrategy::kDecorrelatedKMeans,
                                 DiscoveryStrategy::kMetaClustering}) {
      if (std::find(chain.begin(), chain.end(), fb) == chain.end()) {
        chain.push_back(fb);
      }
    }
  }

  // A resumed run replays the attempt ledger from the checkpoint (and,
  // once solved, the winning solution set); only the in-flight attempt
  // re-runs.
  for (size_t attempt = st.next_attempt; attempt < chain.size() && !st.solved;
       ++attempt) {
    const DiscoveryStrategy strategy = chain[attempt];
    if (guard.Cancelled()) {
      snapshots.Flush();
      return guard.CancelledStatus();
    }
    if (attempt > 0 && guard.DeadlineExpired()) {
      report.warnings.push_back(
          std::string("pipeline: deadline expired before fallback ") +
          StrategyName(strategy));
      break;
    }
    RunDiagnostics diag;
    diag.algorithm = StrategyName(strategy);
    telemetry::EmitStage(StrategyName(strategy), "start");
    const double started_ms = guard.ElapsedMs();
    Result<StrategyOutcome> outcome = RunWithRetry(
        options.retry, options.seed,
        [&](uint64_t seed) {
          return RunStrategy(data, strategy, k, options, seed,
                             guard.Remaining(), &diag);
        },
        &diag);
    diag.elapsed_ms = guard.ElapsedMs() - started_ms;
    // The strategy's own recorder reports the inner algorithm; the
    // attempt entry is labelled by strategy.
    diag.algorithm = StrategyName(strategy);
    if (outcome.ok()) {
      diag.iterations = outcome->iterations;
      diag.converged = outcome->converged;
      diag.stop_reason =
          outcome->converged ? StopReason::kConverged : StopReason::kDeadline;
      report.attempts.push_back(diag);
      report.strategy_name = StrategyName(strategy);
      report.solutions = std::move(outcome->solutions);
      for (std::string& w : outcome->warnings) {
        report.warnings.push_back(std::move(w));
      }
      if (diag.retries > 0) {
        report.warnings.push_back(std::string("pipeline: ") +
                                  StrategyName(strategy) + " needed " +
                                  std::to_string(diag.retries) +
                                  " deterministic retr" +
                                  (diag.retries == 1 ? "y" : "ies"));
      }
      report.degraded =
          attempt > 0 || diag.retries > 0 || !outcome->converged;
      st.solved = true;
      // Stage boundary: strategy solved. A resume from here skips the
      // attempt loop entirely and recomputes only the deterministic
      // dedup + objective stages.
      st.next_attempt = attempt + 1;
      MC_RETURN_IF_ERROR(snapshots.Persist());
      break;
    }
    // A failed attempt: cancellation, a simulated crash, and configuration
    // errors are final; recoverable computation errors move on to the next
    // strategy.
    if (outcome.status().code() == StatusCode::kCancelled ||
        outcome.status().code() == StatusCode::kAborted ||
        outcome.status().code() == StatusCode::kInvalidArgument) {
      return outcome.status();
    }
    diag.converged = false;
    report.attempts.push_back(diag);
    st.last_error = outcome.status();
    report.warnings.push_back(std::string("pipeline: ") +
                              StrategyName(strategy) +
                              " failed: " + st.last_error.ToString());
    if (!options.allow_fallback) break;
    // Stage boundary: attempt `attempt` failed recoverably; resume moves
    // straight to the next strategy in the fallback chain.
    st.next_attempt = attempt + 1;
    MC_RETURN_IF_ERROR(snapshots.Persist());
  }
  if (!st.solved) {
    if (st.last_error.ok()) {
      return Status::ComputationError(
          "pipeline: no strategy produced a solution set within budget");
    }
    return st.last_error;
  }
  report.degraded = report.degraded || !report.warnings.empty();

  {
    MULTICLUST_TRACE_SPAN("pipeline.dedup");
    telemetry::EmitStage("pipeline.dedup", "start");
    MC_ASSIGN_OR_RETURN(
        const size_t dropped,
        report.solutions.Deduplicate(options.min_dissimilarity));
    if (report.solutions.size() < options.num_solutions) {
      report.warnings.push_back(
          "pipeline: returning " + std::to_string(report.solutions.size()) +
          " of " + std::to_string(options.num_solutions) +
          " requested solutions (dedup dropped " + std::to_string(dropped) +
          ")");
      report.degraded = true;
    }
    telemetry::EmitStage("pipeline.dedup", "end");
  }
  MULTICLUST_TRACE_SPAN("pipeline.objective");
  telemetry::EmitStage("pipeline.objective", "start");
  MC_ASSIGN_OR_RETURN(report.objective,
                      EvaluateObjective(data, report.solutions,
                                        SilhouetteQuality(),
                                        NmiDissimilarity(), 1.0));
  telemetry::EmitStage("pipeline.objective", "end");
  report.resource = resource_scope.Snapshot();
  telemetry::EmitStage("pipeline", "end");
  return std::move(report);
}

}  // namespace multiclust
