#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "altspace/dec_kmeans.h"
#include "altspace/meta_clustering.h"
#include "cluster/kmeans.h"
#include "common/checkpoint.h"
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

// ---- pipeline checkpoint payload -----------------------------------------

// Reads a number that may have been serialized as null (NaN round-trip).
Result<double> MaybeNanField(const json::Value& v, const char* key) {
  MC_ASSIGN_OR_RETURN(const json::Value* f, ckpt::Field(v, key));
  if (f->is_null()) return std::numeric_limits<double>::quiet_NaN();
  if (!f->is_number()) {
    return Status::ComputationError(std::string("checkpoint: field '") + key +
                                    "' is not a number");
  }
  return f->number_value();
}

void WriteDiagCkpt(json::Writer* w, const RunDiagnostics& d) {
  w->BeginObject();
  w->Key("algorithm");
  w->String(d.algorithm);
  w->Key("iterations");
  w->Uint(d.iterations);
  w->Key("converged");
  w->Bool(d.converged);
  w->Key("stop_reason");
  w->Int(static_cast<int>(d.stop_reason));
  w->Key("retries");
  w->Uint(d.retries);
  w->Key("elapsed_ms");
  w->Double(d.elapsed_ms);
  w->Key("note");
  w->String(d.note);
  w->Key("warnings");
  w->BeginArray();
  for (const std::string& warning : d.warnings) w->String(warning);
  w->EndArray();
  w->Key("trace");
  ckpt::WriteTrace(w, d.trace);
  w->EndObject();
}

Result<RunDiagnostics> ReadDiagCkpt(const json::Value& v) {
  RunDiagnostics d;
  MC_ASSIGN_OR_RETURN(const json::Value* alg, ckpt::Field(v, "algorithm"));
  d.algorithm = alg->string_value();
  MC_ASSIGN_OR_RETURN(d.iterations, ckpt::SizeField(v, "iterations"));
  MC_ASSIGN_OR_RETURN(d.converged, ckpt::BoolField(v, "converged"));
  MC_ASSIGN_OR_RETURN(const double reason,
                      ckpt::NumberField(v, "stop_reason"));
  d.stop_reason = static_cast<StopReason>(static_cast<int>(reason));
  MC_ASSIGN_OR_RETURN(d.retries, ckpt::SizeField(v, "retries"));
  MC_ASSIGN_OR_RETURN(d.elapsed_ms, ckpt::NumberField(v, "elapsed_ms"));
  MC_ASSIGN_OR_RETURN(const json::Value* note, ckpt::Field(v, "note"));
  d.note = note->string_value();
  MC_ASSIGN_OR_RETURN(const json::Value* warn, ckpt::Field(v, "warnings"));
  if (!warn->is_array()) {
    return Status::ComputationError("checkpoint: diag warnings malformed");
  }
  for (const json::Value& wv : warn->array_items()) {
    d.warnings.push_back(wv.string_value());
  }
  MC_ASSIGN_OR_RETURN(const json::Value* tr, ckpt::Field(v, "trace"));
  MC_ASSIGN_OR_RETURN(d.trace, ckpt::ReadTrace(*tr));
  return d;
}

void WriteClusteringCkpt(json::Writer* w, const Clustering& c) {
  w->BeginObject();
  w->Key("labels");
  ckpt::WriteIntVector(w, c.labels);
  w->Key("centroids");
  ckpt::WriteMatrix(w, c.centroids);
  w->Key("quality");
  w->Double(c.quality);  // NaN (unset) serializes as null
  w->Key("algorithm");
  w->String(c.algorithm);
  w->Key("iterations");
  w->Uint(c.iterations);
  w->Key("converged");
  w->Bool(c.converged);
  w->EndObject();
}

Result<Clustering> ReadClusteringCkpt(const json::Value& v) {
  Clustering c;
  MC_ASSIGN_OR_RETURN(const json::Value* l, ckpt::Field(v, "labels"));
  MC_ASSIGN_OR_RETURN(c.labels, ckpt::ReadIntVector(*l));
  MC_ASSIGN_OR_RETURN(const json::Value* ctr, ckpt::Field(v, "centroids"));
  MC_ASSIGN_OR_RETURN(c.centroids, ckpt::ReadMatrix(*ctr));
  MC_ASSIGN_OR_RETURN(c.quality, MaybeNanField(v, "quality"));
  MC_ASSIGN_OR_RETURN(const json::Value* alg, ckpt::Field(v, "algorithm"));
  c.algorithm = alg->string_value();
  MC_ASSIGN_OR_RETURN(c.iterations, ckpt::SizeField(v, "iterations"));
  MC_ASSIGN_OR_RETURN(c.converged, ckpt::BoolField(v, "converged"));
  return c;
}

// Stage-granularity state of one DiscoverMultipleClusterings invocation:
// the chosen k (stage 1) and the attempt ledger including the solved
// solution set (stage 2). Dedup + objective scoring are deterministic
// recomputation and never checkpointed.
struct PipelineCkptState {
  size_t step = 0;
  size_t chosen_k = 0;
  size_t next_attempt = 0;
  std::vector<RunDiagnostics> attempts;
  std::vector<std::string> warnings;
  Status last_error = Status::OK();
  bool solved = false;
  std::string strategy_name;
  SolutionSet solutions;
  bool degraded = false;
};

void WritePipelinePayload(json::Writer* w, const PipelineCkptState& s) {
  w->BeginObject();
  w->Key("step");
  w->Uint(s.step);
  w->Key("chosen_k");
  w->Uint(s.chosen_k);
  w->Key("next_attempt");
  w->Uint(s.next_attempt);
  w->Key("attempts");
  w->BeginArray();
  for (const RunDiagnostics& d : s.attempts) WriteDiagCkpt(w, d);
  w->EndArray();
  w->Key("warnings");
  w->BeginArray();
  for (const std::string& warning : s.warnings) w->String(warning);
  w->EndArray();
  w->Key("last_error");
  ckpt::WriteStatus(w, s.last_error);
  w->Key("solved");
  w->Bool(s.solved);
  if (s.solved) {
    w->Key("strategy_name");
    w->String(s.strategy_name);
    w->Key("solutions");
    w->BeginArray();
    for (size_t i = 0; i < s.solutions.size(); ++i) {
      WriteClusteringCkpt(w, s.solutions.at(i));
    }
    w->EndArray();
    w->Key("degraded");
    w->Bool(s.degraded);
  }
  w->EndObject();
}

Status ReadPipelinePayload(const json::Value& v, PipelineCkptState* s) {
  MC_ASSIGN_OR_RETURN(s->step, ckpt::SizeField(v, "step"));
  MC_ASSIGN_OR_RETURN(s->chosen_k, ckpt::SizeField(v, "chosen_k"));
  MC_ASSIGN_OR_RETURN(s->next_attempt, ckpt::SizeField(v, "next_attempt"));
  MC_ASSIGN_OR_RETURN(const json::Value* att, ckpt::Field(v, "attempts"));
  if (!att->is_array()) {
    return Status::ComputationError("checkpoint: pipeline attempts malformed");
  }
  for (const json::Value& a : att->array_items()) {
    MC_ASSIGN_OR_RETURN(RunDiagnostics d, ReadDiagCkpt(a));
    s->attempts.push_back(std::move(d));
  }
  MC_ASSIGN_OR_RETURN(const json::Value* warn, ckpt::Field(v, "warnings"));
  if (!warn->is_array()) {
    return Status::ComputationError("checkpoint: pipeline warnings malformed");
  }
  for (const json::Value& wv : warn->array_items()) {
    s->warnings.push_back(wv.string_value());
  }
  MC_ASSIGN_OR_RETURN(const json::Value* err, ckpt::Field(v, "last_error"));
  MC_RETURN_IF_ERROR(ckpt::ReadStatus(*err, &s->last_error));
  MC_ASSIGN_OR_RETURN(s->solved, ckpt::BoolField(v, "solved"));
  if (s->solved) {
    MC_ASSIGN_OR_RETURN(const json::Value* sn,
                        ckpt::Field(v, "strategy_name"));
    s->strategy_name = sn->string_value();
    MC_ASSIGN_OR_RETURN(const json::Value* sols, ckpt::Field(v, "solutions"));
    if (!sols->is_array()) {
      return Status::ComputationError(
          "checkpoint: pipeline solutions malformed");
    }
    for (const json::Value& sv : sols->array_items()) {
      MC_ASSIGN_OR_RETURN(Clustering c, ReadClusteringCkpt(sv));
      MC_RETURN_IF_ERROR(s->solutions.Add(std::move(c)));
    }
    MC_ASSIGN_OR_RETURN(s->degraded, ckpt::BoolField(v, "degraded"));
  }
  return Status::OK();
}

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
  Checkpointer* ck = options.budget.checkpoint;
  const uint64_t fp = ck != nullptr ? PipelineFingerprint(data, options) : 0;

  DiscoveryReport report;
  PipelineCkptState state;
  bool resumed = false;
  if (ck != nullptr) {
    // Pipeline-stage warnings (corrupt checkpoint, restore notes) land in
    // the report's warning list, not a per-algorithm RunDiagnostics.
    RunDiagnostics restore_diag;
    if (auto restored = ck->TryRestore("pipeline", fp, &restore_diag)) {
      PipelineCkptState loaded;
      Status parsed = ReadPipelinePayload(restored->payload, &loaded);
      if (parsed.ok() && loaded.solved) {
        for (size_t i = 0; i < loaded.solutions.size(); ++i) {
          if (loaded.solutions.at(i).labels.size() != data.rows()) {
            parsed = Status::ComputationError(
                "checkpoint: solution size mismatch");
            break;
          }
        }
      }
      if (parsed.ok() && loaded.chosen_k == 0) {
        parsed = Status::ComputationError("checkpoint: chosen_k is zero");
      }
      if (parsed.ok()) {
        state = std::move(loaded);
        resumed = true;
      } else {
        AddWarning(&restore_diag, "pipeline",
                   "checkpoint payload rejected (" + parsed.ToString() +
                       "); cold start");
      }
    }
    for (std::string& w : restore_diag.warnings) {
      report.warnings.push_back(std::move(w));
    }
  }

  // Re-reads the shared stage ledger at call time; `flush` swallows write
  // errors (best-effort final snapshot on the way out of a cancellation).
  const auto snapshot = [&](bool flush) -> Status {
    if (ck == nullptr) return Status::OK();
    const auto payload = [&](json::Writer* w) {
      WritePipelinePayload(w, state);
    };
    const Status st = flush ? ck->Flush("pipeline", fp, payload)
                            : ck->AtPersistencePoint("pipeline", fp,
                                                     state.step, payload);
    ++state.step;
    return flush ? Status::OK() : st;
  };

  size_t k = options.k;
  if (resumed) {
    k = state.chosen_k;
  } else {
    if (k == 0) {
      telemetry::EmitStage("pipeline.select_k", "start");
      MC_ASSIGN_OR_RETURN(k,
                          SelectKBySilhouette(data, options.max_k,
                                              options.seed));
      telemetry::EmitStage("pipeline.select_k", "end");
    }
    // Stage boundary: model selection done, no attempts yet.
    state.chosen_k = k;
    MC_RETURN_IF_ERROR(snapshot(/*flush=*/false));
  }
  report.chosen_k = k;

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

  Status last_error = Status::OK();
  bool solved = false;
  if (resumed) {
    // Replay the attempt ledger: completed attempts (and, when the run had
    // already solved, the winning solution set) come straight from the
    // checkpoint; only the in-flight attempt re-runs.
    report.attempts = state.attempts;
    for (const std::string& w : state.warnings) report.warnings.push_back(w);
    last_error = state.last_error;
    if (state.solved) {
      report.strategy_name = state.strategy_name;
      report.solutions = std::move(state.solutions);
      report.degraded = state.degraded;
      solved = true;
    }
  }
  const size_t start_attempt = resumed ? state.next_attempt : 0;
  for (size_t attempt = start_attempt; attempt < chain.size() && !solved;
       ++attempt) {
    const DiscoveryStrategy strategy = chain[attempt];
    if (guard.Cancelled()) {
      if (ck != nullptr) (void)snapshot(/*flush=*/true);
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
    Result<StrategyOutcome> run = RunWithRetry(
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
    if (run.ok()) {
      diag.iterations = run->iterations;
      diag.converged = run->converged;
      diag.stop_reason =
          run->converged ? StopReason::kConverged : StopReason::kDeadline;
      report.attempts.push_back(diag);
      report.strategy_name = StrategyName(strategy);
      report.solutions = std::move(run->solutions);
      for (std::string& w : run->warnings) {
        report.warnings.push_back(std::move(w));
      }
      if (diag.retries > 0) {
        report.warnings.push_back(std::string("pipeline: ") +
                                  StrategyName(strategy) + " needed " +
                                  std::to_string(diag.retries) +
                                  " deterministic retr" +
                                  (diag.retries == 1 ? "y" : "ies"));
      }
      report.degraded = attempt > 0 || diag.retries > 0 || !run->converged;
      solved = true;
      // Stage boundary: strategy solved. A resume from here skips the
      // attempt loop entirely and recomputes only the deterministic
      // dedup + objective stages.
      if (ck != nullptr) {
        state.next_attempt = attempt + 1;
        state.attempts = report.attempts;
        state.warnings = report.warnings;
        state.last_error = last_error;
        state.solved = true;
        state.strategy_name = report.strategy_name;
        state.solutions = report.solutions;
        state.degraded = report.degraded;
        MC_RETURN_IF_ERROR(snapshot(/*flush=*/false));
      }
      break;
    }
    // A failed attempt: cancellation, a simulated crash, and configuration
    // errors are final; recoverable computation errors move on to the next
    // strategy.
    if (run.status().code() == StatusCode::kCancelled ||
        run.status().code() == StatusCode::kAborted ||
        run.status().code() == StatusCode::kInvalidArgument) {
      return run.status();
    }
    diag.converged = false;
    report.attempts.push_back(diag);
    last_error = run.status();
    report.warnings.push_back(std::string("pipeline: ") +
                              StrategyName(strategy) +
                              " failed: " + last_error.ToString());
    if (!options.allow_fallback) break;
    // Stage boundary: attempt `attempt` failed recoverably; resume moves
    // straight to the next strategy in the fallback chain.
    if (ck != nullptr) {
      state.next_attempt = attempt + 1;
      state.attempts = report.attempts;
      state.warnings = report.warnings;
      state.last_error = last_error;
      MC_RETURN_IF_ERROR(snapshot(/*flush=*/false));
    }
  }
  if (!solved) {
    if (last_error.ok()) {
      last_error = Status::ComputationError(
          "pipeline: no strategy produced a solution set within budget");
    }
    return last_error;
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
  return report;
}

}  // namespace multiclust
