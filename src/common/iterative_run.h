#ifndef MULTICLUST_COMMON_ITERATIVE_RUN_H_
#define MULTICLUST_COMMON_ITERATIVE_RUN_H_

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/checkpoint.h"
#include "common/rng.h"
#include "common/runguard.h"

namespace multiclust {

/// The restore/snapshot half of IterativeRun (DESIGN.md "Crash
/// recovery"): one checkpoint slot's `State`, restored at entry and
/// persisted at the owner's persistence points. `State` is
/// default-constructible and has one `Visit(ckpt::Archive&)` that
/// serializes it in both directions; the payload adds this class's own
/// persistence-point counter and the diagnostics sink's ConvergenceTrace.
///
/// Disarmed (no Checkpointer), Persist/Flush cost one null-pointer test and
/// allocate nothing. Not thread-safe; one instance per invocation.
template <typename State>
class Snapshots {
 public:
  Snapshots(const char* algorithm, Checkpointer* checkpoint,
            RunDiagnostics* diagnostics)
      : algorithm_(algorithm), ck_(checkpoint), diag_(diagnostics) {}

  /// The checkpointed state; the owner works on it in place.
  State state;

  bool armed() const { return ck_ != nullptr; }
  const char* algorithm() const { return algorithm_; }

  /// Loads the slot's newest valid checkpoint into `state` and its trace
  /// into the diagnostics sink. `fingerprint()` runs only when armed.
  /// `valid(loaded)` is the owner's shape check. A payload that fails to
  /// parse or the shape check is rejected with a warning, `state` stays
  /// untouched and the call returns false: the owner cold-starts.
  template <typename FingerprintFn, typename ValidFn>
  bool Restore(FingerprintFn&& fingerprint, ValidFn&& valid) {
    if (ck_ == nullptr) return false;
    fingerprint_ = fingerprint();
    auto restored = ck_->TryRestore(algorithm_, fingerprint_, diag_);
    if (!restored.has_value()) return false;
    size_t step = 0;
    ConvergenceTrace trace;
    State loaded;
    Payload payload{step, trace, loaded};
    ckpt::Archive ar(restored->payload);
    ar.Value(payload);
    Status parsed = ar.status();
    if (parsed.ok() && !valid(loaded)) {
      parsed = Status::ComputationError("state shape mismatch");
    }
    if (!parsed.ok()) {
      AddWarning(diag_, algorithm_,
                 "checkpoint payload rejected (" + parsed.ToString() +
                     "); cold start");
      return false;
    }
    step_ = step;
    state = std::move(loaded);
    if (diag_ != nullptr) diag_->trace = std::move(trace);
    return true;
  }

  /// Persistence point. `prepare` copies volatile state into `state` and
  /// runs only when the policy actually writes a snapshot. Returns
  /// kAborted under an injected crash; a failed write only warns.
  Status Persist(FunctionRef<void()> prepare = {}) {
    if (ck_ == nullptr) return Status::OK();
    return Write(/*flush=*/false, prepare);
  }

  /// Unconditional best-effort snapshot (the cancellation path).
  void Flush(FunctionRef<void()> prepare = {}) {
    if (ck_ != nullptr) (void)Write(/*flush=*/true, prepare);
  }

 private:
  struct Payload {
    size_t& step;
    ConvergenceTrace& trace;
    State& state;
    void Visit(ckpt::Archive& ar) {
      ar.Field("step", step).Field("trace", trace);
      state.Visit(ar);
    }
  };

  Status Write(bool flush, FunctionRef<void()> prepare) {
    const auto write = [&](json::Writer* w) {
      if (prepare) prepare();
      ConvergenceTrace none;
      Payload payload{step_, diag_ != nullptr ? diag_->trace : none, state};
      ckpt::Archive ar(w);
      ar.Value(payload);
    };
    const Status st =
        flush ? ck_->Flush(algorithm_, fingerprint_, write)
              : ck_->AtPersistencePoint(algorithm_, fingerprint_, step_,
                                        write);
    ++step_;
    return flush ? Status::OK() : st;
  }

  const char* algorithm_;
  Checkpointer* ck_;
  RunDiagnostics* diag_;
  uint64_t fingerprint_ = 0;
  size_t step_ = 0;  ///< monotonic persistence-point counter
};

/// Checkpointed state of a seeded-restart loop (IterativeRun::Restarts):
/// IterativeRun's bookkeeping around the algorithm's cross-restart stream,
/// its mid-restart resume point `Seed` and its per-restart result `Best`.
template <typename Seed, typename Best>
struct RestartState {
  Rng rng;             ///< the algorithm's cross-restart stream
  size_t restart = 0;  ///< restart to run (or resume) next
  Status last_error;   ///< last skipped restart's error
  bool have_best = false;
  Best best;
  bool mid_restart = false;  ///< `seed` resumes restart `restart`
  Seed seed;

  void Visit(ckpt::Archive& ar) {
    ar.Field("rng", rng)
        .Field("restart", restart)
        .Field("last_error", last_error);
    ar.Optional("have_best", have_best, [&] { ar.Field("best", best); });
    ar.Optional("mid_restart", mid_restart, [&] { ar.Field("seed", seed); });
  }
};

/// The iterative-run loop: the restore/snapshot half plus the
/// invocation's BudgetTracker and ConvergenceRecorder, and (for a
/// RestartState) the restart loop with winner selection. The algorithm
/// keeps its iteration step, its Seed, its "better" rule and its own RNG
/// derivation from `state.rng`.
template <typename State>
class IterativeRun : public Snapshots<State> {
 public:
  /// `max_iterations` is the algorithm's own per-restart cap; the budget's
  /// iteration cap tightens it for the progress ETA.
  IterativeRun(const char* algorithm, const RunBudget& budget,
               RunDiagnostics* diagnostics, size_t max_iterations)
      : Snapshots<State>(algorithm, budget.checkpoint, diagnostics),
        guard_(budget, algorithm),
        recorder_(diagnostics, &guard_) {
    recorder_.SetExpectedIterations(
        budget.max_iterations != 0
            ? std::min(max_iterations, budget.max_iterations)
            : max_iterations);
  }
  // The recorder holds the guard's address.
  IterativeRun(const IterativeRun&) = delete;
  IterativeRun& operator=(const IterativeRun&) = delete;

  BudgetTracker& guard() { return guard_; }
  ConvergenceRecorder& recorder() { return recorder_; }

  void Finish(size_t iterations, bool converged) {
    recorder_.Finish(this->algorithm(), iterations, converged);
  }

  /// Mid-restart persistence point of restart `r`: `fill(seed)` records
  /// where the restart resumes and runs only when a snapshot is written.
  template <typename FillFn>
  Status PersistSeed(size_t r, FillFn&& fill) {
    if (!this->armed()) return Status::OK();
    return this->Persist([&] { MarkMidRestart(r, fill); });
  }
  template <typename FillFn>
  void FlushSeed(size_t r, FillFn&& fill) {
    if (this->armed()) this->Flush([&] { MarkMidRestart(r, fill); });
  }

  /// Runs restarts [state.restart, restarts). `launch(r, resume)` runs
  /// restart r — from `resume` when it was interrupted mid-way, else from
  /// scratch — and returns Result<Best>. kCancelled and kAborted end the
  /// whole call; any other error skips the restart. `better(a, b)` says
  /// whether result a beats the incumbent b. Later restarts are skipped
  /// once the deadline expires. Returns the winner — its index is the
  /// trace's winning_restart, restored with the trace — or the last error
  /// when no restart produced a result.
  template <typename LaunchFn, typename BetterFn, typename S = State>
  auto Restarts(size_t restarts, LaunchFn&& launch, BetterFn&& better)
      -> Result<decltype(S::best)> {
    S& s = this->state;
    const size_t first = s.restart;
    const bool resume_mid = s.mid_restart;
    for (size_t r = first; r < restarts; ++r) {
      if (r > 0 && guard_.DeadlineExpired()) break;
      auto run = launch(r, resume_mid && r == first ? &s.seed : nullptr);
      if (!run.ok()) {
        const StatusCode code = run.status().code();
        if (code == StatusCode::kCancelled || code == StatusCode::kAborted) {
          return run.status();
        }
        s.last_error = run.status();
      } else if (!s.have_best || better(*run, s.best)) {
        s.best = std::move(*run);
        s.have_best = true;
        recorder_.SetWinner(r);
      }
      if (this->armed() && r + 1 < restarts) {
        // Restart boundary: the next persistence point starts restart
        // r + 1 fresh (covers the converged / exhausted / skipped exits).
        s.restart = r + 1;
        s.mid_restart = false;
        s.seed = decltype(s.seed)();
        MC_RETURN_IF_ERROR(this->Persist());
      }
    }
    if (!s.have_best) return s.last_error;
    return std::move(s.best);
  }

 private:
  template <typename FillFn>
  void MarkMidRestart(size_t r, FillFn& fill) {
    this->state.restart = r;
    this->state.mid_restart = true;
    fill(this->state.seed);
  }

  BudgetTracker guard_;
  ConvergenceRecorder recorder_;
};

}  // namespace multiclust

#endif  // MULTICLUST_COMMON_ITERATIVE_RUN_H_
