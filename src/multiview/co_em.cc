#include "multiview/co_em.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/fault.h"
#include "common/iterative_run.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "metrics/partition_similarity.h"

namespace multiclust {

Result<double> LabelAgreement(const std::vector<int>& a,
                              const std::vector<int>& b) {
  return BestMatchAccuracy(a, b);
}

namespace {

// E-step only: responsibilities of `model` on `data`.
Matrix ComputeResponsibilities(const GmmModel& model, const Matrix& data) {
  const size_t n = data.rows();
  Matrix resp(n, model.k());
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> r = model.Responsibilities(data.Row(i));
    for (size_t c = 0; c < model.k(); ++c) resp.at(i, c) = r[c];
  }
  return resp;
}

// Co-EM state between rounds. resp1 is NOT checkpointed: at every
// persistence point it equals ComputeResponsibilities(m1, view1), which
// the resume path recomputes bit-identically from the restored model.
struct CoEmState {
  size_t next_iter = 0;
  GmmModel m1;
  GmmModel m2;
  bool has_best = false;  // best_ll starts at -inf, unrepresentable in JSON
  double best_ll = -std::numeric_limits<double>::infinity();
  size_t stale = 0;
  size_t iterations = 0;

  void Visit(ckpt::Archive& ar) {
    ar.Field("next_iter", next_iter)
        .Field("m1", m1)
        .Field("m2", m2)
        .Field("stale", stale)
        .Field("iterations", iterations);
    ar.Optional("has_best", has_best, [&] { ar.Field("best_ll", best_ll); });
  }
};

uint64_t CoEmFingerprint(const Matrix& view1, const Matrix& view2,
                         const CoEmOptions& options) {
  Fingerprint fp;
  fp.Mix("co-em");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.max_iters));
  fp.MixDouble(options.variance_floor);
  fp.Mix(static_cast<uint64_t>(options.patience));
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(view1);
  fp.Mix(view2);
  return fp.value();
}

}  // namespace

Result<CoEmResult> RunCoEm(const Matrix& view1, const Matrix& view2,
                           const CoEmOptions& options) {
  if (view1.rows() != view2.rows()) {
    return Status::InvalidArgument("co-EM: views must have paired rows");
  }
  if (view1.rows() == 0) return Status::InvalidArgument("co-EM: empty data");
  MC_RETURN_IF_ERROR(ValidateMatrix("co-EM view 1", view1));
  MC_RETURN_IF_ERROR(ValidateMatrix("co-EM view 2", view2));
  MULTICLUST_TRACE_SPAN("multiview.co_em.run");
  IterativeRun<CoEmState> run("co-em", options.budget, options.diagnostics,
                              options.max_iters);
  const size_t n = view1.rows();
  CoEmState& st = run.state;
  const bool resumed = run.Restore(
      [&] { return CoEmFingerprint(view1, view2, options); },
      [&](const CoEmState& s) {
        return s.m1.k() == options.k && s.m2.k() == options.k;
      });
  if (!resumed) {
    MC_ASSIGN_OR_RETURN(
        st.m1,
        InitGmm(view1, options.k, CovarianceType::kDiagonal, options.seed));
    MC_ASSIGN_OR_RETURN(
        st.m2, InitGmm(view2, options.k, CovarianceType::kDiagonal,
                       options.seed ^ 0x9E3779B9ULL));
  }
  GmmModel& m1 = st.m1;
  GmmModel& m2 = st.m2;
  CoEmResult result;

  // Termination: co-EM need not converge (slide 104), so run a minimum
  // number of rounds and then stop once the joint log-likelihood has been
  // flat for `patience` rounds.
  const size_t kMinIters = 10;

  // Prime: one E-step in view 1 to produce the first responsibilities.
  // On resume this replays the E-step the interrupted run took at the end
  // of its last completed round — bit-identical, since it is a pure
  // function of the restored view-1 model.
  Matrix resp1 = ComputeResponsibilities(m1, view1);

  for (size_t iter = st.next_iter; iter < options.max_iters; ++iter) {
    st.next_iter = iter;
    if (run.guard().Cancelled()) {
      run.Flush();
      return run.guard().CancelledStatus();
    }
    if (run.guard().ShouldStop(iter)) break;
    MC_METRIC_COUNT("multiview.co_em.iterations", 1);
    MULTICLUST_TRACE_SPAN("multiview.co_em.round");
    // View 2: M-step from view-1 responsibilities, then E-step.
    MC_RETURN_IF_ERROR(MStepFromResponsibilities(view2, resp1,
                                                 options.variance_floor, &m2));
    Matrix resp2 = ComputeResponsibilities(m2, view2);
    // View 1: M-step from view-2 responsibilities, then E-step.
    MC_RETURN_IF_ERROR(MStepFromResponsibilities(view1, resp2,
                                                 options.variance_floor, &m1));
    resp1 = ComputeResponsibilities(m1, view1);
    st.iterations = iter + 1;

    double ll =
        m1.TotalLogLikelihood(view1) + m2.TotalLogLikelihood(view2);
    if (MC_FAULT_FIRES("co-em", FaultKind::kInjectNaN, iter)) {
      ll = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("co-em", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "co-EM: injected allocation failure growing the responsibility "
          "matrices at iteration " + std::to_string(iter));
    }
    // -inf can legitimately appear on the first rounds (underflow of a far
    // component); only NaN marks a genuinely poisoned state.
    if (std::isnan(ll)) {
      return Status::ComputationError(
          "co-EM: non-finite joint log-likelihood at iteration " +
          std::to_string(iter));
    }
    if (run.recorder().enabled()) {
      const double delta =
          st.has_best && std::isfinite(ll) ? ll - st.best_ll : 0.0;
      run.recorder().Record(0, iter, ll, delta, 0);
    }
    if (ll > st.best_ll + 1e-6 * (std::fabs(st.best_ll) + 1.0)) {
      st.has_best = true;
      st.best_ll = ll;
      st.stale = 0;
    } else {
      ++st.stale;
      if (iter + 1 >= kMinIters && st.stale >= options.patience &&
          !MC_FAULT_FIRES("co-em", FaultKind::kForceNonConvergence, iter)) {
        result.converged = true;
        break;
      }
    }
    // Persistence point: round complete, models and staleness counters
    // consistent. Skipped on the convergence break above — there is
    // nothing left to resume into.
    st.next_iter = iter + 1;
    MC_RETURN_IF_ERROR(run.Persist());
  }

  result.iterations = st.iterations;
  run.Finish(result.iterations, result.converged);
  result.model_view1 = m1;
  result.model_view2 = m2;
  result.labels_view1 = m1.HardAssign(view1);
  result.labels_view2 = m2.HardAssign(view2);
  result.log_likelihood_view1 = m1.TotalLogLikelihood(view1);
  result.log_likelihood_view2 = m2.TotalLogLikelihood(view2);
  MC_ASSIGN_OR_RETURN(result.agreement,
                      LabelAgreement(result.labels_view1,
                                     result.labels_view2));

  // Consensus: average the per-view responsibilities.
  const Matrix resp2 = ComputeResponsibilities(m2, view2);
  Clustering consensus;
  consensus.labels.assign(n, -1);
  consensus.algorithm = "co-em";
  for (size_t i = 0; i < n; ++i) {
    double best = -1.0;
    for (size_t c = 0; c < options.k; ++c) {
      const double p = 0.5 * (resp1.at(i, c) + resp2.at(i, c));
      if (p > best) {
        best = p;
        consensus.labels[i] = static_cast<int>(c);
      }
    }
  }
  consensus.quality =
      result.log_likelihood_view1 + result.log_likelihood_view2;
  result.consensus = std::move(consensus);
  return result;
}

}  // namespace multiclust
