#include "altspace/coala.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "cluster/hierarchical.h"
#include "common/fault.h"
#include "common/iterative_run.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace multiclust {

namespace {

// Full merge-loop state of one COALA run. The dist/violations matrices are
// Lance-Williams-mutated in place, so resuming means restoring them
// verbatim — everything else (active set, group sizes, memberships, merge
// stats) rides along.
struct CoalaState {
  size_t iter = 0;
  size_t remaining = 0;  ///< active groups
  // Average-link distances between current groups, maintained with the
  // Lance-Williams update. violations(i, j) counts cannot-link pairs
  // between groups i and j; a "dissimilarity merge" requires
  // violations == 0.
  Matrix dist;
  Matrix violations;
  std::vector<char> active;
  std::vector<size_t> sizes;
  std::vector<std::vector<int>> members;
  CoalaStats stats;

  void Visit(ckpt::Archive& ar) {
    ar.Field("iter", iter)
        .Field("remaining", remaining)
        .Field("dist", dist)
        .Field("violations", violations)
        .Field("active", active)
        .Field("sizes", sizes)
        .Field("members", members)
        .Field("quality_merges", stats.quality_merges)
        .Field("dissimilarity_merges", stats.dissimilarity_merges);
  }
};

uint64_t CoalaFingerprint(const Matrix& data, const std::vector<int>& given,
                          const CoalaOptions& options) {
  Fingerprint fp;
  fp.Mix("coala");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.MixDouble(options.w);
  for (int g : given) fp.Mix(static_cast<uint64_t>(static_cast<int64_t>(g)));
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<Clustering> RunCoala(const Matrix& data, const std::vector<int>& given,
                            const CoalaOptions& options, CoalaStats* stats) {
  const size_t n = data.rows();
  if (n == 0) return Status::InvalidArgument("COALA: empty data");
  if (given.size() != n) {
    return Status::InvalidArgument("COALA: given clustering size mismatch");
  }
  if (options.k == 0 || options.k > n) {
    return Status::InvalidArgument("COALA: invalid k");
  }
  if (options.w <= 0) {
    return Status::InvalidArgument("COALA: w must be positive");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("COALA", data));
  MULTICLUST_TRACE_SPAN("altspace.coala.run");
  // Agglomerative: one merge per outer iteration, from n singleton groups
  // down to k.
  IterativeRun<CoalaState> run("coala", options.budget, options.diagnostics,
                               n > options.k ? n - options.k : 0);
  CoalaState& st = run.state;
  const bool resumed = run.Restore(
      [&] { return CoalaFingerprint(data, given, options); },
      [n](const CoalaState& s) {
        return s.dist.rows() == n && s.dist.cols() == n &&
               s.violations.rows() == n && s.violations.cols() == n &&
               s.active.size() == n && s.sizes.size() == n &&
               s.members.size() == n;
      });
  if (!resumed) {
    st.dist = PairwiseDistances(data);
    st.violations = Matrix(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (given[i] >= 0 && given[i] == given[j]) {
          st.violations.at(i, j) = 1.0;
          st.violations.at(j, i) = 1.0;
        }
      }
    }
    st.active.assign(n, 1);
    st.sizes.assign(n, 1);
    st.members.resize(n);
    for (size_t i = 0; i < n; ++i) st.members[i] = {static_cast<int>(i)};
    st.remaining = n;
  }
  Matrix& dist = st.dist;
  Matrix& violations = st.violations;
  std::vector<char>& active = st.active;
  std::vector<size_t>& sizes = st.sizes;
  std::vector<std::vector<int>>& members = st.members;
  size_t& iter = st.iter;
  bool stopped_early = false;

  while (st.remaining > options.k) {
    if (run.guard().Cancelled()) {
      run.Flush();
      return run.guard().CancelledStatus();
    }
    if (run.guard().ShouldStop(iter)) {
      stopped_early = true;
      break;
    }
    const double inf = std::numeric_limits<double>::infinity();
    double d_qual = inf, d_diss = inf;
    size_t qi = 0, qj = 0, di = 0, dj = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        const double d = dist.at(i, j);
        if (d < d_qual) {
          d_qual = d;
          qi = i;
          qj = j;
        }
        if (violations.at(i, j) == 0.0 && d < d_diss) {
          d_diss = d;
          di = i;
          dj = j;
        }
      }
    }

    if (MC_FAULT_FIRES("coala", FaultKind::kInjectNaN, iter)) {
      d_qual = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("coala", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "COALA: injected allocation failure growing the merge distance "
          "matrix at merge " + std::to_string(iter));
    }
    // The Lance-Williams recurrence cannot produce NaN from finite
    // distances, so a NaN here means an injected fault or corrupted state.
    if (std::isnan(d_qual) || std::isnan(d_diss)) {
      return Status::ComputationError(
          "COALA: non-finite merge distance at merge " + std::to_string(iter));
    }

    size_t mi, mj;
    // Quality merge when it is much better than the best constraint-
    // respecting merge (d_qual < w * d_diss), or when no dissimilarity
    // merge exists at all.
    double merged_dist;
    if (d_diss == inf || d_qual < options.w * d_diss) {
      mi = qi;
      mj = qj;
      merged_dist = d_qual;
      ++st.stats.quality_merges;
      MC_METRIC_COUNT("altspace.coala.quality_merges", 1);
    } else {
      mi = di;
      mj = dj;
      merged_dist = d_diss;
      ++st.stats.dissimilarity_merges;
      MC_METRIC_COUNT("altspace.coala.dissimilarity_merges", 1);
    }
    if (run.recorder().enabled()) {
      // The "objective" of a merge step is the chosen linkage distance;
      // delta is the gap between the two candidate merges (0 when only
      // one candidate exists).
      const double gap = d_diss == inf ? 0.0 : std::fabs(d_diss - d_qual);
      run.recorder().Record(0, iter, merged_dist, gap, 0);
    }

    // Merge mj into mi.
    const double ni = static_cast<double>(sizes[mi]);
    const double nj = static_cast<double>(sizes[mj]);
    for (size_t h = 0; h < n; ++h) {
      if (!active[h] || h == mi || h == mj) continue;
      const double v =
          (ni * dist.at(mi, h) + nj * dist.at(mj, h)) / (ni + nj);
      dist.at(mi, h) = v;
      dist.at(h, mi) = v;
      const double viol = violations.at(mi, h) + violations.at(mj, h);
      violations.at(mi, h) = viol;
      violations.at(h, mi) = viol;
    }
    sizes[mi] += sizes[mj];
    active[mj] = 0;
    members[mi].insert(members[mi].end(), members[mj].begin(),
                       members[mj].end());
    members[mj].clear();
    --st.remaining;
    ++iter;
    // Persistence point: the merge is complete and all state is
    // self-consistent. Covers the final merge too — a resume then simply
    // falls through the loop condition.
    MC_RETURN_IF_ERROR(run.Persist());
  }

  // A budget-stopped run returns the partial dendrogram cut: more than
  // `k` clusters, flagged via `converged == false`.
  run.Finish(iter, !stopped_early);
  Clustering out;
  out.labels.assign(n, -1);
  out.algorithm = "coala";
  out.iterations = iter;
  out.converged = !stopped_early;
  int label = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    for (int obj : members[i]) out.labels[obj] = label;
    ++label;
  }
  if (stats != nullptr) *stats = st.stats;
  return out;
}

}  // namespace multiclust
