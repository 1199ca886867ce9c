// The in-process workloads and the metric assembly shared by all of them.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "common/parallel.h"
#include "workloads.h"

namespace jobbench {

using multiclust::DiscoveryReport;
using multiclust::DiscoveryStrategy;

namespace {

struct InProcessShape {
  size_t n = 0;
  size_t k = 0;  ///< 0 = the pipeline selects k
  std::vector<DiscoveryStrategy> strategies;  ///< cycled per job
};

InProcessShape ShapeOf(const std::string& workload) {
  if (workload == "default_path") {
    return {2000, 0, {DiscoveryStrategy::kDecorrelatedKMeans}};
  }
  if (workload == "fixed_k_mix") {
    return {2000,
            3,
            {DiscoveryStrategy::kDecorrelatedKMeans,
             DiscoveryStrategy::kOrthogonalProjections,
             DiscoveryStrategy::kMetaClustering}};
  }
  return {200, 3, {DiscoveryStrategy::kSpectralViews}};
}

// Datasets generated in setup; jobs cycle through them with their own
// pipeline seeds, so no generation happens inside the timed window.
constexpr size_t kDatasetPool = 64;

uint64_t Derive(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL +
                   stream * 0xD1B54A32D192ED03ULL + index;
  return SplitMix64(&state);
}

Job MakeJob(const InProcessShape& shape,
            const std::vector<std::shared_ptr<const multiclust::Dataset>>& pool,
            uint64_t seed, size_t index) {
  Job job;
  job.dataset = pool[index % pool.size()];
  job.options.strategy = shape.strategies[index % shape.strategies.size()];
  job.options.k = shape.k;
  job.options.num_solutions = 2;
  job.options.seed = 1 + Derive(seed, 2, index) % 1000000007ULL;
  return job;
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

void AddEndToEndMetrics(const EndToEnd& e, RunResult* out) {
  const JobTally& t = *e.tally;
  const double done = static_cast<double>(t.done());
  const auto add = [&](const char* name, double value, const char* unit) {
    out->metrics.push_back({name, value, unit});
  };
  add("jobs_per_s", e.window_ms > 0.0 ? done / (e.window_ms / 1000.0) : 0.0,
      "1/s");
  add("job_ms_p50", Percentile(t.latencies_ms(), 50.0), "ms");
  add("job_ms_p90", Percentile(t.latencies_ms(), 90.0), "ms");
  add("cpu_ms_per_job", done > 0.0 ? e.cpu_ms / done : 0.0, "ms");
  add("peak_rss_mb", e.peak_rss_mb, "MB");
  add("setup_s", Median(e.setup_ms) / 1000.0, "s");
  const double q = static_cast<double>(std::max<size_t>(e.quality_jobs, 1));
  add("view_recovery", e.recovery_sum / q, "share");
  add("solution_fill", e.fill_sum / q, "share");
  add("done_share", t.DoneShare(), "share");
  add("slo_share", t.SloShare(), "share");

  const size_t n = t.latencies_ms().size();
  char note[200];
  std::snprintf(note, sizeof note,
                "latency samples %zu; %zu beyond p90; highest percentile with "
                ">= %zu beyond: p%g",
                n, SamplesBeyond(n, 90.0), kTailSamples,
                HighestReportablePercentile(n));
  out->notes.push_back(note);
}

void AddLayerMetrics(const LayerTotals& totals, double generate_ms,
                     const std::vector<Metric>& serve, RunResult* out) {
  const SpanLog& log = totals.spans;
  const auto add = [&](const std::string& name, double value,
                       const char* unit) {
    out->metrics.push_back({name, value, unit});
  };
  // Mean self time per call of the spans named `span`; 0 when the layer
  // is not on this workload's path.
  const auto per_call = [&](const char* span) {
    const size_t calls = log.Count(span);
    return calls == 0 ? 0.0 : log.SelfTotalMs(span) / calls;
  };
  const double job_ms = log.TotalMs("core.job");
  const auto share = [&](const char* span) {
    return job_ms > 0.0 ? log.TotalMs(span) / job_ms : 0.0;
  };
  const double jobs = static_cast<double>(std::max<size_t>(totals.jobs, 1));

  add("data.generate_ms", generate_ms, "ms");
  add("core.select_k_ms", per_call("core.select_k"), "ms");
  add("core.select_k_share", share("core.select_k"), "share");
  add("core.objective_ms", per_call("core.objective"), "ms");
  add("core.objective_share", share("core.objective"), "share");
  add("core.dedup_ms", per_call("core.dedup"), "ms");
  add("core.dedup_dropped", totals.dedup_dropped / jobs, "count");
  add("metrics.silhouette_ms", per_call("metrics.silhouette"), "ms");
  add("altspace.dec_kmeans_ms", per_call("altspace.dec_kmeans"), "ms");
  add("altspace.dec_kmeans_iterations",
      totals.deckm_runs == 0 ? 0.0
                             : totals.deckm_iterations / totals.deckm_runs,
      "count");
  add("altspace.meta_clustering_ms", per_call("altspace.meta_clustering"),
      "ms");
  add("orthogonal.ortho_projection_ms",
      per_call("orthogonal.ortho_projection"), "ms");
  add("cluster.kmeans_ms", per_call("cluster.kmeans"), "ms");
  add("cluster.kmeans_iterations",
      totals.kmeans_runs == 0 ? 0.0
                              : totals.kmeans_iterations / totals.kmeans_runs,
      "count");
  add("subspace.msc_ms", per_call("subspace.msc"), "ms");
  add("cluster.spectral_ms", per_call("cluster.spectral"), "ms");
  add("stats.hsic_ms", per_call("stats.hsic"), "ms");
  add("linalg.eigen_symmetric_ms", per_call("linalg.eigen_symmetric"), "ms");
  add("linalg.sqdist_gflops",
      totals.sqdist_ms > 0.0 ? totals.sqdist_flops / totals.sqdist_ms / 1e6
                             : 0.0,
      "GFLOP/s");
  add("linalg.gemm_gflops",
      totals.gemm_ms > 0.0 ? totals.gemm_flops / totals.gemm_ms / 1e6 : 0.0,
      "GFLOP/s");
  add("common.flops_per_job", totals.flops / jobs, "count");
  add("common.allocs_per_job", totals.allocs / jobs, "count");
  add("common.cpu_per_wall",
      totals.wall_thread_ms > 0.0 ? totals.cpu_ms / totals.wall_thread_ms : 0.0,
      "share");
  const char* serve_names[][2] = {
      {"serve.submit_ack_ms_p50", "ms"}, {"serve.submit_ack_ms_p90", "ms"},
      {"serve.queue_wait_ms_p50", "ms"}, {"serve.queue_wait_ms_p90", "ms"},
      {"serve.run_ms_p50", "ms"},        {"serve.run_ms_p90", "ms"},
      {"serve.cache_hit_share", "share"}, {"serve.max_queued", "count"},
      {"serve.rejected", "count"},       {"serve.report_flops_ratio", "ratio"},
      {"serve.gen_late_ms_p90", "ms"}};
  for (const auto& [name, unit] : serve_names) {
    double value = 0.0;
    for (const Metric& m : serve) {
      if (m.name == name) value = m.value;
    }
    add(name, value, unit);
  }
  add("trace.replay_match_share",
      static_cast<double>(totals.replay_matched) / jobs, "share");
  add("trace.overhead_share",
      totals.pipeline_ms > 0.0 ? totals.replay_ms / totals.pipeline_ms - 1.0
                               : 0.0,
      "share");
  if (totals.replay_matched != totals.jobs) {
    out->notes.push_back(
        "REPLAY DIVERGES: " +
        std::to_string(totals.jobs - totals.replay_matched) + " of " +
        std::to_string(totals.jobs) +
        " replayed jobs differ from the pipeline; the per-layer rows "
        "describe the replay, not the program");
  }
}

RunResult RunInProcess(const RunConfig& config) {
  RunResult out;
  const InProcessShape shape = ShapeOf(config.workload);
  multiclust::SetThreadCount(config.threads);

  // Set-up, repeated: dataset pool, then one untimed warm-up job.
  std::vector<std::shared_ptr<const multiclust::Dataset>> pool;
  EndToEnd e;
  double generate_ms = 0.0;
  size_t generated = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = NowMs();
    pool.clear();
    for (size_t p = 0; p < kDatasetPool; ++p) {
      double ms = 0.0;
      pool.push_back(GenerateCustomer(shape.n, Derive(config.seed, 1, p), &ms));
      if (pool.back() == nullptr) {
        out.problems.push_back("dataset generation failed");
        return out;
      }
      generate_ms += ms;
      ++generated;
    }
    Job warm = MakeJob(shape, pool, config.seed ^ 0xABCDu, rep);
    (void)multiclust::DiscoverMultipleClusterings(warm.dataset->data(),
                                                  warm.options);
    e.setup_ms.push_back(NowMs() - t0);
  }

  JobTally tally(config.slo_ms);
  LayerTotals totals;
  DiscoveryReport first;
  const double cpu0 = CpuMs();
  const double start = NowMs();
  for (size_t i = 0; NowMs() - start < config.seconds * 1000.0; ++i) {
    const Job job = MakeJob(shape, pool, config.seed, i);
    std::string error;
    DiscoveryReport report;
    double ms = 0.0;
    if (config.trace) {
      const double t0 = NowMs();
      report = TraceJob(job, static_cast<int64_t>(i), config.threads, &totals,
                        &error);
      ms = NowMs() - t0;
    } else {
      const double t0 = NowMs();
      auto run = multiclust::DiscoverMultipleClusterings(job.dataset->data(),
                                                         job.options);
      ms = NowMs() - t0;
      if (run.ok()) {
        report = std::move(run).value();
      } else {
        error = run.status().ToString();
      }
    }
    if (error.empty()) error = CheckReport(report, job.dataset->num_objects());
    if (!error.empty()) {
      tally.Failed();
      out.problems.push_back("job " + std::to_string(i) + ": " + error);
      continue;
    }
    tally.Done(ms);
    e.recovery_sum += ViewRecovery(*job.dataset, report.solutions.Labels());
    e.fill_sum += static_cast<double>(report.solutions.size()) /
                  static_cast<double>(job.options.num_solutions);
    ++e.quality_jobs;
    if (i == 0) first = std::move(report);
  }
  e.window_ms = NowMs() - start;
  e.cpu_ms = CpuMs() - cpu0;
  e.tally = &tally;

  // Thread-count identity: the first job again at one thread.
  if (!first.solutions.empty()) {
    const Job job = MakeJob(shape, pool, config.seed, 0);
    multiclust::SetThreadCount(1);
    auto serial = multiclust::DiscoverMultipleClusterings(
        job.dataset->data(), job.options);
    multiclust::SetThreadCount(config.threads);
    if (!serial.ok() || !SameResult(*serial, first)) {
      out.problems.push_back(
          "job 0 at 1 thread differs from its run at " +
          std::to_string(config.threads) + " threads");
    }
  }
  e.peak_rss_mb = PeakRssMb();

  out.attempted = tally.attempted();
  out.failed = tally.failed();
  if (config.trace) {
    AddLayerMetrics(totals, generated ? generate_ms / generated : 0.0, {},
                    &out);
  } else {
    AddEndToEndMetrics(e, &out);
  }
  return out;
}

}  // namespace jobbench
