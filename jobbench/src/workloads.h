// The benchmark's workloads and what one run of one of them reports.
#ifndef JOBBENCH_WORKLOADS_H_
#define JOBBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "jobs.h"

namespace jobbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  /// Open-loop arrival rate of daemon_open, jobs per second.
  double rate = 0.0;
  /// Latency limit of slo_share, milliseconds after a job is due.
  double slo_ms = 0.0;
  /// Path of the discoverd binary.
  std::string discoverd;
  /// Thread pool size of in-process jobs: min(nproc, 4).
  size_t threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed output checks; any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// Human-readable context printed ahead of the result line.
  std::vector<std::string> notes;
};

/// How many times a run sets up; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// default_path, fixed_k_mix and spectral_views: one caller, one job at a
/// time, through DiscoverMultipleClusterings.
RunResult RunInProcess(const RunConfig& config);

/// daemon_open: a discoverd child under Poisson arrivals.
RunResult RunDaemonOpen(const RunConfig& config);

/// Replaces the serve.* rows of `out` with those of a traced daemon_open
/// run and adds its job counts, failed checks and notes.
void MergeServeLayer(const RunResult& daemon, RunResult* out);

/// What a run measured for the end-to-end metrics every workload reports.
struct EndToEnd {
  double window_ms = 0.0;
  const JobTally* tally = nullptr;
  double cpu_ms = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> setup_ms;
  double recovery_sum = 0.0;
  double fill_sum = 0.0;
  size_t quality_jobs = 0;
};

/// Appends those metrics, and a note with the latency sample count.
void AddEndToEndMetrics(const EndToEnd& e, RunResult* out);

/// Appends every per-layer metric. `serve` holds the serve.* values of
/// daemon_open (empty elsewhere: those layers are not on the path).
void AddLayerMetrics(const LayerTotals& totals, double generate_ms,
                     const std::vector<Metric>& serve, RunResult* out);

}  // namespace jobbench

#endif  // JOBBENCH_WORKLOADS_H_
