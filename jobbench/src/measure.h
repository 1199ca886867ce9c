// Pure measurement arithmetic of the discovery-job benchmark: percentiles,
// span self time, the open-loop arrival schedule and the job tally. Kept
// free of library calls so tests/measure_test.cc can pin it down exactly.
#ifndef JOBBENCH_MEASURE_H_
#define JOBBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace jobbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kTailSamples = 10;

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 that has at
/// least kTailSamples samples beyond it among n samples; 0 when none has.
double HighestReportablePercentile(size_t n);

double Median(std::vector<double> values);

/// One timed call into a layer. `parent` indexes the span that caused it
/// (-1 for a root); spans of one job share `job`.
struct Span {
  std::string name;
  int64_t job = 0;
  int parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Spans kept in memory for the whole traced run and reduced at its end.
class SpanLog {
 public:
  /// Opens a span at `now_ms` and returns its index.
  int Begin(std::string name, int64_t job, int parent, double now_ms);
  void End(int index, double now_ms);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that the union of its children's intervals covers.
  std::vector<double> SelfTimesMs() const;

  /// Sum of durations, and of self times, of the spans named `name`.
  double TotalMs(const std::string& name) const;
  double SelfTotalMs(const std::string& name) const;
  size_t Count(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

/// The open-loop arrival schedule: a Poisson process of `rate` per second
/// over [0, seconds) conditioned on its expected count, round(rate *
/// seconds) arrivals — i.e. that many uniform instants, sorted. Fixing the
/// count keeps offered load equal across seeds; the instants are a pure
/// function of `seed`.
std::vector<double> ArrivalScheduleMs(uint64_t seed, double rate,
                                      double seconds);

/// SplitMix64: the benchmark's own stream, independent of the library's.
uint64_t SplitMix64(uint64_t* state);
double UniformDouble(uint64_t* state);  ///< in [0, 1)

/// How late the generator sent each request relative to its due time.
class LatenessLog {
 public:
  /// `sent_ms` earlier than `due_ms` (never expected) records 0.
  void Record(double due_ms, double sent_ms);
  double P90Ms() const { return Percentile(late_ms_, 90.0); }
  size_t size() const { return late_ms_.size(); }

 private:
  std::vector<double> late_ms_;
};

/// Outcome accounting of attempted jobs. A job that fails in any way —
/// an error, a rejected submit, a cancellation, a job never seen terminal
/// — counts as failed and misses the latency limit; only done jobs carry
/// a latency sample.
class JobTally {
 public:
  explicit JobTally(double slo_ms) : slo_ms_(slo_ms) {}

  void Done(double latency_ms);
  void Failed();

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  size_t done() const { return latencies_ms_.size(); }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  double FailShare() const;
  double DoneShare() const;
  /// Share of attempted jobs done within the latency limit.
  double SloShare() const;

 private:
  double slo_ms_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t slo_met_ = 0;
  std::vector<double> latencies_ms_;
};

}  // namespace jobbench

#endif  // JOBBENCH_MEASURE_H_
