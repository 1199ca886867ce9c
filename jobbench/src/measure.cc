#include "measure.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace jobbench {

namespace {

// 1-based nearest rank of the p-th percentile among n > 0 samples. The
// tolerance keeps products such as 99.9 * 10000 / 100 on their exact rank.
size_t NearestRank(size_t n, double p) {
  const double exact = p * static_cast<double>(n) / 100.0;
  return std::clamp<size_t>(static_cast<size_t>(std::ceil(exact - 1e-9)), 1,
                            n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double HighestReportablePercentile(size_t n) {
  const double candidates[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= kTailSamples) return p;
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int SpanLog::Begin(std::string name, int64_t job, int parent, double now_ms) {
  spans_.push_back(Span{std::move(name), job, parent, now_ms, now_ms});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index, double now_ms) { spans_[index].end_ms = now_ms; }

std::vector<double> SpanLog::SelfTimesMs() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ms, s.end_ms});
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double reach = s.start_ms;
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, reach);
      const double to = std::min(hi, s.end_ms);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(hi, s.end_ms));
    }
    self[i] = (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

double SpanLog::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_ms - s.start_ms;
  }
  return total;
}

double SpanLog::SelfTotalMs(const std::string& name) const {
  const std::vector<double> self = SelfTimesMs();
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self[i];
  }
  return total;
}

size_t SpanLog::Count(const std::string& name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double UniformDouble(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

std::vector<double> ArrivalScheduleMs(uint64_t seed, double rate,
                                      double seconds) {
  const size_t count =
      static_cast<size_t>(std::llround(std::max(0.0, rate * seconds)));
  uint64_t state = seed ^ 0x5CEDu;
  std::vector<double> due(count);
  for (double& t : due) t = UniformDouble(&state) * seconds * 1000.0;
  std::sort(due.begin(), due.end());
  return due;
}

void LatenessLog::Record(double due_ms, double sent_ms) {
  late_ms_.push_back(std::max(0.0, sent_ms - due_ms));
}

void JobTally::Done(double latency_ms) {
  ++attempted_;
  latencies_ms_.push_back(latency_ms);
  if (latency_ms <= slo_ms_) ++slo_met_;
}

void JobTally::Failed() {
  ++attempted_;
  ++failed_;
}

double JobTally::FailShare() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) / attempted_;
}

double JobTally::DoneShare() const {
  return attempted_ == 0 ? 0.0 : 1.0 - FailShare();
}

double JobTally::SloShare() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(slo_met_) / attempted_;
}

}  // namespace jobbench
