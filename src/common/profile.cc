#include "common/profile.h"

#if defined(MULTICLUST_TRACING)

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common/span_slot.h"
#include "common/strings.h"
#include "common/trace.h"

namespace multiclust {
namespace telemetry {

namespace internal {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_flops{0};
std::atomic<uint64_t> g_kernel_bytes{0};
}  // namespace internal

namespace {

double TimevalUs(const struct timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 +
         static_cast<double>(tv.tv_usec);
}

}  // namespace

std::string ResourceProfile::ToString() const {
  if (!captured) return "(resource profile not captured)\n";
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "wall %.1f ms  user %.1f ms  sys %.1f ms\n", wall_ms,
                user_cpu_ms, system_cpu_ms);
  out += line;
  std::snprintf(line, sizeof(line),
                "peak rss %llu KB  faults %llu minor / %llu major\n",
                static_cast<unsigned long long>(peak_rss_kb),
                static_cast<unsigned long long>(minor_faults),
                static_cast<unsigned long long>(major_faults));
  out += line;
  std::snprintf(line, sizeof(line),
                "allocs %llu (%llu bytes)  kernel %llu flops / %llu bytes\n",
                static_cast<unsigned long long>(alloc_count),
                static_cast<unsigned long long>(alloc_bytes),
                static_cast<unsigned long long>(flops),
                static_cast<unsigned long long>(kernel_bytes));
  out += line;
  return out;
}

ResourceScope::ResourceScope() {
  start_wall_ns_ = trace::internal::NowNs();
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    start_user_us_ = TimevalUs(usage.ru_utime);
    start_sys_us_ = TimevalUs(usage.ru_stime);
    start_minflt_ = static_cast<uint64_t>(usage.ru_minflt);
    start_majflt_ = static_cast<uint64_t>(usage.ru_majflt);
  }
  start_alloc_count_ =
      internal::g_alloc_count.load(std::memory_order_relaxed);
  start_alloc_bytes_ =
      internal::g_alloc_bytes.load(std::memory_order_relaxed);
  start_flops_ = internal::g_flops.load(std::memory_order_relaxed);
  start_kernel_bytes_ =
      internal::g_kernel_bytes.load(std::memory_order_relaxed);
}

ResourceProfile ResourceScope::Snapshot() const {
  ResourceProfile profile;
  profile.captured = true;
  profile.wall_ms =
      static_cast<double>(trace::internal::NowNs() - start_wall_ns_) / 1e6;
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    profile.user_cpu_ms =
        (TimevalUs(usage.ru_utime) - start_user_us_) / 1000.0;
    profile.system_cpu_ms =
        (TimevalUs(usage.ru_stime) - start_sys_us_) / 1000.0;
    // ru_maxrss on Linux is in kilobytes and is a process-wide high-water
    // mark: report the end-of-scope value, not a delta.
    profile.peak_rss_kb = static_cast<uint64_t>(usage.ru_maxrss);
    const uint64_t minflt = static_cast<uint64_t>(usage.ru_minflt);
    const uint64_t majflt = static_cast<uint64_t>(usage.ru_majflt);
    profile.minor_faults = minflt - std::min(minflt, start_minflt_);
    profile.major_faults = majflt - std::min(majflt, start_majflt_);
  }
  profile.alloc_count =
      internal::g_alloc_count.load(std::memory_order_relaxed) -
      start_alloc_count_;
  profile.alloc_bytes =
      internal::g_alloc_bytes.load(std::memory_order_relaxed) -
      start_alloc_bytes_;
  profile.flops =
      internal::g_flops.load(std::memory_order_relaxed) - start_flops_;
  profile.kernel_bytes =
      internal::g_kernel_bytes.load(std::memory_order_relaxed) -
      start_kernel_bytes_;
  return profile;
}

// --- Sampling profiler -------------------------------------------------------

namespace {

struct SamplerState {
  std::mutex mu;  // guards thread start/stop transitions
  std::thread thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stop{false};

  std::mutex data_mu;  // guards the accumulated samples
  std::map<std::string, size_t> stacks;  // "outer;inner" -> sample count
  size_t total_samples = 0;
};

SamplerState& GetSampler() {
  static SamplerState* state = new SamplerState();
  return *state;
}

constexpr const char kNoSpan[] = "(no span)";

void SamplerLoop(double interval_ms) {
  SamplerState& state = GetSampler();
  const auto period = std::chrono::duration<double, std::milli>(interval_ms);
  while (!state.stop.load(std::memory_order_acquire)) {
    const std::vector<std::vector<const char*>> stacks =
        trace::SnapshotOpenSpans();
    {
      std::lock_guard<std::mutex> lock(state.data_mu);
      for (const std::vector<const char*>& stack : stacks) {
        std::string key;
        if (stack.empty()) {
          key = kNoSpan;
        } else {
          for (const char* name : stack) {
            if (!key.empty()) key.push_back(';');
            key += name;
          }
        }
        ++state.stacks[key];
        ++state.total_samples;
      }
    }
    std::this_thread::sleep_for(period);
  }
}

}  // namespace

Status StartSampler(const SamplerOptions& options) {
  if (!(options.interval_ms > 0.0)) {
    return Status::InvalidArgument("sampler: interval_ms must be positive");
  }
  SamplerState& state = GetSampler();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.running.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("sampler: already running");
  }
  state.stop.store(false, std::memory_order_release);
  state.thread = std::thread(SamplerLoop, options.interval_ms);
  state.running.store(true, std::memory_order_release);
  return Status::OK();
}

void StopSampler() {
  SamplerState& state = GetSampler();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.running.load(std::memory_order_acquire)) return;
  state.stop.store(true, std::memory_order_release);
  state.thread.join();
  state.running.store(false, std::memory_order_release);
}

bool SamplerRunning() {
  return GetSampler().running.load(std::memory_order_acquire);
}

void ResetSamples() {
  SamplerState& state = GetSampler();
  std::lock_guard<std::mutex> lock(state.data_mu);
  state.stacks.clear();
  state.total_samples = 0;
}

size_t SampleCount() {
  SamplerState& state = GetSampler();
  std::lock_guard<std::mutex> lock(state.data_mu);
  return state.total_samples;
}

std::string CollapsedStacks() {
  SamplerState& state = GetSampler();
  std::lock_guard<std::mutex> lock(state.data_mu);
  std::string out;
  for (const auto& [key, count] : state.stacks) {  // map: sorted by stack
    out += key;
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %zu\n", count);
    out += buf;
  }
  return out;
}

std::vector<SampleStats> SamplerTable() {
  std::map<std::string, SampleStats> by_name;
  {
    SamplerState& state = GetSampler();
    std::lock_guard<std::mutex> lock(state.data_mu);
    for (const auto& [key, count] : state.stacks) {
      const std::vector<std::string> frames = SplitString(key, ';');
      by_name[frames.back()].self += count;
      // `total` counts each sample once per span present, even if the span
      // recurses within the stack.
      std::vector<std::string> seen;
      for (const std::string& frame : frames) {
        if (std::find(seen.begin(), seen.end(), frame) != seen.end()) {
          continue;
        }
        seen.push_back(frame);
        by_name[frame].total += count;
      }
    }
  }
  std::vector<SampleStats> out;
  out.reserve(by_name.size());
  for (auto& [name, stats] : by_name) {
    stats.name = name;
    out.push_back(std::move(stats));
  }
  std::sort(out.begin(), out.end(),
            [](const SampleStats& a, const SampleStats& b) {
              if (a.self != b.self) return a.self > b.self;
              return a.name < b.name;
            });
  return out;
}

std::string SamplerTableString() {
  const std::vector<SampleStats> table = SamplerTable();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-36s %10s %10s\n", "span", "self",
                "total");
  out += line;
  for (const SampleStats& s : table) {
    std::snprintf(line, sizeof(line), "%-36s %10zu %10zu\n", s.name.c_str(),
                  s.self, s.total);
    out += line;
  }
  if (table.empty()) out += "(no samples recorded)\n";
  return out;
}

}  // namespace telemetry
}  // namespace multiclust

#endif  // MULTICLUST_TRACING
