#ifndef MULTICLUST_COMMON_PROFILE_H_
#define MULTICLUST_COMMON_PROFILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace multiclust {
namespace telemetry {

/// Per-run resource accounting: what one invocation (an algorithm run, a
/// strategy attempt, a whole discovery call) cost the process. All fields
/// are deltas between the scope's begin and end, except `peak_rss_kb`,
/// which is the process high-water mark at scope end (rusage cannot give a
/// windowed peak).
///
/// The struct itself is always defined (it rides on RunDiagnostics and the
/// DiscoveryReport, which exist in every build); the *capture* machinery
/// below compiles out under -DMULTICLUST_TRACING=OFF, leaving every field
/// zero. A profile with `captured == false` serializes as an absent
/// "resource" member in report JSON.
struct ResourceProfile {
  bool captured = false;
  double wall_ms = 0.0;        ///< wall-clock time of the scope
  double user_cpu_ms = 0.0;    ///< ru_utime delta
  double system_cpu_ms = 0.0;  ///< ru_stime delta
  uint64_t peak_rss_kb = 0;    ///< ru_maxrss at scope end (process-wide)
  uint64_t minor_faults = 0;   ///< ru_minflt delta
  uint64_t major_faults = 0;   ///< ru_majflt delta
  uint64_t alloc_count = 0;    ///< Matrix/Dataset storage allocations
  uint64_t alloc_bytes = 0;    ///< bytes requested by those allocations
  uint64_t flops = 0;          ///< kernel-layer floating-point ops (est.)
  uint64_t kernel_bytes = 0;   ///< kernel-layer bytes touched (est.)

  std::string ToString() const;
};

#if defined(MULTICLUST_TRACING)

inline constexpr bool kProfileCompiledIn = true;

namespace internal {
/// Process-wide allocation / kernel-work tallies. Relaxed atomics: totals
/// are exact, ordering is irrelevant. Exposed so the hot-path hooks below
/// inline to a single fetch_add.
extern std::atomic<uint64_t> g_alloc_count;
extern std::atomic<uint64_t> g_alloc_bytes;
extern std::atomic<uint64_t> g_flops;
extern std::atomic<uint64_t> g_kernel_bytes;
}  // namespace internal

/// Allocation hook, called from the Matrix/Dataset storage growth sites.
/// One relaxed add per allocation; compiles out to nothing under
/// -DMULTICLUST_TRACING=OFF.
inline void CountAlloc(uint64_t bytes) {
  internal::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  internal::g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Kernel-work hook. Call at chunk granularity (one add per ParallelFor
/// chunk or per GEMM call), never inside an inner loop.
inline void CountFlops(uint64_t flops, uint64_t bytes) {
  internal::g_flops.fetch_add(flops, std::memory_order_relaxed);
  internal::g_kernel_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Captures resource deltas between construction and Finish(). Cheap to
/// construct (one getrusage + four relaxed loads); safe to nest — each
/// scope measures its own window of the shared process counters.
class ResourceScope {
 public:
  ResourceScope();

  /// The deltas since construction. Can be called repeatedly; each call
  /// re-reads the counters (the scope keeps accumulating).
  ResourceProfile Snapshot() const;

 private:
  uint64_t start_wall_ns_ = 0;
  double start_user_us_ = 0.0;
  double start_sys_us_ = 0.0;
  uint64_t start_minflt_ = 0;
  uint64_t start_majflt_ = 0;
  uint64_t start_alloc_count_ = 0;
  uint64_t start_alloc_bytes_ = 0;
  uint64_t start_flops_ = 0;
  uint64_t start_kernel_bytes_ = 0;
};

// --- Timer-based sampling profiler -----------------------------------------
//
// A background thread wakes every `interval_ms` and records, for every
// live thread that has opened a trace span, the stack of spans currently
// open on it (trace::SnapshotOpenSpans). Threads that have exited are
// skipped. No libunwind, no signals: the "stack" is the one open-span
// stack every compiled-in span maintains in its thread's slot, so samples
// attribute to the innermost open span and aggregate into collapsed-stack
// lines that flamegraph.pl / speedscope consume directly. The tracer need
// not be enabled.

struct SamplerOptions {
  double interval_ms = 2.0;  ///< sampling period of the background thread
};

/// Starts the sampler thread. Error when already running or the interval
/// is not positive. Samples accumulate until ResetSamples().
Status StartSampler(const SamplerOptions& options = {});

/// Stops the sampler thread (joins it). Sample data is kept for export.
void StopSampler();

bool SamplerRunning();

/// Drops all accumulated samples.
void ResetSamples();

/// Total samples taken (one per registered thread per tick).
size_t SampleCount();

/// Collapsed-stack export: one line per distinct span stack,
/// "outer;inner <count>", sorted by stack name. Threads with no open span
/// at sample time appear as "(no span)". Feed to flamegraph.pl:
///   flamegraph.pl collapsed.txt > flame.svg
std::string CollapsedStacks();

/// Per-span sample aggregates. `self` counts samples where the span was
/// innermost; `total` counts samples where it was anywhere on the stack
/// (once per sample, even for recursive nests).
struct SampleStats {
  std::string name;
  size_t self = 0;
  size_t total = 0;
};

/// Sorted by descending self count, then name; includes "(no span)".
std::vector<SampleStats> SamplerTable();

/// Human-readable self/total table of SamplerTable().
std::string SamplerTableString();

#else  // !MULTICLUST_TRACING — zero-cost stubs, no symbols in the library.

inline constexpr bool kProfileCompiledIn = false;

inline void CountAlloc(uint64_t) {}
inline void CountFlops(uint64_t, uint64_t) {}

class ResourceScope {
 public:
  ResourceScope() {}
  ResourceProfile Snapshot() const { return {}; }
};

struct SamplerOptions {
  double interval_ms = 2.0;
};

inline Status StartSampler(const SamplerOptions& = {}) {
  return Status::FailedPrecondition(
      "sampler: compiled out (-DMULTICLUST_TRACING=OFF)");
}
inline void StopSampler() {}
inline constexpr bool SamplerRunning() { return false; }
inline void ResetSamples() {}
inline constexpr size_t SampleCount() { return 0; }
inline std::string CollapsedStacks() { return std::string(); }

struct SampleStats {
  std::string name;
  size_t self = 0;
  size_t total = 0;
};

inline std::vector<SampleStats> SamplerTable() { return {}; }
inline std::string SamplerTableString() {
  return "sampler: compiled out (-DMULTICLUST_TRACING=OFF)\n";
}

inline std::string ResourceProfile::ToString() const {
  return "(resource profiling compiled out: -DMULTICLUST_TRACING=OFF)\n";
}

#endif  // MULTICLUST_TRACING

}  // namespace telemetry
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_PROFILE_H_
