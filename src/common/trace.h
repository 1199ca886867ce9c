#ifndef MULTICLUST_COMMON_TRACE_H_
#define MULTICLUST_COMMON_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace multiclust {

/// Span-based tracer with a Chrome trace-event exporter.
///
/// Usage in library code (always through the macro, never the class):
///
///   void HotFunction() {
///     MULTICLUST_TRACE_SPAN("cluster.kmeans.assign");
///     ...  // scope timed; nested spans nest in the exported trace
///   }
///
/// Span names follow the `<module>.<algo>.<event>` convention (see
/// DESIGN.md "Observability") and MUST be string literals (or otherwise
/// have static storage duration): the tracer stores the pointer, not a
/// copy, so span construction never allocates.
///
/// Every compiled-in span pushes and pops its thread's one open-span stack
/// (read by the sampler in common/profile.h and by crash reports) and, while
/// the flight recorder is armed, records its enter and exit there. Timing
/// is off until `trace::Enable()`. Completed timed spans are appended to
/// the same per-thread slot (safe under the `ParallelFor` pool), exported
/// either as a `chrome://tracing` / Perfetto-loadable JSON document or as a
/// per-span count/total/mean/max summary table.
///
/// The whole subsystem is compiled out under `-DMULTICLUST_TRACING=OFF`:
/// every function below becomes an empty inline stub, `Span` becomes an
/// empty object, and libmulticlust contains no `multiclust::trace`
/// symbols (CI checks this with `nm`).
namespace trace {

/// Aggregate statistics of one span name across all threads.
struct SpanStats {
  std::string name;
  size_t count = 0;
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

#if defined(MULTICLUST_TRACING)

inline constexpr bool kCompiledIn = true;

/// Starts collecting span events. Events recorded before Enable() (or
/// after Disable()) are dropped at the span, not buffered.
void Enable();

/// Stops collecting. Already-buffered events are kept for export.
void Disable();

/// True while collection is on.
bool Enabled();

/// Drops every buffered event (buffers keep their capacity, so a
/// Reset-per-run loop does not churn the allocator).
void Reset();

/// Number of completed spans currently buffered, across all threads.
size_t EventCount();

/// Completed spans dropped because a per-thread buffer hit its capacity
/// (SetMaxEventsPerThread), plus spans opened while the tracer or the
/// flight recorder was on by a thread that found all of the 256 per-thread
/// slots held by live threads. Dropped events are counted, never silently
/// lost: the total is surfaced here, in SummaryString() and in the
/// Chrome JSON "metadata" object ("trace.dropped_events"). Reset() zeroes
/// it along with the buffers.
size_t DroppedEvents();

/// Caps each per-thread event buffer at `max_events` completed spans
/// (default 1 << 20, ~32 MB/thread; a thread that reuses an exited
/// thread's slot shares its buffer). 0 means unlimited. Spans recorded
/// past the cap are dropped and counted in DroppedEvents().
void SetMaxEventsPerThread(size_t max_events);

/// The stack of currently-open span names of every live thread that has
/// opened a span (exited threads are skipped; order is slot id). Entry i is
/// innermost-last. Maintained whether or not the tracer is enabled. Used by
/// the sampling profiler (common/profile.h) to attribute timer samples;
/// nesting deeper than an internal fixed depth is truncated to the
/// outermost frames.
std::vector<std::vector<const char*>> SnapshotOpenSpans();

/// Per-span aggregates, sorted by span name (deterministic order).
std::vector<SpanStats> Summary();

/// Human-readable summary table of Summary().
std::string SummaryString();

/// The buffered events as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`, "X" complete events, microsecond
/// timestamps). Loadable in chrome://tracing or https://ui.perfetto.dev.
std::string ChromeTraceJson();

/// Writes ChromeTraceJson() to `path`.
Status WriteChromeTrace(const std::string& path);

namespace internal {
struct Slot;  // common/span_slot.h
}  // namespace internal

/// RAII scope timer. Use MULTICLUST_TRACE_SPAN instead of naming this
/// directly so the span compiles out under -DMULTICLUST_TRACING=OFF.
/// `name` must have static storage duration (string literal).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  internal::Slot* slot_;  // nullptr: every slot was held, span dropped
  uint64_t start_ns_ = 0;
  bool timed_ = false;
};

#else  // !MULTICLUST_TRACING — zero-cost stubs, no symbols in the library.

inline constexpr bool kCompiledIn = false;

inline void Enable() {}
inline void Disable() {}
inline constexpr bool Enabled() { return false; }
inline void Reset() {}
inline constexpr size_t EventCount() { return 0; }
inline constexpr size_t DroppedEvents() { return 0; }
inline void SetMaxEventsPerThread(size_t) {}
inline std::vector<std::vector<const char*>> SnapshotOpenSpans() {
  return {};
}
inline std::vector<SpanStats> Summary() { return {}; }
inline std::string SummaryString() {
  return "trace: compiled out (-DMULTICLUST_TRACING=OFF)\n";
}
inline std::string ChromeTraceJson() { return "{\"traceEvents\":[]}\n"; }
inline Status WriteChromeTrace(const std::string&) { return Status::OK(); }

class Span {
 public:
  explicit Span(const char*) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // MULTICLUST_TRACING

}  // namespace trace
}  // namespace multiclust

#define MC_TRACE_CONCAT_INNER_(a, b) a##b
#define MC_TRACE_CONCAT_(a, b) MC_TRACE_CONCAT_INNER_(a, b)

/// Times the enclosing scope under `name` (a string literal,
/// `<module>.<algo>.<event>`). Expands to nothing when tracing is
/// compiled out.
#if defined(MULTICLUST_TRACING)
#define MULTICLUST_TRACE_SPAN(name)          \
  ::multiclust::trace::Span MC_TRACE_CONCAT_( \
      mc_trace_span_, __LINE__) { (name) }
#else
#define MULTICLUST_TRACE_SPAN(name) \
  do {                              \
  } while (false)
#endif

#endif  // MULTICLUST_COMMON_TRACE_H_
