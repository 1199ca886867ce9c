#ifndef MULTICLUST_COMMON_BLACKBOX_H_
#define MULTICLUST_COMMON_BLACKBOX_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace multiclust {

/// Black-box flight recorder: an always-on, lock-free, per-thread ring
/// buffer of fixed-size event records (span enter/exit, outer-iteration
/// marks, checkpoint and fault events, status transitions), plus an
/// async-signal-safe crash handler that dumps the rings — together with
/// the open span stacks, a resource snapshot and the fault/checkpoint
/// state — to a versioned `multiclust.crash_report` JSON file when the
/// process dies on SIGSEGV/SIGBUS/SIGABRT/SIGFPE.
///
/// Unlike the span tracer (common/trace.h), which is off until
/// trace::Enable() and buffers unbounded event lists for export, the
/// flight recorder is ON by default and bounded: each thread's ring of
/// `kRingCapacity` records silently overwrites its oldest entries. The
/// ring lives in the thread's span slot (common/span_slot.h) next to the
/// one open-span stack and the tracer's events; up to 256 threads alive
/// at once hold a slot, and an exited thread's slot (ring included) is
/// kept readable and handed to the next new thread. Recording takes no
/// locks and performs no allocation
/// (one TLS lookup, one clock read, a handful of relaxed atomic stores —
/// well under the 100 ns/record budget), so it is safe to leave armed in
/// production and safe to call from code holding unrelated locks (the
/// fault injector records fire events while holding its own mutex).
///
/// Name pointers are STORED, not copied: every `name`/`site` argument
/// must have static storage duration (string literals throughout the
/// library). The one non-literal producer — the Checkpointer's algorithm
/// slot name — is copied into a fixed global buffer instead.
///
/// The whole subsystem compiles out under -DMULTICLUST_TRACING=OFF like
/// the rest of the telemetry plane: every function below becomes an
/// empty inline stub and libmulticlust contains no multiclust::blackbox
/// symbols (CI checks this with nm).
namespace blackbox {

/// Schema version of the `multiclust.crash_report` JSON artifact.
inline constexpr int kCrashReportSchemaVersion = 1;
inline constexpr char kCrashReportKind[] = "multiclust.crash_report";

/// Records each thread ring holds; the oldest are overwritten in place.
inline constexpr size_t kRingCapacity = 256;

/// What one ring record describes. Values are stable (they appear as
/// both integers and names in crash reports); append only.
enum class EventType : uint32_t {
  kSpanEnter = 1,          ///< trace span opened; name = span name
  kSpanExit = 2,           ///< trace span closed; name = span name
  kIteration = 3,          ///< outer-iteration budget check; name = site,
                           ///< a = 0-based iteration
  kCheckpointWrite = 4,    ///< snapshot persisted; a = sequence number
  kCheckpointRestore = 5,  ///< snapshot restored; a = sequence number
  kCheckpointFail = 6,     ///< snapshot write failed; a = sequence number
  kFault = 7,              ///< injected fault fired; name = site,
                           ///< a = iteration, b = FaultKind
  kStatus = 8,             ///< status transition; name = what happened
                           ///< ("deadline", "max-iterations", ...)
  kMark = 9,               ///< free-form waypoint; name = label, a = value
};

/// Short stable identifier for `type` ("span_enter", "fault", ...).
/// Header-inline so OFF builds that print record types keep working
/// without pulling any blackbox symbol into the library.
constexpr const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kSpanEnter:
      return "span_enter";
    case EventType::kSpanExit:
      return "span_exit";
    case EventType::kIteration:
      return "iteration";
    case EventType::kCheckpointWrite:
      return "checkpoint_write";
    case EventType::kCheckpointRestore:
      return "checkpoint_restore";
    case EventType::kCheckpointFail:
      return "checkpoint_fail";
    case EventType::kFault:
      return "fault";
    case EventType::kStatus:
      return "status";
    case EventType::kMark:
      return "mark";
  }
  return "unknown";
}

#if defined(MULTICLUST_TRACING)

inline constexpr bool kCompiledIn = true;

/// Toggles recording (default ON — the recorder is meant to be always
/// armed; benches toggle it to measure the delta). Disabling does not
/// clear the rings.
void SetEnabled(bool enabled);
bool Enabled();

/// Appends one record to the calling thread's ring. `name` must have
/// static storage duration. Lock-free, allocation-free.
void Record(EventType type, const char* name, uint64_t a = 0, uint64_t b = 0);

/// Convenience for kMark records.
void Mark(const char* name, uint64_t a = 0);

/// Records an injected-fault fire (type kFault). `kind` is the FaultKind
/// as int; kept untyped so fault.h need not depend on this header.
void RecordFault(const char* site, int kind, uint64_t iteration);

/// Records a checkpoint event (type must be one of the kCheckpoint*
/// values) and updates the global checkpoint state summarized in crash
/// reports. `algorithm` may be any string; it is copied, not stored.
void RecordCheckpoint(EventType type, const char* algorithm,
                      uint64_t sequence);

/// Clears every thread's ring and the checkpoint summary (slots stay
/// registered, open-span stacks are untouched). For run isolation in
/// chaos cycles and tests.
void Reset();

/// Total records written since process start (including overwritten
/// ones); monotonic, for tests and overhead benches.
uint64_t TotalRecords();

/// Installs the async-signal-safe crash handler for SIGSEGV, SIGBUS,
/// SIGABRT and SIGFPE. On a fatal signal it writes a
/// `multiclust.crash_report` JSON document to `report_path` using only
/// write(2)-level primitives and pre-reserved buffers, optionally
/// appends the line registered via SetCrashLedger to the run ledger,
/// then restores the default disposition and re-raises so the process
/// still dies with the original signal. Error when already installed or
/// the path is empty/too long (the handler cannot allocate, so the path
/// is captured into a fixed buffer now).
Status InstallCrashHandler(const std::string& report_path);

/// Restores the signal dispositions saved by InstallCrashHandler.
void UninstallCrashHandler();

bool CrashHandlerInstalled();

/// Registers a pre-formatted `multiclust.run_record` line (newline not
/// required; one is added) that the crash handler appends to
/// `ledger_path` (O_APPEND + fsync) after writing the crash report —
/// the "this run crashed" ledger entry, formatted ahead of time because
/// the handler cannot build JSON safely. Empty strings clear it.
void SetCrashLedger(const std::string& ledger_path,
                    const std::string& record_line);

/// The crash-report JSON for the current process state, built in normal
/// (non-signal) context — the flight-record dump attached to chaos
/// repros. `signal` stamps the "signal" field; 0 means "snapshot taken
/// alive, not a crash".
std::string FlightRecordJson(int signal = 0);

/// Writes FlightRecordJson() to `path` (plain buffered I/O; for the
/// signal path use InstallCrashHandler).
Status WriteFlightRecord(const std::string& path);

#else  // !MULTICLUST_TRACING — zero-cost stubs, no symbols in the library.

inline constexpr bool kCompiledIn = false;

inline void SetEnabled(bool) {}
inline constexpr bool Enabled() { return false; }
inline void Record(EventType, const char*, uint64_t = 0, uint64_t = 0) {}
inline void Mark(const char*, uint64_t = 0) {}
inline void RecordFault(const char*, int, uint64_t) {}
inline void RecordCheckpoint(EventType, const char*, uint64_t) {}
inline void Reset() {}
inline constexpr uint64_t TotalRecords() { return 0; }
inline Status InstallCrashHandler(const std::string&) {
  return Status::FailedPrecondition(
      "blackbox: compiled out (-DMULTICLUST_TRACING=OFF)");
}
inline void UninstallCrashHandler() {}
inline constexpr bool CrashHandlerInstalled() { return false; }
inline void SetCrashLedger(const std::string&, const std::string&) {}
inline std::string FlightRecordJson(int = 0) { return std::string(); }
inline Status WriteFlightRecord(const std::string&) {
  return Status::FailedPrecondition(
      "blackbox: compiled out (-DMULTICLUST_TRACING=OFF)");
}

#endif  // MULTICLUST_TRACING

}  // namespace blackbox
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_BLACKBOX_H_
