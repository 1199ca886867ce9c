#ifndef MULTICLUST_COMMON_CHECKPOINT_H_
#define MULTICLUST_COMMON_CHECKPOINT_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/runguard.h"
#include "common/status.h"

namespace multiclust {

class Matrix;
class Rng;

/// Crash-consistent checkpoint/resume for the iterative algorithms and the
/// discovery pipeline (see DESIGN.md "Crash recovery").
///
/// Every checkpoint is one self-describing JSON document:
///
///   {"schema_version":2,"kind":"multiclust.checkpoint",
///    "algorithm":"kmeans","sequence":12,"fingerprint":"0x1a2b...",
///    "crc32":3735928559,"payload":{...}}
///
/// The payload is the algorithm's state as written by its one
/// `Visit(ckpt::Archive&)` (centroids, responsibilities, subspace bases,
/// RNG stream position, restart index, best-so-far result) plus the
/// persistence-point counter and accumulated ConvergenceTrace that
/// common/iterative_run.h adds. Doubles use the writer's shortest-round-trip
/// formatting and 64-bit integers are hex strings, so a restored state is
/// bit-identical to the saved one — a resumed run produces exactly the
/// labels and objectives of an uninterrupted run. Schema version 2 is the
/// Archive layout; a version-1 file is skipped as stale (cold start).
///
/// Persistence is atomic: write to a temp file, fsync, rename over the final
/// name, fsync the directory. A reader therefore sees either the previous
/// complete checkpoint or the new complete checkpoint, never a torn one.
/// Validation on load checks the envelope (kind + schema_version), a CRC-32
/// over the serialized payload, the algorithm name, and a caller-supplied
/// configuration fingerprint; any mismatch degrades to a cold start with an
/// attributed RunDiagnostics warning, never an error.
inline constexpr int kCheckpointSchemaVersion = 2;
inline constexpr const char kCheckpointKind[] = "multiclust.checkpoint";

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) of `data`.
uint32_t Crc32(std::string_view data);

/// When an armed Checkpointer persists. Snapshots only ever happen at
/// persistence points (the end of an outer iteration / a completed pipeline
/// stage), so any combination of triggers preserves bit-identical resume.
struct CheckpointPolicy {
  /// Snapshot every N persistence points (1 = every outer iteration);
  /// 0 disables the iteration trigger.
  size_t every_iterations = 1;
  /// Minimum wall-clock gap between snapshots. With `every_iterations`
  /// also set, both must agree (rate-limits tight loops); alone, it is the
  /// sole trigger. 0 disables the interval requirement.
  double min_interval_ms = 0.0;
  /// Rotation: keep the newest N checkpoint files per algorithm slot.
  size_t keep_last = 2;
};

/// Non-owning type-erased callable reference: two raw pointers, no heap.
/// The per-iteration persistence hooks take these instead of std::function
/// because an owning wrapper would allocate for every lambda whose capture
/// outgrows the small-buffer optimisation — a real cost at k-means
/// iteration rates. The referenced callable must outlive the call, which
/// the synchronous AtPersistencePoint()/Flush() contract guarantees.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;
  FunctionRef(std::nullptr_t) {}  // NOLINT: implicit, mirrors std::function
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::decay_t<F>, FunctionRef>>>
  FunctionRef(const F& f)  // NOLINT: implicit by design
      : obj_(&f), call_([](const void* obj, Args... args) -> R {
          return (*static_cast<const F*>(obj))(std::forward<Args>(args)...);
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  const void* obj_ = nullptr;
  R (*call_)(const void*, Args...) = nullptr;
};

/// Deterministic configuration fingerprint (FNV-1a over option values and
/// data contents). Algorithms mix in everything that shapes their
/// iteration sequence so a checkpoint written under a different
/// configuration, seed or dataset is recognised as stale and discarded.
class Fingerprint {
 public:
  Fingerprint& Mix(uint64_t v);
  Fingerprint& Mix(std::string_view s);
  Fingerprint& MixDouble(double v);  ///< bit pattern, so -0.0 != 0.0
  Fingerprint& Mix(const Matrix& m); ///< dimensions and every entry
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

/// One run's checkpoint channel: a directory plus a cadence policy,
/// attached to the algorithms via `RunBudget::checkpoint`. Not thread-safe;
/// use one Checkpointer per run. The default-constructed budget carries no
/// checkpointer and the per-iteration cost of the disarmed path is a single
/// null-pointer test.
///
/// Snapshots (common/iterative_run.h) makes three calls, all keyed by the
/// algorithm's slot name and config fingerprint:
///
///  - TryRestore(): newest valid matching checkpoint, or nullopt for a
///    cold start (corrupt/stale files produce warnings, never errors).
///  - AtPersistencePoint(): called once per outer iteration with a payload
///    writer; persists when the policy says so. Under an armed
///    `FaultKind::kCrash` fault the snapshot is forced and the call
///    returns StatusCode::kAborted — the snapshot-then-abort simulation of
///    a process kill at exactly this persistence point.
///  - Flush(): force-persists (cooperative-cancellation and shutdown
///    paths), best effort.
class Checkpointer {
 public:
  Checkpointer(std::string dir, CheckpointPolicy policy = {});

  const std::string& dir() const { return dir_; }
  const CheckpointPolicy& policy() const { return policy_; }

  /// A restored payload plus the sequence number it carried.
  struct Restored {
    json::Value payload;
    uint64_t sequence = 0;
  };

  /// Loads the newest valid checkpoint for (algorithm, fingerprint).
  /// Invalid candidates (truncated, checksum mismatch, stale schema, wrong
  /// fingerprint) are skipped with a warning attributed to `algorithm`,
  /// appended to `diagnostics` when given and to warnings() always.
  std::optional<Restored> TryRestore(const char* algorithm,
                                     uint64_t fingerprint,
                                     RunDiagnostics* diagnostics);

  /// Persistence-point hook; see class comment. `step` is the algorithm's
  /// monotonic persistence-point counter (restarts included), which also
  /// feeds the crash-injection site: MC_FAULT_FIRES(algorithm, kCrash,
  /// step) forces the snapshot and makes the call return kAborted.
  Status AtPersistencePoint(const char* algorithm, uint64_t fingerprint,
                            size_t step,
                            FunctionRef<void(json::Writer*)> payload);

  /// Unconditional snapshot (cancellation / clean-shutdown flush).
  Status Flush(const char* algorithm, uint64_t fingerprint,
               FunctionRef<void(json::Writer*)> payload);

  /// Removes every checkpoint file in the directory (fresh-start path).
  Status Clear();

  /// Warnings accumulated by TryRestore (cold-start fallbacks) and failed
  /// writes, for callers without a RunDiagnostics sink. Draining resets.
  std::vector<std::string> TakeWarnings();

  /// Total snapshots successfully persisted by this Checkpointer.
  size_t snapshots_written() const { return snapshots_written_; }

 private:
  Status WriteSnapshot(const char* algorithm, uint64_t fingerprint,
                       FunctionRef<void(json::Writer*)> payload);
  void Warn(const char* algorithm, const std::string& message,
            RunDiagnostics* diagnostics);

  std::string dir_;
  CheckpointPolicy policy_;
  std::vector<std::string> warnings_;
  /// Slots that already produced a wrong-fingerprint warning. Composite
  /// strategies (meta clustering, orthogonal projections) legitimately run
  /// the same base algorithm many times with different seeds against one
  /// slot; every run after an interrupt would re-discover the same stale
  /// snapshot, so the warning fires once per slot, not once per probe.
  std::set<std::string> stale_fp_warned_;
  bool have_last_save_ = false;
  std::chrono::steady_clock::time_point last_save_;
  size_t snapshots_written_ = 0;
  /// 0-based write-attempt counter (successful or not): the iteration fed
  /// to the "checkpoint" fault site for injected I/O failures.
  size_t write_attempts_ = 0;
};

/// Largest valid value of each checkpointed enum: Archive range-checks an
/// enum on read against EnumMax (found by argument-dependent lookup).
constexpr StopReason EnumMax(StopReason) { return StopReason::kCancelled; }
constexpr StatusCode EnumMax(StatusCode) { return StatusCode::kAborted; }

namespace ckpt {

/// Test-only: toggles the Checkpointer's read-back verification of every
/// written snapshot (compare bytes on disk against the intended document;
/// mismatch removes the file and reports kIoError before rotation runs).
/// Always ON outside tests — disabling it reintroduces the bug where a
/// silently torn write rotates out the last good snapshot. Returns the
/// previous setting.
bool SetVerifyAfterWriteForTest(bool enabled);

/// 64-bit integers as hex strings ("0x1a2b") — JSON numbers are doubles
/// and would silently round above 2^53.
void WriteU64(json::Writer* w, uint64_t v);
Result<uint64_t> ReadU64(const json::Value& v);

/// Two-way payload serializer: one `Visit(Archive&)` per checkpointed
/// state writes the state (through a json::Writer) and reads it back (from
/// the parsed json::Value) with the same sequence of Field calls, so a
/// writer and its reader cannot drift apart.
///
///   void Visit(ckpt::Archive& ar) {
///     ar.Field("iter", iter).Field("centers", centers);
///     ar.Optional("have_best", have_best, [&] { ar.Field("best", best); });
///   }
///
/// Field types: bool, signed integers, enums with an EnumMax overload
/// (range-checked on read), unsigned 64-bit integers (hex strings, so
/// counters and seeds alike survive above 2^53), doubles (shortest
/// round-trip form; NaN and +-inf are written as null and read back as
/// NaN), std::string, Matrix, Rng (full stream position), Status,
/// ConvergenceTrace, RunDiagnostics, std::vector of any field type, and
/// any struct with its own `Visit(Archive&)` (a nested object).
///
/// In read mode a missing or mistyped field, or an out-of-range enum,
/// sets status() to kComputationError naming the field; every later call
/// is a no-op, so the caller checks status() once at the end and falls
/// back to a cold start.
class Archive {
 public:
  explicit Archive(json::Writer* out) : out_(out) {}
  explicit Archive(const json::Value& in) : in_(&in) {}

  const Status& status() const { return status_; }

  /// Serializes `value` as member `key` of the current object.
  template <typename T>
  Archive& Field(const char* key, T& value) {
    Member(key, [&] { Value(value); });
    return *this;
  }

  /// An optional section: `present` is stored under `flag`, and `body`
  /// (more Field calls) runs only when it is true.
  template <typename Body>
  Archive& Optional(const char* flag, bool& present, Body&& body) {
    Field(flag, present);
    if (status_.ok() && present) body();
    return *this;
  }

  /// Serializes `value` at the current position (payload root or array
  /// element).
  template <typename T>
  void Value(T& value) {
    if (!status_.ok()) return;
    if constexpr (requires { value.Visit(*this); }) {
      Object([&] { value.Visit(*this); });
    } else if constexpr (IsVector<T>::value) {
      Array(value.size(), [&](size_t n) { value.resize(n); },
            [&](size_t i) { Value(value[i]); });
    } else if constexpr (std::is_enum_v<T>) {
      int64_t raw = static_cast<int64_t>(value);
      Integer(&raw, 0, static_cast<int64_t>(EnumMax(value)));
      value = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T> && std::is_unsigned_v<T> &&
                         sizeof(T) == sizeof(uint64_t)) {
      uint64_t raw = value;
      Hex(&raw);
      value = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      int64_t raw = static_cast<int64_t>(value);
      Integer(&raw, std::numeric_limits<T>::min(),
              std::numeric_limits<T>::max());
      value = static_cast<T>(raw);
    } else {
      Scalar(value);
    }
  }

 private:
  template <typename T>
  struct IsVector : std::false_type {};
  template <typename T, typename A>
  struct IsVector<std::vector<T, A>> : std::true_type {};

  bool reading() const { return out_ == nullptr; }

  template <typename Body>
  void Member(const char* key, Body&& body) {
    if (!status_.ok()) return;
    const char* outer_key = key_;
    key_ = key;
    if (!reading()) {
      out_->Key(key);
      body();
    } else if (const json::Value* member = in_->Find(key)) {
      const json::Value* outer = in_;
      in_ = member;
      body();
      in_ = outer;
    } else {
      Fail("missing");
    }
    key_ = outer_key;
  }

  void Object(FunctionRef<void()> body);
  /// `size` elements in write mode; in read mode `resize(n)` first, then
  /// `element(i)` once per array item.
  void Array(size_t size, FunctionRef<void(size_t)> resize,
             FunctionRef<void(size_t)> element);
  void Integer(int64_t* v, int64_t lo, int64_t hi);
  void Hex(uint64_t* v);
  void Scalar(bool& v);
  void Scalar(double& v);
  void Scalar(std::string& v);
  void Scalar(Matrix& m);
  void Scalar(Rng& rng);
  void Scalar(Status& status);
  void Scalar(ConvergencePoint& point);
  void Scalar(ConvergenceTrace& trace);
  void Scalar(RunDiagnostics& diagnostics);
  /// Records the first read error ("checkpoint: field 'k' is <what>").
  void Fail(const char* what);

  json::Writer* out_ = nullptr;
  const json::Value* in_ = nullptr;
  const char* key_ = "";
  Status status_;
};

}  // namespace ckpt
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_CHECKPOINT_H_
