#ifndef MULTICLUST_COMMON_SPAN_SLOT_H_
#define MULTICLUST_COMMON_SPAN_SLOT_H_

// Internal to the telemetry plane: the one per-thread record that every
// trace::Span writes to, shared by the tracer (common/trace.cc), the flight
// recorder (common/blackbox.cc) and the span sampler (common/profile.cc).
// Not a public API. Compiled out, with the rest of the plane, under
// -DMULTICLUST_TRACING=OFF.

#if defined(MULTICLUST_TRACING)

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/blackbox.h"

namespace multiclust {
namespace trace {
namespace internal {

/// Slots that can be held at once. A thread releases its slot when it
/// exits and the next thread to register reuses it, so this bounds threads
/// alive at once, not threads ever created. A thread that registers while
/// every slot is held keeps none: its spans are counted in
/// trace::DroppedEvents() and its recorder records are skipped.
inline constexpr uint32_t kMaxThreads = 256;

/// Open-span nesting tracked per thread. Deeper nests keep a correct depth
/// count; only the visible stack is truncated to the outermost frames.
inline constexpr uint32_t kMaxSpanDepth = 64;

/// One completed span kept for the tracer's export. `name` points at a
/// string literal, so appending an event never copies a name.
struct Event {
  const char* name;
  double ts_us;   // start, relative to the NowNs() epoch
  double dur_us;  // duration
  uint32_t tid;   // slot id
};

/// One flight-recorder record. Every field is an individually relaxed
/// atomic: a reader racing the writer at the ring boundary may observe a
/// MIXED record (the fields of two different events) but never a torn one,
/// so the name pointer is always one that was actually stored and the
/// crash handler can dereference it safely.
struct Rec {
  std::atomic<uint64_t> ts_us{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<uint32_t> type{0};  // 0 = never written
};

/// Nanoseconds since the trace/recorder clock epoch, which the first call
/// pins. Async-signal-safe (one clock_gettime and a CAS).
uint64_t NowNs();

struct alignas(64) Slot {
  uint32_t id = 0;                // names the thread in every export
  std::atomic<bool> live{false};  // held by a running thread

  // Open-span stack, written only by the owner and read lock-free by the
  // sampler and the crash handler: the owner stores the name slot first,
  // then release-stores the new depth, so a reader that acquire-loads
  // `depth` sees every slot below it. A sample racing a pop may attribute
  // to the just-closed span, which a statistical profiler tolerates.
  std::atomic<uint32_t> depth{0};
  std::atomic<const char*> stack[kMaxSpanDepth] = {};

  // Flight-recorder ring; `head` counts records ever written.
  std::atomic<uint64_t> head{0};
  Rec ring[blackbox::kRingCapacity];

  // Tracer's completed spans. The owner appends and exporters read, both
  // under `mu`; the owner's lock is uncontended except during an export.
  std::mutex mu;
  std::vector<Event> events;

  /// Opens `name`; returns the depth it was opened at.
  uint32_t Push(const char* name) {
    const uint32_t d = depth.load(std::memory_order_relaxed);
    if (d < kMaxSpanDepth) stack[d].store(name, std::memory_order_relaxed);
    depth.store(d + 1, std::memory_order_release);
    return d;
  }

  /// Closes the innermost span; returns the depth left open.
  uint32_t Pop() {
    const uint32_t d = depth.load(std::memory_order_relaxed);
    if (d == 0) return 0;
    if (d <= kMaxSpanDepth) {
      stack[d - 1].store(nullptr, std::memory_order_relaxed);
    }
    depth.store(d - 1, std::memory_order_release);
    return d - 1;
  }

  /// Readable frames of `stack`: the depth, clamped to kMaxSpanDepth.
  uint32_t VisibleDepth() const {
    const uint32_t d = depth.load(std::memory_order_acquire);
    return d < kMaxSpanDepth ? d : kMaxSpanDepth;
  }

  /// Appends one recorder record, overwriting the oldest. Lock-free and
  /// allocation-free.
  void Append(blackbox::EventType type, const char* name, uint64_t a,
              uint64_t b) {
    const uint64_t seq = head.load(std::memory_order_relaxed);
    Rec& r = ring[seq & (blackbox::kRingCapacity - 1)];
    r.ts_us.store(NowNs() / 1000, std::memory_order_relaxed);
    r.name.store(name, std::memory_order_relaxed);
    r.a.store(a, std::memory_order_relaxed);
    r.b.store(b, std::memory_order_relaxed);
    r.type.store(static_cast<uint32_t>(type), std::memory_order_relaxed);
    head.store(seq + 1, std::memory_order_release);
  }
};

static_assert((blackbox::kRingCapacity & (blackbox::kRingCapacity - 1)) == 0,
              "ring capacity must be a power of two");

/// The calling thread's slot, claimed on first use and released when the
/// thread exits; nullptr when every slot was held at registration.
Slot* LocalSlot();

// Slot storage. Slots are allocated on first claim and never freed, so a
// released slot's ring and events stay readable after its thread exited.
extern std::atomic<Slot*> g_slots[kMaxThreads];
extern std::atomic<uint32_t> g_slot_count;  // slots ever allocated

/// Calls `fn(Slot&)` for every allocated slot, released ones included, in
/// id order. Lock-free and allocation-free, so the crash handler uses it.
template <typename Fn>
void ForEachSlot(Fn&& fn) {
  const uint32_t count = g_slot_count.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < count && i < kMaxThreads; ++i) {
    Slot* slot = g_slots[i].load(std::memory_order_acquire);
    if (slot != nullptr) fn(*slot);
  }
}

}  // namespace internal
}  // namespace trace
}  // namespace multiclust

#endif  // MULTICLUST_TRACING

#endif  // MULTICLUST_COMMON_SPAN_SLOT_H_
