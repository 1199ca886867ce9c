#include "common/trace.h"

#if defined(MULTICLUST_TRACING)

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>

#include "common/json.h"
#include "common/report.h"
#include "common/span_slot.h"

namespace multiclust {
namespace trace {

namespace internal {

std::atomic<Slot*> g_slots[kMaxThreads];
std::atomic<uint32_t> g_slot_count{0};

namespace {

std::atomic<uint64_t> g_epoch_ns{0};
std::mutex g_claim_mu;  // serializes claims; readers never take it

// Reuses the lowest released slot, else allocates the next one. A slot is
// never freed: the crash handler and the exporters read slots of threads
// that have exited.
Slot* Claim() {
  std::lock_guard<std::mutex> lock(g_claim_mu);
  const uint32_t count = g_slot_count.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < count; ++i) {
    Slot* slot = g_slots[i].load(std::memory_order_relaxed);
    if (!slot->live.load(std::memory_order_acquire)) {
      slot->live.store(true, std::memory_order_relaxed);
      return slot;
    }
  }
  if (count == kMaxThreads) return nullptr;
  Slot* slot = new Slot();
  slot->id = count;
  slot->live.store(true, std::memory_order_relaxed);
  g_slots[count].store(slot, std::memory_order_release);
  g_slot_count.store(count + 1, std::memory_order_release);
  return slot;
}

// Holds the thread's slot for the thread's lifetime.
struct Lease {
  Lease() = default;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() {
    if (slot != nullptr) slot->live.store(false, std::memory_order_release);
  }
  Slot* slot = Claim();
};

}  // namespace

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const uint64_t now = static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
                       static_cast<uint64_t>(ts.tv_nsec);
  uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  if (epoch == 0 &&
      g_epoch_ns.compare_exchange_strong(epoch, now,
                                         std::memory_order_relaxed)) {
    epoch = now;
  }
  return now >= epoch ? now - epoch : 0;
}

Slot* LocalSlot() {
  thread_local Lease lease;
  return lease.slot;
}

}  // namespace internal

namespace {

using internal::Event;
using internal::ForEachSlot;
using internal::Slot;

std::atomic<bool> g_enabled{false};

// Per-thread buffer capacity (completed spans). 0 = unlimited.
std::atomic<size_t> g_max_events_per_thread{size_t{1} << 20};

// Spans dropped at full buffers or on slotless threads, across all threads
// since the last Reset().
std::atomic<size_t> g_dropped_events{0};

// Snapshot of every buffered event, sorted by (tid, start) so exports are
// stable for a fixed set of recorded spans.
std::vector<Event> SnapshotEvents() {
  std::vector<Event> events;
  ForEachSlot([&](Slot& slot) {
    std::lock_guard<std::mutex> lock(slot.mu);
    events.insert(events.end(), slot.events.begin(), slot.events.end());
  });
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;  // parent spans before their children
  });
  return events;
}

}  // namespace

void Enable() { g_enabled.store(true, std::memory_order_release); }

void Disable() { g_enabled.store(false, std::memory_order_release); }

bool Enabled() { return g_enabled.load(std::memory_order_acquire); }

void Reset() {
  ForEachSlot([](Slot& slot) {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.events.clear();  // keeps capacity: reset-per-run stays cheap
  });
  g_dropped_events.store(0, std::memory_order_relaxed);
}

size_t DroppedEvents() {
  return g_dropped_events.load(std::memory_order_relaxed);
}

void SetMaxEventsPerThread(size_t max_events) {
  g_max_events_per_thread.store(max_events, std::memory_order_relaxed);
}

std::vector<std::vector<const char*>> SnapshotOpenSpans() {
  std::vector<std::vector<const char*>> stacks;
  ForEachSlot([&](const Slot& slot) {
    if (!slot.live.load(std::memory_order_acquire)) return;
    const uint32_t depth = slot.VisibleDepth();
    std::vector<const char*> stack;
    stack.reserve(depth);
    for (uint32_t i = 0; i < depth; ++i) {
      const char* name = slot.stack[i].load(std::memory_order_relaxed);
      if (name == nullptr) break;  // racing a pop: keep the settled prefix
      stack.push_back(name);
    }
    stacks.push_back(std::move(stack));
  });
  return stacks;
}

size_t EventCount() {
  size_t count = 0;
  ForEachSlot([&](Slot& slot) {
    std::lock_guard<std::mutex> lock(slot.mu);
    count += slot.events.size();
  });
  return count;
}

std::vector<SpanStats> Summary() {
  const std::vector<Event> events = SnapshotEvents();
  std::map<std::string, SpanStats> by_name;  // map: sorted, deterministic
  for (const Event& e : events) {
    SpanStats& s = by_name[e.name];
    const double ms = e.dur_us / 1000.0;
    ++s.count;
    s.total_ms += ms;
    s.max_ms = std::max(s.max_ms, ms);
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, stats] : by_name) {
    stats.name = name;
    stats.mean_ms = stats.total_ms / static_cast<double>(stats.count);
    out.push_back(std::move(stats));
  }
  return out;
}

std::string SummaryString() {
  const std::vector<SpanStats> stats = Summary();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-36s %8s %12s %10s %10s\n", "span",
                "count", "total ms", "mean ms", "max ms");
  out += line;
  for (const SpanStats& s : stats) {
    std::snprintf(line, sizeof(line), "%-36s %8zu %12.3f %10.4f %10.4f\n",
                  s.name.c_str(), s.count, s.total_ms, s.mean_ms, s.max_ms);
    out += line;
  }
  if (stats.empty()) out += "(no spans recorded)\n";
  const size_t dropped = DroppedEvents();
  if (dropped > 0) {
    std::snprintf(line, sizeof(line),
                  "trace.dropped_events: %zu (per-thread buffer full)\n",
                  dropped);
    out += line;
  }
  return out;
}

std::string ChromeTraceJson() {
  const std::vector<Event> events = SnapshotEvents();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  {
    char meta[64];
    std::snprintf(meta, sizeof(meta), "\"trace.dropped_events\":%zu",
                  DroppedEvents());
    out += meta;
  }
  out += "},\"traceEvents\":[";
  char buf[128];
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    out += json::Escape(e.name);
    out += "\",\"cat\":\"multiclust\",\"ph\":\"X\",\"pid\":1,";
    std::snprintf(buf, sizeof(buf), "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                  e.tid, e.ts_us, e.dur_us);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  return WriteStringToFile(path, ChromeTraceJson());
}

Span::Span(const char* name) : name_(name), slot_(internal::LocalSlot()) {
  // The flight recorder sees every span even while the tracer is off —
  // it is the always-on black box, the tracer is the opt-in profiler.
  const bool recording = blackbox::Enabled();
  const bool timing = g_enabled.load(std::memory_order_relaxed);
  if (slot_ == nullptr) {
    if (recording || timing) {
      g_dropped_events.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  const uint32_t depth = slot_->Push(name);
  if (recording) {
    slot_->Append(blackbox::EventType::kSpanEnter, name, depth, 0);
  }
  if (!timing) return;
  timed_ = true;
  start_ns_ = internal::NowNs();
}

Span::~Span() {
  if (slot_ == nullptr) return;
  const uint64_t end_ns = timed_ ? internal::NowNs() : 0;
  const uint32_t depth = slot_->Pop();
  if (blackbox::Enabled()) {
    slot_->Append(blackbox::EventType::kSpanExit, name_, depth, 0);
  }
  if (!timed_) return;
  const size_t cap = g_max_events_per_thread.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(slot_->mu);
  if (cap != 0 && slot_->events.size() >= cap) {
    g_dropped_events.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot_->events.push_back({name_, static_cast<double>(start_ns_) / 1000.0,
                           static_cast<double>(end_ns - start_ns_) / 1000.0,
                           slot_->id});
}

}  // namespace trace
}  // namespace multiclust

#endif  // MULTICLUST_TRACING
