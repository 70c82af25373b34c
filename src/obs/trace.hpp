// Structured tracing for the Hinch runtime and the SpaceCAKE-substitute
// simulator (see docs/OBSERVABILITY.md).
//
// The model is deliberately small: a run is observed through per-lane
// ring-buffer recorders (a lane is one simulated core under the sim
// executor, one worker thread under the thread executor) into which the
// executors emit typed, fixed-size events —
//
//   span     a (task, iteration) job execution: start + duration
//   instant  a point marker (job admission, a steal, a reconfiguration)
//   counter  a sampled value on a named track (queue depth, cumulative
//            cache misses, per-stream in-flight slots)
//
// Timestamps live in the run's clock domain: *simulated cycles* for sim
// runs, *wall-clock nanoseconds* for thread-executor runs. The two are
// never mixed inside one session.
//
// Concurrency: each lane's recorder is single-producer (only the owning
// core/worker emits into it) and the ring write is a plain store plus a
// release on the head index, so tracing adds no locks to the executors'
// hot paths. Name interning takes a mutex but happens once per distinct
// name, at run setup. Collection (collect(), the exporter) must only
// run while the producers are quiescent — after the run returned.
//
// Cost when off: a run without an attached session never constructs a
// recorder and every emit site sits behind a nullptr test on a local.
// Building with -DHINCH_TRACING=OFF (which defines XSPCL_OBS_DISABLED)
// additionally turns the emit paths into constant-foldable no-ops so
// the instrumentation compiles out of the executors entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace obs {

#ifdef XSPCL_OBS_DISABLED
inline constexpr bool kTraceCompiledIn = false;
#else
inline constexpr bool kTraceCompiledIn = true;
#endif

// The time base of a session's timestamps.
enum class ClockDomain : uint8_t {
  kCycles,     // simulated cycles (deterministic sim runs)
  kWallNanos,  // steady-clock nanoseconds since run start (thread runs)
};

enum class EventKind : uint8_t { kSpan, kInstant, kCounter };

// Event category, exported as the Chrome trace "cat" field and used by
// the hinchtrace summarizer for grouping.
enum class Category : uint8_t { kTask, kSched, kReconfig, kCache, kStream };

const char* category_name(Category c);

// One fixed-size trace record. `name` is an id interned through the
// owning TraceSession; the meaning of value/arg depends on the kind:
//   span     value = iteration, arg = task id, dur = duration
//   instant  value = iteration (or payload), arg = task id (or -1)
//   counter  value = the sampled counter value, arg unused
struct TraceEvent {
  uint64_t ts = 0;
  uint64_t dur = 0;
  int64_t value = 0;
  int32_t arg = 0;
  uint16_t name = 0;
  EventKind kind = EventKind::kInstant;
  Category cat = Category::kTask;
};

// Single-producer ring recorder. Overflow wraps around, overwriting the
// oldest events (flight-recorder semantics); dropped() counts how many
// were lost. The capacity is rounded up to a power of two.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity);

  void emit(const TraceEvent& ev) {
    if constexpr (!kTraceCompiledIn) {
      (void)ev;
      return;
    }
    uint64_t h = head_.load(std::memory_order_relaxed);
    ring_[static_cast<size_t>(h) & mask_] = ev;
    head_.store(h + 1, std::memory_order_release);
  }

  void span(uint16_t name, Category cat, uint64_t ts, uint64_t dur,
            int64_t iter, int32_t task) {
    emit(TraceEvent{ts, dur, iter, task, name, EventKind::kSpan, cat});
  }
  void instant(uint16_t name, Category cat, uint64_t ts, int64_t value,
               int32_t arg) {
    emit(TraceEvent{ts, 0, value, arg, name, EventKind::kInstant, cat});
  }
  void counter(uint16_t name, Category cat, uint64_t ts, int64_t value) {
    emit(TraceEvent{ts, 0, value, 0, name, EventKind::kCounter, cat});
  }

  size_t capacity() const { return ring_.size(); }
  // Total events ever emitted (tear-free snapshot; safe mid-run).
  uint64_t emitted() const { return head_.load(std::memory_order_acquire); }
  // Events lost to ring wraparound.
  uint64_t dropped() const {
    uint64_t n = emitted();
    return n > ring_.size() ? n - ring_.size() : 0;
  }

  // Retained events, oldest first. Producer must be quiescent.
  std::vector<TraceEvent> collect() const;

 private:
  std::vector<TraceEvent> ring_;
  size_t mask_ = 0;
  std::atomic<uint64_t> head_{0};
};

// A tracing session covering one (or several consecutive) runs. The
// caller owns it and hands a pointer to the executor (SimParams::trace /
// run_on_threads); the executor calls begin_run() with its lane count
// and clock domain, emits through the per-lane recorders, and the
// caller exports afterwards (obs/chrome_export.hpp).
class TraceSession {
 public:
  // `ring_capacity` is per lane, in events (rounded up to a power of 2).
  explicit TraceSession(size_t ring_capacity = size_t{1} << 16);

  // Reset the recorders for a new run. Interned names are kept (ids are
  // stable across runs of the same program).
  void begin_run(int lanes, ClockDomain clock);

  int lanes() const { return static_cast<int>(recorders_.size()); }
  ClockDomain clock() const { return clock_; }
  TraceRecorder* recorder(int lane) {
    return recorders_[static_cast<size_t>(lane)].get();
  }
  const TraceRecorder* recorder(int lane) const {
    return recorders_[static_cast<size_t>(lane)].get();
  }

  // Intern `name`, returning its stable id. Thread-safe; interning the
  // same string twice returns the same id.
  uint16_t intern(const std::string& name);
  // Snapshot of the interned names, indexed by id (quiescent use).
  std::vector<std::string> names() const;

  // Sum of dropped() over all lanes.
  uint64_t dropped() const;
  // Sum of emitted() over all lanes.
  uint64_t emitted() const;

 private:
  size_t ring_capacity_;
  ClockDomain clock_ = ClockDomain::kCycles;
  std::vector<std::unique_ptr<TraceRecorder>> recorders_;
  mutable std::mutex names_mutex_;
  std::vector<std::string> names_;
};

}  // namespace obs
