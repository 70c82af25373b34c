// MetricsRegistry: one named-counter surface for every runtime
// observable the figure benches and tools read — scheduler stats,
// executor stats, cache/memory stats, per-region breakdowns, per-task
// profiles. Each producer keeps its own native struct (SchedulerStats,
// sim::MemStats, ...); collect_metrics overloads (hinch/runtime.hpp)
// flatten them into the registry under dotted names. Producers write
// with set(); readers take a snapshot() and read or dump that
// (deterministic text and JSON dumps; see docs/OBSERVABILITY.md).
//
// Live polling: both executors can publish in-run counters ("live.*"
// names) into a registry handed to them via SimParams::metrics /
// run_on_threads, and snapshot() returns a self-contained copy of the
// whole map under one lock acquisition — the low-overhead poll surface
// the policy components adapt on (docs/OBSERVABILITY.md, "Live polling
// & adaptation").
//
// Thread-safety: set() and snapshot() take the registry mutex, so a
// snapshot taken while another thread is still filling counters is
// tear-free (it may interleave between two set() calls, which is the
// documented snapshot semantics — same as Scheduler::stats()).
//
// Ownership: a registry is one run's or one session's namespace. Each
// hinch::Session owns one (or publishes into its caller's), so a
// tenant's gauges live and die with the tenant and a snapshot copies
// only that tenant's handful of entries.
//
// Type model: a metric is either an int64 counter or a double gauge,
// decided by the last set().
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace obs {

// One metric value as stored: an int64 counter or a double gauge.
struct MetricValue {
  bool is_double = false;
  int64_t i = 0;
  double d = 0;

  int64_t as_int() const { return is_double ? static_cast<int64_t>(d) : i; }
  double as_double() const { return is_double ? d : static_cast<double>(i); }
};

class MetricsRegistry {
 public:
  // Copyable point-in-time view of the whole registry, detached from
  // the producer: lookups take no lock and never block the run.
  class Snapshot {
   public:
    Snapshot() = default;

    int64_t get_int(const std::string& name) const;
    double get_double(const std::string& name) const;
    bool has(const std::string& name) const;
    size_t size() const { return values_.size(); }

    const std::map<std::string, MetricValue>& values() const {
      return values_;
    }

    // "name value\n" lines, sorted by name; doubles print with 6
    // significant digits (locale-independent, always '.').
    std::string to_text() const;
    // One flat JSON object, keys sorted.
    std::string to_json() const;

   private:
    friend class MetricsRegistry;
    std::map<std::string, MetricValue> values_;
  };

  void set(const std::string& name, int64_t value);
  void set(const std::string& name, double value);
  // Smaller integer types would otherwise be ambiguous between the
  // int64 and double overloads; they are counters, route accordingly.
  void set(const std::string& name, int value) {
    set(name, static_cast<int64_t>(value));
  }

  // Copy of every metric under a single lock acquisition — the one read
  // API (safe to call while executors are still publishing).
  Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, MetricValue> metrics_;
};

}  // namespace obs
