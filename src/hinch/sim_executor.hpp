// Executes a Program on the SpaceCAKE-substitute simulator: N cores pull
// jobs from a central job queue (Hinch's automatic load balancing, §1)
// in virtual time; job costs are the kernels' charged compute cycles plus
// memory-hierarchy stalls from the cache model; the queue's lock is a
// serial resource, so queue contention grows with core count. The next
// job always goes to the lowest-numbered idle core. The machine is one
// SpaceCAKE tile of SimParams.cores, at most sim::kMaxCores (63),
// homogeneous cores sharing one L2 (sim/cache.hpp), the machine of the
// paper's §4.
// Tiles, core classes and an interconnect were modelled once and
// deleted, since no figure ran them; git history holds that version.
//
// The run is one loop over a heap of three kinds of event (a job
// starts, a job ends, a core goes idle), ordered by (time, seq). Stream
// slots and task scratch spaces map to cache-model regions through
// arrays indexed by stream * depth + slot and by task id.
//
// Everything is deterministic: same program + config => identical cycle
// counts, which the paper-figure benches and the tests rely on.
#pragma once

#include <unordered_map>

#include "hinch/scheduler.hpp"
#include "sim/cache.hpp"

namespace obs {
class MetricsRegistry;
class TraceSession;
}

namespace hinch {

// Per-job simulated-cost charges of one run, keyed by (task, iteration).
// A recording run fills it while executing normally; a replaying run
// skips component execution and feeds the recorded charges straight into
// the cost model, producing identical cycle/memory/queue results while
// spending host time only on the simulator itself (scheduler, cache
// model, event loop) — the fast path for parameter sweeps and for
// perfbench's jpip_sim replay leg. Replay requires the same program
// structure and RunConfig as the recording, and is restricted to
// programs without reconfiguration managers (manager polls have
// scheduling side effects that cannot be skipped). In a replayed result
// SchedulerStats reflects the jobs the scheduler actually executed
// (i.e. stays zero); all cycle-derived fields match the recording.
struct ChargeTrace {
  std::unordered_map<uint64_t, ExecContext::Charges> jobs;
};

struct SimParams {
  // At least 1. Above sim::kMaxCores the run simulates a full tile of
  // kMaxCores cores; SimResult::core_busy.size() is the count simulated.
  int cores = 1;
  // Cache sizes and latencies.
  sim::CacheConfig cache;
  // Central job queue lock cost; the dequeue and enqueue costs are
  // constants of the executor (§4.2: parallel runs at 1 node disable all
  // synchronization operations — set sync_costs=false to zero all three).
  sim::Cycles queue_lock_cycles = 60;
  bool sync_costs = true;
  // Charge-trace capture/replay (see ChargeTrace). At most one may be
  // set; both must outlive the run.
  ChargeTrace* record_trace = nullptr;
  const ChargeTrace* replay_trace = nullptr;
  // Optional cycle-accurate event tracing (obs/trace.hpp): per-core task
  // spans, admit/reconfig markers, queue/cache/stream counters, all
  // stamped in simulated cycles. Emission never alters the simulation;
  // cycle counts are identical with or without a session attached.
  obs::TraceSession* trace = nullptr;
  // Optional live metrics publication (obs/metrics.hpp): the executor
  // refreshes "live.*" gauges (queue depth, cycles per iteration, L1
  // miss rate, per-stream occupancy, ...) as jobs retire, without
  // stopping the run. Policy components poll these through
  // ExecContext::metrics() to drive reconfiguration; publication is
  // pure observation and never alters cycle counts.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SimResult {
  sim::Cycles total_cycles = 0;
  sim::MemStats mem;
  SchedulerStats sched;
  std::vector<sim::Cycles> core_busy;  // per-core execution cycles
  sim::Cycles queue_wait_cycles = 0;   // time cores spent on the queue lock
  uint64_t jobs = 0;
  // Per-task profile (indexed by task id): total charged cycles and
  // execution count — input for the perf prediction module.
  std::vector<sim::Cycles> task_cycles;
  std::vector<uint64_t> task_runs;
  // Per-region memory statistics (streams and scratch), for the unified
  // metrics dump (obs::MetricsRegistry via collect_metrics).
  std::vector<sim::RegionStats> regions;

  double utilization() const {
    if (total_cycles == 0 || core_busy.empty()) return 0.0;
    sim::Cycles busy = 0;
    for (sim::Cycles c : core_busy) busy += c;
    return static_cast<double>(busy) /
           (static_cast<double>(total_cycles) *
            static_cast<double>(core_busy.size()));
  }
};

// Run to completion (all iterations of `config`). Aborts on deadlock
// (events drained but iterations remain), which cannot happen for valid
// SP programs (§3.1's no-deadlock guarantee).
SimResult run_on_sim(Program& prog, const RunConfig& config,
                     const SimParams& params);

}  // namespace hinch
