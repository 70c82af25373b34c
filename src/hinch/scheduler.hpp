// The Hinch data-flow scheduler (executor-agnostic half).
//
// The application is run as a series of iterations of the task graph
// (§2). This class tracks, for a bounded window of in-flight iterations
// (pipeline parallelism, §3.3), which (task, iteration) instances are
// ready, and implements the reconfiguration-manager protocol of §3.4:
// managers poll their event queue when invoked (at subgraph entry and
// exit), pre-create components for options being enabled as soon as the
// event is detected, quiesce the subgraph (wait for earlier iterations to
// drain), and splice the new configuration between iterations.
//
// Executors (sim / threads) drive it through three calls:
//   start()            -> initial ready jobs
//   execute(job, ctx)  -> run the job's side effects, collecting charges
//   complete(job)      -> newly-ready jobs
//
// Concurrency: execute() and complete() may be called concurrently from
// many worker threads (the work-stealing thread executor does exactly
// that). The hot path — dependency release in complete()/finish() — is
// lock-free: per-instance atomic `remaining` counters released with
// fetch-sub, a CAS on the instance state to make the fire decision
// unique, and a per-(task, slot) rendezvous cell for the cross-iteration
// self-dependency edge (admission and the previous iteration's finish
// race for it; exactly one side releases the edge). Only two locks
// remain, both cold:
//   - admit_mutex_ serializes iteration admission (once per iteration);
//     it is recursive because an admission can cascade through skipped
//     tasks and complete further iterations inline.
//   - ManagerRun::mutex guards each manager's reconfiguration state
//     (pending flips, quiesce bookkeeping, poll-side counters).
// Locking rules (see docs/RUNTIME.md "Executor architecture"): never
// call finish() while holding a ManagerRun mutex; admit_mutex_ may be
// held while taking a ManagerRun mutex, never the reverse.
//
// Under the single-threaded sim executor every atomic degenerates to a
// plain access in program order, so the ready-job sequence — and with it
// every simulated cycle count — is bit-for-bit the pre-lock-free one.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "hinch/program.hpp"

namespace hinch {

struct JobRef {
  int task = -1;
  int64_t iter = -1;
  // 0 = normal execution; 1 = reconfiguration splice of a manager-enter.
  int phase = 0;

  bool operator==(const JobRef&) const = default;
};

struct RunConfig {
  int64_t iterations = 1;
  // Max concurrently active iterations; clamped to the program's stream
  // depth (slot reuse would otherwise corrupt in-flight data).
  int window = 5;
};

struct SchedulerStats {
  uint64_t jobs_executed = 0;
  uint64_t jobs_skipped = 0;       // option-disabled instances
  uint64_t reconfigurations = 0;   // splices performed
  uint64_t events_handled = 0;
  uint64_t components_created = 0; // pre-creations for enabled options
};

class Scheduler {
 public:
  Scheduler(Program& prog, const RunConfig& config);

  // Ready jobs at time zero.
  std::vector<JobRef> start();

  // Run the job's side effects (component run / manager poll / splice).
  // `ctx` must be constructed for this job (see make_context).
  void execute(const JobRef& job, ExecContext& ctx);

  // Mark the job complete; returns jobs that became ready. Thread-safe.
  std::vector<JobRef> complete(const JobRef& job);

  bool finished() const {
    return iterations_done_.load(std::memory_order_acquire) ==
           config_.iterations;
  }
  int64_t iterations_done() const {
    return iterations_done_.load(std::memory_order_acquire);
  }

  // Snapshot of the (atomic) counters. Totals are schedule-independent:
  // the thread executor produces the same numbers as the sim executor.
  SchedulerStats stats() const;

  // The component a job runs, or nullptr for manager jobs.
  Component* job_component(const JobRef& job);

  Program& program() { return prog_; }
  const RunConfig& config() const { return config_; }

 private:
  enum : uint8_t { kUnborn, kWaiting, kReady, kDone };

  // One task instance per ring slot, padded to a cache line: neighbouring
  // tasks are usually being retired by different workers, and the
  // per-instance counters (and the self-dependency rendezvous cell,
  // which lives here for the same reason) are the hottest atomics in the
  // system.
  struct alignas(64) Instance {
    std::atomic<uint8_t> state{kUnborn};
    std::atomic<int> remaining{0};
    std::atomic<int64_t> self_cell{-1};
  };

  struct alignas(64) DoneCount {
    std::atomic<int64_t> count{0};
  };

  // The per-job counters (executed/skipped) are sharded so workers do
  // not serialize on one cache line; the per-reconfiguration counters
  // are cold and stay single. stats() sums the shards — totals are
  // exact, and under the single-threaded sim executor everything lands
  // in one shard in program order.
  struct alignas(64) StatShard {
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> skipped{0};
  };
  static constexpr unsigned kStatShards = 16;
  static unsigned stat_shard_index();

  struct AtomicStats {
    std::atomic<uint64_t> reconfigurations{0};
    std::atomic<uint64_t> events_handled{0};
    std::atomic<uint64_t> components_created{0};
  };

  struct ManagerRun {
    // Guards ALL mutable fields below. Taken by poll_manager (enter and
    // exit jobs of different iterations may poll concurrently), by
    // complete() for the quiesce/splice decision, and by finish() when a
    // manager exit retires. Never held across finish()/fire() cascades.
    std::mutex mutex;
    // (option index, desired state) flips awaiting the next splice.
    std::vector<std::pair<int, bool>> pending_flips;
    int64_t waiting_iter = -1;  // enter iteration blocked on quiesce
    int64_t last_exit_done = -1;
    // Poll-side counters, folded into the scheduler stats when a splice
    // applies or an enter completes with nothing pending.
    uint64_t events_handled = 0;
    uint64_t components_created = 0;
  };

  size_t slot(int task, int64_t iter) const {
    return static_cast<size_t>(iter % config_.window) * ntasks_ +
           static_cast<size_t>(task);
  }
  Instance& inst(int task, int64_t iter) {
    return instances_[slot(task, iter)];
  }

  // Self-dependency rendezvous tokens. The edge (t, k-1) -> (t, k) is
  // released by whichever of {admit_iteration(k), finish(t, k-1)} runs
  // second; the two sides agree via an atomic exchange on the cell of
  // (t, k mod window). Token values are unique per edge, so a stale
  // token from the slot's previous tenant (iteration k - window) can
  // never be mistaken for the current edge's counterpart.
  static int64_t admit_token(int64_t iter) { return 2 * iter; }
  static int64_t finish_token(int64_t iter) { return 2 * iter - 1; }
  std::atomic<int64_t>& self_cell(int task, int64_t iter) {
    return inst(task, iter).self_cell;
  }

  bool task_skipped(const Task& t) const;
  void admit_iteration(int64_t iter, std::vector<JobRef>* ready);
  // Instance became runnable: claim it (CAS, unique across racing
  // releasers) and either emit a ready job or (for skipped tasks) finish
  // it immediately and propagate.
  void fire(int task, int64_t iter, std::vector<JobRef>* ready);
  void finish(int task, int64_t iter, std::vector<JobRef>* ready);
  // All tasks of `iter` retired: advance the completed prefix and admit
  // successor iterations. Completion *detections* are ordered by a
  // happens-before chain, but detecting threads may reach the admission
  // lock out of order, hence the small reorder ring.
  void on_iteration_complete(int64_t iter, std::vector<JobRef>* ready);
  void poll_manager(int mgr_idx, ExecContext& ctx);

  Program& prog_;
  RunConfig config_;
  size_t ntasks_;
  std::vector<Instance> instances_;    // ring: window x ntasks
  std::vector<DoneCount> done_counts_; // per in-window iteration
  // Option on/off state. Flipped only under the owning ManagerRun's
  // mutex while its subgraph is quiesced; read lock-free on the fire
  // path (the dependency-release chain orders the reads after the flip).
  std::vector<std::atomic<char>> option_active_;
  std::vector<ManagerRun> manager_run_;

  // Admission state, guarded by admit_mutex_ (recursive: admitting an
  // iteration of fully-skipped tasks completes it inline, which admits
  // the next one).
  std::recursive_mutex admit_mutex_;
  int64_t admitted_ = 0;            // iterations [0, admitted_) are born
  std::vector<char> complete_ring_; // out-of-order completion buffer

  std::atomic<int64_t> iterations_done_{0};  // completed prefix
  std::vector<StatShard> stat_shards_;
  AtomicStats stats_;
};

}  // namespace hinch
