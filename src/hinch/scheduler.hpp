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
// Concurrency: one mutex guards all scheduler state. start(), complete(),
// stats() and the manager jobs of execute() take it; component jobs run
// their kernels outside it, so workers still execute in parallel. Under
// the single-threaded sim executor the ready-job sequence is fixed by
// program order alone.
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

  // Snapshot of the counters. Totals are schedule-independent: the
  // thread executor produces the same numbers as the sim executor.
  SchedulerStats stats() const;

  // The component a job runs, or nullptr for manager jobs.
  Component* job_component(const JobRef& job);

  Program& program() { return prog_; }
  const RunConfig& config() const { return config_; }

 private:
  enum : uint8_t { kUnborn, kWaiting, kReady, kDone };

  struct Instance {
    uint8_t state = kUnborn;
    int remaining = 0;  // unmet dependencies
  };

  struct ManagerRun {
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

  // Everything below runs with mu_ held.
  bool task_skipped(const Task& t) const;
  void admit_iteration(int64_t iter, std::vector<JobRef>* ready);
  // One dependency of (task, iter) met; fires it when none are left.
  void release(int task, int64_t iter, std::vector<JobRef>* ready);
  // Instance became runnable: emit a ready job, or (for skipped tasks)
  // finish it immediately and propagate.
  void fire(int task, int64_t iter, std::vector<JobRef>* ready);
  void finish(int task, int64_t iter, std::vector<JobRef>* ready);
  // All tasks of `iter` retired: advance the completed prefix and admit
  // the next iteration.
  void on_iteration_complete(int64_t iter, std::vector<JobRef>* ready);
  void poll_manager(int mgr_idx, ExecContext& ctx);

  Program& prog_;
  RunConfig config_;
  size_t ntasks_;

  mutable std::mutex mu_;  // guards every field below but iterations_done_
  std::vector<Instance> instances_;  // ring: window x ntasks
  std::vector<int> done_counts_;     // finished tasks per in-window iteration
  std::vector<char> option_active_;  // flipped only by splices
  std::vector<ManagerRun> manager_run_;
  int64_t admitted_ = 0;  // iterations [0, admitted_) are born
  SchedulerStats stats_;

  // Completed prefix. Written under mu_, read without it by finished(),
  // iterations_done() and the executors' live gauges.
  std::atomic<int64_t> iterations_done_{0};
};

}  // namespace hinch
