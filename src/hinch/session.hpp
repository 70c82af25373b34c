// Session-scoped runtime: many concurrent application instances on one
// shared pool fed by a central job queue.
//
// The original runtime was process-lifetime — one spec, one graph, one
// executor, exit — and every run owned its worker threads. A Session is
// the unit of tenancy that replaces that singleton shape: it owns a
// Program (and thus that program's streams and components), a Scheduler
// tracking its iteration window, its own metrics registry (the "live.*"
// gauges its components poll), and optionally a per-session
// TraceSession. The SessionExecutor runs any number of sessions at once
// on one pool whose workers take jobs from one FIFO queue, the paper's
// central job queue (§1); every job is tagged with its session (jobs
// carry a shared_ptr, so a Program can never die under an in-flight
// job), teardown cancels and drains exactly one session's jobs without
// stopping the pool, and admission is fair: at most
// `max_active_sessions` run concurrently (FIFO beyond the cap) while
// each session's iteration window — clamped to its stream depth — gives
// per-stream backpressure, so one heavy session cannot flood the queue
// and starve the others.
//
// The single-tenant path is the degenerate case: run_on_threads() now
// builds a one-session executor, so there is exactly one thread-backend
// code path (see thread_executor.cpp).
//
// Lifecycle (see docs/RUNTIME.md "Session lifecycle"):
//   submit -> [queued] -> running -> done        (all iterations retired)
//                            \-> cancelled       (cancel() / shutdown())
// Teardown ordering: cancel marks the session; workers drop its queued
// jobs (each drop retires one pending unit) and in-flight jobs finish
// their current component; when the pending count hits zero the session
// finalizes (result computed, waiters notified, admission slot freed,
// next queued session started). The Program is destroyed only when the
// last shared_ptr — possibly held by a worker mid-drop — releases.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hinch/scheduler.hpp"

namespace obs {
class MetricsRegistry;
class TraceSession;
}

namespace hinch {

class SessionExecutor;

enum class SessionStatus { kQueued, kRunning, kDone, kCancelled };

const char* session_status_name(SessionStatus s);

struct SessionConfig {
  RunConfig run;
  // Label used in diagnostics ("pip", "jpip-4k", ...); not required to
  // be unique — the numeric session id is.
  std::string name;
  // Per-session trace (caller-owned, must outlive the session). Worker
  // w emits into lane w of this session's recorders; timestamps are
  // wall nanoseconds since *this session's* start.
  obs::TraceSession* trace = nullptr;
  // Metrics destination (caller-owned, must outlive the session). Null:
  // the session owns a fresh registry (the multi-tenant default). The
  // executor publishes "live.iterations_done" once per retired
  // iteration; components may publish and poll their own gauges.
  obs::MetricsRegistry* metrics = nullptr;
  // Record a wall-clock timestamp (ns since session start) as each
  // iteration completes — the frame-latency probe perfbench and
  // SessionServer.CloseNeverStallsANeighbour read.
  bool record_frame_times = false;
};

struct SessionResult {
  SessionStatus status = SessionStatus::kDone;
  double wall_seconds = 0;  // session start -> last job retired
  SchedulerStats sched;
  uint64_t jobs = 0;  // jobs this session executed (not pool-wide)
  int64_t iterations_done = 0;
  // Per-iteration completion stamps (ns since session start), when
  // SessionConfig::record_frame_times was set. Iterations detected
  // complete in one batch share a stamp.
  std::vector<uint64_t> frame_done_ns;
};

// One tenant. Created by SessionExecutor::submit; all methods are
// thread-safe. Held by shared_ptr — the executor's jobs keep it (and
// the Program underneath) alive until the last one retires.
class Session {
 public:
  int id() const { return id_; }
  const std::string& name() const { return config_.name; }
  SessionStatus status() const;
  bool finished() const {
    SessionStatus s = status();
    return s == SessionStatus::kDone || s == SessionStatus::kCancelled;
  }

  Program& program() { return *prog_; }

  // The session's metrics surface: its own registry, or the caller's
  // when one was passed in the config. Components inside the session
  // see this through ExecContext::metrics(), so their "live.*" gauges
  // stay the tenant's without knowing about tenancy.
  obs::MetricsRegistry* metrics() { return metrics_; }

  // Block until done or cancelled; returns the final result. May be
  // called from any thread, repeatedly.
  SessionResult wait();

 private:
  friend class SessionExecutor;
  Session() = default;

  int id_ = -1;
  SessionConfig config_;
  Program* prog_ = nullptr;               // owned_ or caller-owned
  std::unique_ptr<Program> owned_prog_;
  std::unique_ptr<Scheduler> scheduler_;
  obs::MetricsRegistry* metrics_ = nullptr;  // owned_ or caller-owned
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;

  // --- execution state (owned by the executor's workers) ---
  std::atomic<int64_t> pending_{0};  // queued or running chain units
  std::atomic<bool> cancelled_{false};
  std::atomic<uint64_t> jobs_executed_{0};
  std::chrono::steady_clock::time_point t0_{};

  // Interned trace names (ids into config_.trace), set at start.
  std::vector<uint16_t> trace_task_names_;
  uint16_t trace_reconfig_name_ = 0;
  uint16_t trace_pending_name_ = 0;

  // Per-iteration probe: publishes live.iterations_done and, with
  // record_frame_times, stamps each completed iteration.
  std::mutex frame_mu_;
  std::vector<uint64_t> frame_done_ns_;
  std::atomic<int64_t> frames_noted_{0};

  // Status + result, guarded by mu_; cv_ signals finalization.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  SessionStatus status_ = SessionStatus::kQueued;
  SessionResult result_;
};

using SessionPtr = std::shared_ptr<Session>;

// A persistent thread pool executing any number of sessions from one
// central FIFO job queue. Workers are started in the constructor and
// joined in shutdown() (or the destructor); submitting, cancelling and
// waiting are all thread-safe.
class SessionExecutor {
 public:
  // Upper bound on a pool's worker count. Every tool that starts a pool
  // rejects a larger count as a usage error; the constructor checks it
  // before any thread starts.
  static constexpr int kMaxWorkers = 1024;

  struct Config {
    int workers = 1;  // 1..kMaxWorkers
    // Admission cap: sessions beyond this many queue FIFO (0 = no cap).
    // Adjustable at runtime via set_active_cap (hinchd's `cap` command).
    int max_active_sessions = 0;
  };

  // Pool-lifetime statistics (monotonic; survive individual sessions).
  struct PoolStats {
    uint64_t jobs = 0;
    // Jobs a worker popped that another worker had queued (the admission
    // wavefront is queued by no worker and never counts).
    uint64_t steals = 0;
    uint64_t idle_parks = 0;  // waits on the empty queue's condition variable
    std::vector<uint64_t> worker_jobs;
  };

  explicit SessionExecutor(const Config& config);
  ~SessionExecutor();

  SessionExecutor(const SessionExecutor&) = delete;
  SessionExecutor& operator=(const SessionExecutor&) = delete;

  // Admit a session for `prog`. The owning overload transfers the
  // program to the session; the borrowing overload requires `prog` to
  // outlive the session (single-tenant embedding). One Program must
  // back at most one live session at a time — streams and component
  // state are per-Program.
  SessionPtr submit(std::unique_ptr<Program> prog, const SessionConfig& cfg);
  SessionPtr submit(Program& prog, const SessionConfig& cfg);

  // Request teardown. Queued sessions finalize immediately; running
  // ones stop executing new jobs, drain, and finalize as kCancelled
  // (or kDone if the last iteration won the race). Returns without
  // blocking; use wait() to observe the drain completing.
  void cancel(const SessionPtr& session);

  // Dynamic admission control (hinchd's `cap` command drives this):
  // raising the cap starts queued sessions immediately.
  void set_active_cap(int cap);
  int active_cap() const;

  int workers() const { return static_cast<int>(slots_.size()); }
  int active_sessions() const;
  int queued_sessions() const;
  int peak_active_sessions() const;
  uint64_t sessions_completed() const;

  PoolStats pool_stats() const;

  // Cancel every session, drain, join the workers. Idempotent; the
  // destructor calls it.
  void shutdown();

 private:
  struct Job {
    SessionPtr session;
    JobRef ref;
    int released_by = -1;  // worker that queued it; -1: admission
  };
  struct Worker;

  void worker_loop(int id);
  // Appends `n` jobs of `s` to the central queue and wakes waiters.
  void push(const SessionPtr& s, const JobRef* refs, size_t n,
            int released_by);

  // The admission path shared by both submit overloads: `s` carries its
  // program; the session starts now or joins the FIFO queue.
  SessionPtr admit(SessionPtr s, const SessionConfig& cfg);
  // Moves queued sessions into the live set while below the cap and
  // returns them; the caller holds admission_mu_ and starts them after
  // releasing it.
  std::vector<SessionPtr> admit_queued();
  void start_session(const SessionPtr& s);
  void run_chain(int worker_id, Job job);
  // One pending unit of `s` retired (job executed or dropped); if it
  // was the last, finalize.
  void retire_unit(const SessionPtr& s);
  void finalize(const SessionPtr& s);
  void note_frames(Session& s);
  static uint64_t session_now_ns(const Session& s);

  std::vector<std::unique_ptr<Worker>> slots_;
  std::vector<std::thread> pool_;

  // Admission state.
  mutable std::mutex admission_mu_;
  int active_cap_ = 0;
  int active_ = 0;
  int peak_active_ = 0;
  uint64_t completed_ = 0;
  int next_id_ = 0;
  bool accepting_ = true;
  std::vector<SessionPtr> queue_;  // FIFO
  std::vector<SessionPtr> live_;   // running sessions (for shutdown)
  std::condition_variable drained_cv_;  // active_ == 0 && queue empty

  // The central job queue (docs/RUNTIME.md "Executor architecture").
  // The queue, the waiter count and the stop flag share one lock, so a
  // push always sees every worker that is about to wait.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;  // FIFO: push back, pop front
  int waiting_ = 0;       // workers waiting on jobs_cv_
  bool stop_ = false;     // set by shutdown() once every session drained
};

}  // namespace hinch
