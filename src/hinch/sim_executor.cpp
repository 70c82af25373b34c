#include "hinch/sim_executor.hpp"

#include <algorithm>
#include <deque>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hinch {
namespace {

// Central job queue operation costs (§4.2), zeroed together with
// SimParams::queue_lock_cycles when sync_costs is false.
constexpr sim::Cycles kDequeueCycles = 80;
constexpr sim::Cycles kEnqueueCycles = 80;

// Trace key for a (task, iteration) job. Manager-less programs only use
// phase 0, so the phase needs no bits.
uint64_t trace_key(const JobRef& job) {
  SUP_DCHECK(job.phase == 0);
  SUP_DCHECK(job.iter >= 0 && job.iter < (int64_t{1} << 40));
  return (static_cast<uint64_t>(static_cast<uint32_t>(job.task)) << 40) |
         static_cast<uint64_t>(job.iter);
}

// The three things that happen on the simulated tile: a dispatched job
// starts on its core once the queue lock is released, it ends after its
// cost, and the core goes idle after enqueueing the job's successors.
enum class EventKind : uint8_t { kStart, kEnd, kIdle };

struct Event {
  sim::Cycles time;
  uint64_t seq;  // unique: events at equal times fire in schedule order
  JobRef job;    // unused by kIdle
  int core;
  EventKind kind;
};

// Heap order for std::push_heap/pop_heap, which keep the greatest
// element on top: the greatest here is the earliest (time, seq).
bool later(const Event& a, const Event& b) {
  return a.time != b.time ? a.time > b.time : a.seq > b.seq;
}

// A lazily registered memory region. A (stream, slot) pair keeps one
// region across slot reuse, modelling the runtime's frame pool; a larger
// access releases it and registers a bigger one.
struct Region {
  sim::RegionId id = 0;  // 0: not registered (MemorySystem never uses 0)
  uint64_t bytes = 0;
};

class SimRun {
 public:
  SimRun(Program& prog, const RunConfig& config, const SimParams& params)
      : prog_(prog),
        scheduler_(prog, config),
        params_(params),
        depth_(prog.stream_depth()) {
    SUP_CHECK(params.cores >= 1);
    SUP_CHECK(depth_ >= 1);
    SUP_CHECK_MSG(params.record_trace == nullptr ||
                      params.replay_trace == nullptr,
                  "at most one of record_trace/replay_trace may be set");
    SUP_CHECK_MSG((params.record_trace == nullptr &&
                   params.replay_trace == nullptr) ||
                      prog.managers().empty(),
                  "charge tracing requires a program without "
                  "reconfiguration managers");
    // One tile holds at most kMaxCores; a larger request (a caller that
    // sizes the machine from the host's CPU count) simulates a full tile.
    const int cores = std::min(params.cores, sim::kMaxCores);
    params_.cores = cores;
    mem_ = std::make_unique<sim::MemorySystem>(params_.cache, cores);
    stream_regions_.resize(prog.streams().size() *
                           static_cast<size_t>(depth_));
    scratch_regions_.resize(prog.tasks().size());
    core_busy_.assign(static_cast<size_t>(cores), 0);
    core_idle_.assign(static_cast<size_t>(cores), true);
    task_cycles_.assign(prog.tasks().size(), 0);
    task_runs_.assign(prog.tasks().size(), 0);
    if (!params_.sync_costs) {
      params_.queue_lock_cycles = 0;
      dequeue_cycles_ = 0;
      enqueue_cycles_ = 0;
    }
    if (obs::kTraceCompiledIn && params.trace != nullptr) {
      trace_ = params.trace;
      trace_->begin_run(cores, obs::ClockDomain::kCycles);
      task_names_.reserve(prog.tasks().size());
      for (const Task& t : prog.tasks()) {
        std::string label =
            t.label.empty() ? "task" + std::to_string(t.id) : t.label;
        task_names_.push_back(trace_->intern(label));
      }
      stream_names_.reserve(prog.streams().size());
      for (const auto& s : prog.streams())
        stream_names_.push_back(trace_->intern("stream " + s->name()));
      admit_name_ = trace_->intern("admit");
      reconfig_name_ = trace_->intern("reconfiguration");
      queue_depth_name_ = trace_->intern("queue depth");
      l1_miss_name_ = trace_->intern("cache L1 misses");
      mem_fetch_name_ = trace_->intern("cache mem fetches");
    }
    if (params.metrics != nullptr) {
      metrics_ = params.metrics;
      // Pre-build the dotted names once so in-run publication is a map
      // lookup plus an uncontended mutex, not per-job string assembly.
      live_stream_keys_.reserve(prog.streams().size());
      for (const auto& s : prog.streams())
        live_stream_keys_.push_back("live.stream." + s->name() +
                                    ".occupancy");
    }
  }

  SimResult run() {
    for (const JobRef& job : scheduler_.start()) queue_.push_back(job);
    dispatch();
    while (!events_.empty()) {
      std::pop_heap(events_.begin(), events_.end(), later);
      const Event ev = events_.back();
      events_.pop_back();
      now_ = ev.time;
      switch (ev.kind) {
        case EventKind::kStart:
          start_job(ev.job, ev.core);
          break;
        case EventKind::kEnd:
          end_job(ev.job, ev.core);
          break;
        case EventKind::kIdle:
          core_idle_[static_cast<size_t>(ev.core)] = true;
          dispatch();
          break;
      }
    }
    SUP_CHECK_MSG(scheduler_.finished(),
                  "simulation drained with unfinished iterations");
    SimResult result;
    result.total_cycles = now_;
    result.mem = mem_->stats();
    result.sched = scheduler_.stats();
    result.core_busy = core_busy_;
    result.queue_wait_cycles = queue_wait_;
    result.jobs = jobs_;
    result.task_cycles = task_cycles_;
    result.task_runs = task_runs_;
    result.regions = mem_->region_stats();
    return result;
  }

 private:
  void schedule(sim::Cycles time, EventKind kind, JobRef job, int core) {
    SUP_DCHECK(time >= now_);
    events_.push_back(Event{time, next_seq_++, job, core, kind});
    std::push_heap(events_.begin(), events_.end(), later);
  }

  // Assign queued jobs to idle cores: FIFO jobs, each to the lowest
  // idle core id (any idle core takes the next job, §1).
  void dispatch() {
    while (!queue_.empty()) {
      auto idle = std::find(core_idle_.begin(), core_idle_.end(), true);
      if (idle == core_idle_.end()) return;
      *idle = false;
      const int core = static_cast<int>(idle - core_idle_.begin());
      JobRef job = queue_.front();
      queue_.pop_front();

      // Take the central queue's lock (a serial resource).
      sim::Cycles acquire = std::max(now_, queue_free_at_);
      queue_wait_ += acquire - now_;
      queue_free_at_ =
          acquire + params_.queue_lock_cycles + dequeue_cycles_;
      schedule(queue_free_at_, EventKind::kStart, job, core);
    }
  }

  void start_job(JobRef job, int core) {
    const ExecContext::Charges* charged = &job_charges_;
    if (params_.replay_trace != nullptr) {
      auto it = params_.replay_trace->jobs.find(trace_key(job));
      SUP_CHECK_MSG(it != params_.replay_trace->jobs.end(),
                    "charge-trace replay: no record for this job (trace "
                    "from a different program or RunConfig?)");
      charged = &it->second;
    } else {
      // Clearing keeps the vectors' capacity for the next job.
      job_charges_.compute_cycles = 0;
      job_charges_.scratch.clear();
      job_charges_.touches.clear();
      ExecContext ctx(scheduler_.job_component(job), job.iter, core,
                      &prog_.queues(), metrics_, &job_charges_);
      scheduler_.execute(job, ctx);
      if (params_.record_trace != nullptr)
        params_.record_trace->jobs.emplace(trace_key(job), job_charges_);
    }
    ++jobs_;

    const ExecContext::Charges& charges = *charged;
    sim::Cycles cost = charges.compute_cycles;
    for (const ExecContext::Touch& t : charges.touches) {
      sim::RegionId region =
          stream_region(t.stream_index, job.iter, t.offset + t.len);
      cost += mem_->access(core, region, t.offset, t.len, t.write);
    }
    if (!charges.scratch.empty()) {
      uint64_t scratch_bytes = 0;
      for (const ExecContext::ScratchTouch& s : charges.scratch)
        scratch_bytes = std::max(scratch_bytes, s.bytes);
      sim::RegionId region = scratch_region(job.task, scratch_bytes);
      for (const ExecContext::ScratchTouch& s : charges.scratch)
        cost += mem_->access(core, region, 0, s.bytes, s.write);
    }
    core_busy_[static_cast<size_t>(core)] += cost;
    task_cycles_[static_cast<size_t>(job.task)] += cost;
    ++task_runs_[static_cast<size_t>(job.task)];
    if (trace_ != nullptr) {
      obs::TraceRecorder* rec = trace_->recorder(core);
      rec->span(task_names_[static_cast<size_t>(job.task)],
                obs::Category::kTask, now_, cost, job.iter, job.task);
      // phase 1 = a reconfiguration splice executing on this core: the
      // explicit marker fig10's trace validation looks for.
      if (job.phase == 1)
        rec->instant(reconfig_name_, obs::Category::kReconfig, now_, job.iter,
                     job.task);
      const sim::MemStats ms = mem_->stats();
      rec->counter(l1_miss_name_, obs::Category::kCache, now_,
                   static_cast<int64_t>(ms.accesses - ms.l1_hits));
      rec->counter(mem_fetch_name_, obs::Category::kCache, now_,
                   static_cast<int64_t>(ms.mem_fetches));
      // Per-stream occupancy: slots of this stream holding data of
      // iterations admitted but not yet retired.
      int64_t inflight = job.iter + 1 - scheduler_.iterations_done();
      for (const ExecContext::Touch& t : charges.touches) {
        if (!t.write) continue;
        rec->counter(stream_names_[static_cast<size_t>(t.stream_index)],
                     obs::Category::kStream, now_, inflight);
      }
    }
    if (metrics_ != nullptr) {
      int64_t inflight = job.iter + 1 - scheduler_.iterations_done();
      for (const ExecContext::Touch& t : charges.touches) {
        if (!t.write) continue;
        metrics_->set(live_stream_keys_[static_cast<size_t>(t.stream_index)],
                      inflight);
      }
    }
    schedule(now_ + cost, EventKind::kEnd, job, core);
  }

  void end_job(JobRef job, int core) {
    std::vector<JobRef> newly = scheduler_.complete(job);
    for (const JobRef& j : newly) queue_.push_back(j);
    if (trace_ != nullptr) {
      obs::TraceRecorder* rec = trace_->recorder(core);
      for (const JobRef& j : newly)
        rec->instant(admit_name_, obs::Category::kSched, now_, j.iter,
                     j.task);
      rec->counter(queue_depth_name_, obs::Category::kSched, now_,
                   static_cast<int64_t>(queue_.size()));
    }
    if (metrics_ != nullptr) publish_live();
    // The completing core enqueues its successors before going idle.
    sim::Cycles enqueue_cost =
        enqueue_cycles_ * static_cast<sim::Cycles>(newly.size());
    core_busy_[static_cast<size_t>(core)] += enqueue_cost;
    schedule(now_ + enqueue_cost, EventKind::kIdle, job, core);
    // Jobs may be dispatchable on other idle cores right away.
    dispatch();
  }

  // The region of the ring slot that holds `iter` of stream
  // `stream_index`.
  sim::RegionId stream_region(int stream_index, int64_t iter,
                              uint64_t min_bytes) {
    SUP_CHECK(stream_index >= 0 && iter >= 0);
    const size_t slot = static_cast<size_t>(iter % depth_);
    const size_t i =
        static_cast<size_t>(stream_index) * static_cast<size_t>(depth_) + slot;
    SUP_CHECK(i < stream_regions_.size());
    // The label is only built on a miss (first touch or a size upgrade),
    // so the per-access path stays allocation-free.
    return region(stream_regions_[i], min_bytes, [&] {
      return "stream:" + std::to_string(stream_index) + ":slot" +
             std::to_string(slot);
    });
  }

  sim::RegionId scratch_region(int task, uint64_t min_bytes) {
    SUP_CHECK(task >= 0 &&
              static_cast<size_t>(task) < scratch_regions_.size());
    return region(scratch_regions_[static_cast<size_t>(task)], min_bytes,
                  [&] { return "scratch:task" + std::to_string(task); });
  }

  template <typename LabelFn>
  sim::RegionId region(Region& r, uint64_t min_bytes, LabelFn&& label) {
    if (r.id != 0) {
      if (r.bytes >= min_bytes) return r.id;
      mem_->release_region(r.id);
    }
    r = Region{mem_->register_region(min_bytes, label()), min_bytes};
    return r.id;
  }

  // Refresh the "live.*" gauges after a job retires. Pure observation:
  // publication touches only the registry, never the cost model, so
  // cycle counts are identical with and without a registry attached.
  void publish_live() {
    metrics_->set("live.cycles", static_cast<int64_t>(now_));
    metrics_->set("live.jobs", static_cast<int64_t>(jobs_));
    metrics_->set("live.queue_depth", static_cast<int64_t>(queue_.size()));
    int64_t iters = scheduler_.iterations_done();
    metrics_->set("live.iterations_done", iters);
    if (iters > live_last_iters_) {
      // Throughput over the iterations retired since the last boundary —
      // the signal the policy component watches for load steps.
      double per_iter =
          static_cast<double>(now_ - live_last_boundary_) /
          static_cast<double>(iters - live_last_iters_);
      metrics_->set("live.cycles_per_iter", per_iter);
      live_last_iters_ = iters;
      live_last_boundary_ = now_;
    }
    const sim::MemStats ms = mem_->stats();
    metrics_->set("live.mem_fetches", static_cast<int64_t>(ms.mem_fetches));
    if (ms.accesses > 0) {
      metrics_->set("live.l1_miss_rate",
                    static_cast<double>(ms.accesses - ms.l1_hits) /
                        static_cast<double>(ms.accesses));
    }
  }

  Program& prog_;
  Scheduler scheduler_;
  SimParams params_;
  sim::Cycles dequeue_cycles_ = kDequeueCycles;
  sim::Cycles enqueue_cycles_ = kEnqueueCycles;
  std::vector<Event> events_;  // min-heap on (time, seq), see later()
  uint64_t next_seq_ = 0;
  sim::Cycles now_ = 0;
  std::unique_ptr<sim::MemorySystem> mem_;
  const int depth_;
  std::vector<Region> stream_regions_;   // [stream * depth + slot]
  std::vector<Region> scratch_regions_;  // [task]
  ExecContext::Charges job_charges_;     // the executing job's record

  std::deque<JobRef> queue_;
  std::vector<bool> core_idle_;
  std::vector<sim::Cycles> core_busy_;
  sim::Cycles queue_free_at_ = 0;
  sim::Cycles queue_wait_ = 0;
  uint64_t jobs_ = 0;
  std::vector<sim::Cycles> task_cycles_;
  std::vector<uint64_t> task_runs_;

  obs::MetricsRegistry* metrics_ = nullptr;  // nullptr: no live publication
  std::vector<std::string> live_stream_keys_;
  int64_t live_last_iters_ = 0;
  sim::Cycles live_last_boundary_ = 0;

  obs::TraceSession* trace_ = nullptr;  // nullptr when tracing is off
  std::vector<uint16_t> task_names_;
  std::vector<uint16_t> stream_names_;
  uint16_t admit_name_ = 0;
  uint16_t reconfig_name_ = 0;
  uint16_t queue_depth_name_ = 0;
  uint16_t l1_miss_name_ = 0;
  uint16_t mem_fetch_name_ = 0;
};

}  // namespace

SimResult run_on_sim(Program& prog, const RunConfig& config,
                     const SimParams& params) {
  SimRun run(prog, config, params);
  return run.run();
}

}  // namespace hinch
