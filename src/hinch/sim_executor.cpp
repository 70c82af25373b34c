#include "hinch/sim_executor.hpp"

#include <algorithm>
#include <deque>

#include "hinch/region_table.hpp"
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

class SimRun {
 public:
  SimRun(Program& prog, const RunConfig& config, const SimParams& params)
      : prog_(prog),
        scheduler_(prog, config),
        params_(params),
        regions_(nullptr, prog.stream_depth()) {
    SUP_CHECK(params.cores >= 1);
    SUP_CHECK_MSG(params.record_trace == nullptr ||
                      params.replay_trace == nullptr,
                  "at most one of record_trace/replay_trace may be set");
    SUP_CHECK_MSG((params.record_trace == nullptr &&
                   params.replay_trace == nullptr) ||
                      prog.managers().empty(),
                  "charge tracing requires a program without "
                  "reconfiguration managers");
    // One machine description from here on: an unset platform is a
    // single tile of `cores` baseline cores.
    sim::PlatformConfig& platform = params_.platform;
    if (platform.empty()) {
      platform = sim::PlatformConfig::homogeneous(1, params.cores);
    } else {
      SUP_CHECK_MSG(params.cores == 1 ||
                        params.cores == platform.total_cores(),
                    "SimParams.cores conflicts with the platform's total "
                    "core count (leave cores at 1 when a platform is set)");
    }
    mem_ = std::make_unique<sim::MemorySystem>(params_.cache, platform);
    const int cores = platform.total_cores();
    num_tiles_ = platform.tile_count();
    tile_of_core_ = platform.tile_map();
    multipliers_ = platform.core_multipliers();
    for (double m : multipliers_)
      if (m != 1.0) hetero_ = true;
    regions_ = RegionTable(mem_.get(), prog.stream_depth());
    core_busy_.assign(static_cast<size_t>(cores), 0);
    core_jobs_.assign(static_cast<size_t>(cores), 0);
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
      if (num_tiles_ > 1) {
        for (int c = 0; c < cores; ++c)
          trace_->set_lane_name(
              c, "tile" +
                     std::to_string(tile_of_core_[static_cast<size_t>(c)]) +
                     ".core" + std::to_string(c));
      }
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
    engine_.run();
    SUP_CHECK_MSG(scheduler_.finished(),
                  "simulation drained with unfinished iterations");
    SimResult result;
    result.total_cycles = engine_.now();
    result.mem = mem_->stats();
    result.sched = scheduler_.stats();
    result.core_busy = core_busy_;
    result.queue_wait_cycles = queue_wait_;
    result.jobs = jobs_;
    result.task_cycles = task_cycles_;
    result.task_runs = task_runs_;
    result.regions = mem_->region_stats();
    result.tiles = num_tiles_;
    result.core_tile = tile_of_core_;
    result.core_multiplier = multipliers_;
    result.tile_busy.assign(static_cast<size_t>(num_tiles_), 0);
    result.tile_jobs.assign(static_cast<size_t>(num_tiles_), 0);
    for (size_t i = 0; i < core_busy_.size(); ++i) {
      size_t t = static_cast<size_t>(tile_of_core_[i]);
      result.tile_busy[t] += core_busy_[i];
      result.tile_jobs[t] += core_jobs_[i];
    }
    return result;
  }

 private:
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
      sim::Cycles acquire = std::max(engine_.now(), queue_free_at_);
      queue_wait_ += acquire - engine_.now();
      queue_free_at_ =
          acquire + params_.queue_lock_cycles + dequeue_cycles_;
      sim::Cycles start = queue_free_at_;
      engine_.schedule_at(start, [this, job, core] { start_job(job, core); });
    }
  }

  void start_job(JobRef job, int core) {
    ExecContext ctx(scheduler_.job_component(job), job.iter, core,
                    &prog_.queues(), metrics_);
    const ExecContext::Charges* charged = &ctx.charges();
    if (params_.replay_trace != nullptr) {
      auto it = params_.replay_trace->jobs.find(trace_key(job));
      SUP_CHECK_MSG(it != params_.replay_trace->jobs.end(),
                    "charge-trace replay: no record for this job (trace "
                    "from a different program or RunConfig?)");
      charged = &it->second;
    } else {
      scheduler_.execute(job, ctx);
      if (params_.record_trace != nullptr)
        params_.record_trace->jobs.emplace(trace_key(job), ctx.charges());
    }
    ++jobs_;
    ++core_jobs_[static_cast<size_t>(core)];

    const ExecContext::Charges& charges = *charged;
    // A core class's cycle multiplier scales compute (a half-frequency
    // core needs twice the cycles for the same charge); memory stalls
    // are platform latencies and stay unscaled. Exact for 1.0.
    sim::Cycles cost = charges.compute_cycles;
    if (hetero_)
      cost = static_cast<sim::Cycles>(
          static_cast<double>(charges.compute_cycles) *
              multipliers_[static_cast<size_t>(core)] +
          0.5);
    for (const ExecContext::Touch& t : charges.touches) {
      sim::RegionId region = regions_.stream_region(
          t.stream_index, job.iter, t.offset + t.len);
      cost += mem_->access(core, region, t.offset, t.len, t.write);
    }
    if (!charges.scratch.empty()) {
      uint64_t scratch_bytes = 0;
      for (const ExecContext::ScratchTouch& s : charges.scratch)
        scratch_bytes = std::max(scratch_bytes, s.bytes);
      sim::RegionId region = regions_.scratch_region(job.task, scratch_bytes);
      for (const ExecContext::ScratchTouch& s : charges.scratch)
        cost += mem_->access(core, region, 0, s.bytes, s.write);
    }
    core_busy_[static_cast<size_t>(core)] += cost;
    task_cycles_[static_cast<size_t>(job.task)] += cost;
    ++task_runs_[static_cast<size_t>(job.task)];
    if (trace_ != nullptr) {
      obs::TraceRecorder* rec = trace_->recorder(core);
      rec->span(task_names_[static_cast<size_t>(job.task)],
                obs::Category::kTask, engine_.now(), cost, job.iter,
                job.task);
      // phase 1 = a reconfiguration splice executing on this core: the
      // explicit marker fig10's trace validation looks for.
      if (job.phase == 1)
        rec->instant(reconfig_name_, obs::Category::kReconfig, engine_.now(),
                     job.iter, job.task);
      const sim::MemStats ms = mem_->stats();
      rec->counter(l1_miss_name_, obs::Category::kCache, engine_.now(),
                   static_cast<int64_t>(ms.accesses - ms.l1_hits));
      rec->counter(mem_fetch_name_, obs::Category::kCache, engine_.now(),
                   static_cast<int64_t>(ms.mem_fetches));
      // Per-stream occupancy: slots of this stream holding data of
      // iterations admitted but not yet retired.
      int64_t inflight = job.iter + 1 - scheduler_.iterations_done();
      for (const ExecContext::Touch& t : charges.touches) {
        if (!t.write) continue;
        rec->counter(stream_names_[static_cast<size_t>(t.stream_index)],
                     obs::Category::kStream, engine_.now(), inflight);
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
    engine_.schedule_after(cost, [this, job, core] { end_job(job, core); });
  }

  void end_job(JobRef job, int core) {
    std::vector<JobRef> newly = scheduler_.complete(job);
    for (const JobRef& j : newly) queue_.push_back(j);
    if (trace_ != nullptr) {
      obs::TraceRecorder* rec = trace_->recorder(core);
      for (const JobRef& j : newly)
        rec->instant(admit_name_, obs::Category::kSched, engine_.now(),
                     j.iter, j.task);
      rec->counter(queue_depth_name_, obs::Category::kSched, engine_.now(),
                   static_cast<int64_t>(queue_.size()));
    }
    if (metrics_ != nullptr) publish_live();
    // The completing core enqueues its successors before going idle.
    sim::Cycles enqueue_cost =
        enqueue_cycles_ * static_cast<sim::Cycles>(newly.size());
    core_busy_[static_cast<size_t>(core)] += enqueue_cost;
    engine_.schedule_after(enqueue_cost, [this, core] {
      core_idle_[static_cast<size_t>(core)] = true;
      dispatch();
    });
    // Jobs may be dispatchable on other idle cores right away.
    dispatch();
  }

  // Refresh the "live.*" gauges after a job retires. Pure observation:
  // publication touches only the registry, never the cost model, so
  // cycle counts are identical with and without a registry attached.
  void publish_live() {
    metrics_->set("live.cycles", static_cast<int64_t>(engine_.now()));
    metrics_->set("live.jobs", static_cast<int64_t>(jobs_));
    metrics_->set("live.queue_depth", static_cast<int64_t>(queue_.size()));
    int64_t iters = scheduler_.iterations_done();
    metrics_->set("live.iterations_done", iters);
    if (iters > live_last_iters_) {
      // Throughput over the iterations retired since the last boundary —
      // the signal the policy component watches for load steps.
      double per_iter =
          static_cast<double>(engine_.now() - live_last_boundary_) /
          static_cast<double>(iters - live_last_iters_);
      metrics_->set("live.cycles_per_iter", per_iter);
      live_last_iters_ = iters;
      live_last_boundary_ = engine_.now();
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
  SimParams params_;  // platform resolved: never empty
  sim::Cycles dequeue_cycles_ = kDequeueCycles;
  sim::Cycles enqueue_cycles_ = kEnqueueCycles;
  sim::Engine engine_;
  std::unique_ptr<sim::MemorySystem> mem_;
  RegionTable regions_;

  // Platform shape, flattened per core.
  int num_tiles_ = 1;
  bool hetero_ = false;  // any cycle multiplier != 1.0
  std::vector<int> tile_of_core_;
  std::vector<double> multipliers_;

  std::deque<JobRef> queue_;
  std::vector<bool> core_idle_;
  std::vector<sim::Cycles> core_busy_;
  std::vector<uint64_t> core_jobs_;
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
