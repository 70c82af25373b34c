#include "hinch/runtime.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace hinch {
namespace {

void collect_sched(const SchedulerStats& s, obs::MetricsRegistry* out) {
  out->set("sched.jobs_executed", static_cast<int64_t>(s.jobs_executed));
  out->set("sched.jobs_skipped", static_cast<int64_t>(s.jobs_skipped));
  out->set("sched.reconfigurations",
           static_cast<int64_t>(s.reconfigurations));
  out->set("sched.events_handled", static_cast<int64_t>(s.events_handled));
  out->set("sched.components_created",
           static_cast<int64_t>(s.components_created));
}

void collect_mem(const sim::MemStats& m, obs::MetricsRegistry* out) {
  out->set("mem.accesses", static_cast<int64_t>(m.accesses));
  out->set("mem.l1_hits", static_cast<int64_t>(m.l1_hits));
  out->set("mem.l2_hits", static_cast<int64_t>(m.l2_hits));
  out->set("mem.fetches", static_cast<int64_t>(m.mem_fetches));
  out->set("mem.invalidations", static_cast<int64_t>(m.invalidations));
  out->set("mem.stall_cycles", static_cast<int64_t>(m.stall_cycles));
  out->set("mem.l1_hit_rate", m.l1_hit_rate());
}

std::string task_label(const Program& prog, size_t id) {
  const std::string& label = prog.tasks()[id].label;
  return label.empty() ? "task" + std::to_string(id) : label;
}

}  // namespace

void collect_metrics(const Program& prog, const SimResult& result,
                     obs::MetricsRegistry* out) {
  out->set("sim.total_cycles", static_cast<int64_t>(result.total_cycles));
  out->set("sim.jobs", static_cast<int64_t>(result.jobs));
  out->set("sim.queue_wait_cycles",
           static_cast<int64_t>(result.queue_wait_cycles));
  out->set("sim.cores", static_cast<int64_t>(result.core_busy.size()));
  out->set("sim.utilization", result.utilization());
  for (size_t i = 0; i < result.core_busy.size(); ++i)
    out->set("sim.core" + std::to_string(i) + ".busy_cycles",
             static_cast<int64_t>(result.core_busy[i]));
  // Multi-tile platforms additionally publish per-tile rollups and the
  // interconnect counters; single-tile dumps are unchanged.
  if (result.tiles > 1) {
    out->set("sim.tiles", static_cast<int64_t>(result.tiles));
    for (size_t t = 0; t < result.tile_busy.size(); ++t) {
      std::string base = "sim.tile" + std::to_string(t) + ".";
      out->set(base + "busy_cycles",
               static_cast<int64_t>(result.tile_busy[t]));
      out->set(base + "jobs", static_cast<int64_t>(result.tile_jobs[t]));
    }
    out->set("sim.mem.remote_hits",
             static_cast<int64_t>(result.mem.remote_hits));
    out->set("sim.mem.l2_invalidations",
             static_cast<int64_t>(result.mem.l2_invalidations));
  }
  collect_sched(result.sched, out);
  collect_mem(result.mem, out);
  for (const sim::RegionStats& r : result.regions) {
    std::string base = "region." + r.label + ".";
    out->set(base + "bytes", static_cast<int64_t>(r.bytes));
    out->set(base + "accesses", static_cast<int64_t>(r.accesses));
    out->set(base + "l1_hits", static_cast<int64_t>(r.l1_hits));
    out->set(base + "mem_fetches", static_cast<int64_t>(r.mem_fetches));
    out->set(base + "stall_cycles", static_cast<int64_t>(r.stall_cycles));
  }
  size_t ntasks =
      std::min(result.task_cycles.size(), prog.tasks().size());
  for (size_t i = 0; i < ntasks; ++i) {
    if (result.task_runs[i] == 0) continue;
    std::string base = "task." + task_label(prog, i) + ".";
    out->set(base + "cycles", static_cast<int64_t>(result.task_cycles[i]));
    out->set(base + "runs", static_cast<int64_t>(result.task_runs[i]));
  }
}

void collect_metrics(const Program& prog, const ThreadResult& result,
                     obs::MetricsRegistry* out) {
  (void)prog;
  out->set("threads.wall_seconds", result.wall_seconds);
  out->set("threads.jobs", static_cast<int64_t>(result.jobs));
  out->set("threads.steals", static_cast<int64_t>(result.steals));
  out->set("threads.idle_parks", static_cast<int64_t>(result.idle_parks));
  out->set("threads.workers",
           static_cast<int64_t>(result.worker_jobs.size()));
  for (size_t i = 0; i < result.worker_jobs.size(); ++i)
    out->set("threads.worker" + std::to_string(i) + ".jobs",
             static_cast<int64_t>(result.worker_jobs[i]));
  collect_sched(result.sched, out);
}

}  // namespace hinch
