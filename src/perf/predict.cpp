#include "perf/predict.hpp"

#include <algorithm>

#include "sp/pass.hpp"
#include "sp/validate.hpp"

namespace perf {
namespace {

struct WorkSpan {
  double work = 0;
  double span = 0;
  // Heaviest task that is sequential with itself (reentrant tasks
  // overlap across iterations and do not bound the interval).
  double max_leaf = 0;
  int max_task = -1;  // its task id (profile evaluation only)
};

WorkSpan evaluate(const sp::Node& n, const LeafCost& cost, int slice_count) {
  switch (n.kind()) {
    case sp::NodeKind::kLeaf: {
      double c = cost(n.leaf, slice_count);
      return {c, c, n.leaf.reentrant ? 0 : c};
    }
    case sp::NodeKind::kGroup:
    case sp::NodeKind::kSeq: {
      WorkSpan total;
      for (const sp::NodePtr& c : n.children) {
        WorkSpan child = evaluate(*c, cost, slice_count);
        total.work += child.work;
        total.span += child.span;
        total.max_leaf = std::max(total.max_leaf, child.max_leaf);
      }
      return total;
    }
    case sp::NodeKind::kPar: {
      if (n.shape == sp::ParShape::kTask) {
        WorkSpan total;
        for (const sp::NodePtr& c : n.children) {
          WorkSpan child = evaluate(*c, cost, slice_count);
          total.work += child.work;
          total.span = std::max(total.span, child.span);
          total.max_leaf = std::max(total.max_leaf, child.max_leaf);
        }
        return total;
      }
      // Slice: n identical copies, each processing 1/n of the data.
      SUP_CHECK(n.shape == sp::ParShape::kSlice);
      WorkSpan body = evaluate(*n.children[0], cost, n.replicas);
      return {body.work * n.replicas, body.span, body.max_leaf};
    }
    case sp::NodeKind::kOption:
      // Predict the enabled configuration (disabled subgraphs cost 0).
      if (!n.initially_enabled) return {};
      return evaluate(*n.children[0], cost, slice_count);
    case sp::NodeKind::kManager:
      return evaluate(*n.children[0], cost, slice_count);
  }
  return {};
}

// §3.3: non-SP (crossdep) structures are predicted through their SP
// form, through the to-sp-form pipeline pass. Returns `root` itself
// when it is already SP; otherwise `storage` owns the converted tree.
const sp::Node* sp_form_of(const sp::Node& root, sp::NodePtr* storage) {
  if (sp::is_sp_form(root)) return &root;
  sp::PassOptions options = sp::PassOptions::none();
  options.to_sp_form = true;
  support::Result<sp::NodePtr> res =
      sp::make_pipeline(options).run(root.clone());
  SUP_CHECK_MSG(res.is_ok(), res.status().to_string().c_str());
  *storage = std::move(res).take();
  return storage->get();
}

Prediction finish(WorkSpan ws, int processors) {
  Prediction p;
  p.processors = std::max(1, processors);
  p.effective = p.processors;
  p.work = ws.work;
  p.span = ws.span;
  // SPC contention bound for one iteration.
  p.t_iteration = std::max(ws.span, ws.work / p.processors);
  // Steady-state pipelined interval: processors limit throughput, and a
  // component is sequential with itself across iterations unless it is
  // reentrant.
  p.interval = std::max(ws.work / p.processors, ws.max_leaf);
  p.bound_task = ws.max_task;
  return p;
}

// Shared DAG profile evaluation: total work, critical path, heaviest
// task, from measured per-task costs.
WorkSpan profile_workspan(const hinch::Program& prog,
                          const std::vector<double>& task_cost) {
  const std::vector<hinch::Task>& tasks = prog.tasks();
  SUP_CHECK(task_cost.size() == tasks.size());
  WorkSpan ws;
  std::vector<double> dist(tasks.size(), -1);
  std::vector<int> indeg(tasks.size(), 0);
  for (const hinch::Task& t : tasks)
    indeg[static_cast<size_t>(t.id)] = static_cast<int>(t.preds.size());
  std::vector<int> queue;
  for (const hinch::Task& t : tasks) {
    const double c = task_cost[static_cast<size_t>(t.id)];
    ws.work += c;
    if (!t.reentrant && (ws.max_task < 0 || c > ws.max_leaf)) {
      ws.max_leaf = c;
      ws.max_task = t.id;
    }
    if (t.preds.empty()) {
      queue.push_back(t.id);
      dist[static_cast<size_t>(t.id)] = task_cost[static_cast<size_t>(t.id)];
    }
  }
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const hinch::Task& t = tasks[static_cast<size_t>(queue[qi])];
    for (int s : t.succs) {
      double cand = dist[static_cast<size_t>(t.id)] +
                    task_cost[static_cast<size_t>(s)];
      dist[static_cast<size_t>(s)] = std::max(dist[static_cast<size_t>(s)],
                                              cand);
      if (--indeg[static_cast<size_t>(s)] == 0) queue.push_back(s);
    }
  }
  SUP_CHECK_MSG(queue.size() == tasks.size(), "task DAG has a cycle");
  for (double d : dist) ws.span = std::max(ws.span, d);
  return ws;
}

}  // namespace

Prediction predict_from_tree(const sp::Node& root, const LeafCost& cost,
                             int processors) {
  sp::NodePtr storage;
  WorkSpan ws = evaluate(*sp_form_of(root, &storage), cost, 1);
  return finish(ws, processors);
}

Prediction predict_from_profile(const hinch::Program& prog,
                                const std::vector<double>& task_cost,
                                int processors) {
  // Longest path over the DAG. Task ids are created in a topological
  // order? Not guaranteed for crossdep wiring, so do a proper pass.
  return finish(profile_workspan(prog, task_cost), processors);
}

double effective_processors(const sim::PlatformConfig& platform) {
  if (platform.empty()) return 1.0;
  double sum = 0;
  for (double m : platform.core_multipliers()) sum += 1.0 / m;
  return sum;
}

Prediction predict_from_profile(const hinch::Program& prog,
                                const std::vector<double>& task_cost,
                                const sim::PlatformConfig& platform) {
  WorkSpan ws = profile_workspan(prog, task_cost);
  Prediction p;
  p.processors = std::max(1, platform.empty() ? 1 : platform.total_cores());
  p.effective = effective_processors(platform);
  // Critical-path terms scale with the fastest class (best-case
  // placement); the work term with the summed capacity.
  double fastest = 1.0;
  if (!platform.empty()) {
    bool first = true;
    for (double m : platform.core_multipliers()) {
      fastest = first ? m : std::min(fastest, m);
      first = false;
    }
  }
  p.work = ws.work;
  p.span = ws.span * fastest;
  p.t_iteration = std::max(p.span, ws.work / p.effective);
  p.interval = std::max(ws.work / p.effective, ws.max_leaf * fastest);
  p.bound_task = ws.max_task;
  return p;
}

}  // namespace perf
