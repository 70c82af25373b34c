// Performance prediction (the "Prediction" box of Fig. 1; the paper's
// companion tool is PAM-SoC [30], built on van Gemund's SPC model [28]).
//
// Two entry points:
//  - predict_from_tree: analytic evaluation of an SP graph with a
//    user-supplied leaf-cost function (works before any execution; this
//    is the §2 use case "performance prediction can be used to verify
//    that the application meets its deadlines").
//  - predict_from_profile: evaluation of a compiled Program's task DAG
//    with per-task costs measured by the simulator (profile-then-predict).
//
// Both produce the SPC contention bound: with P processors, one
// iteration takes ~ max(span, work / P); a K-deep software pipeline
// sustains one iteration per max(work / P, heaviest task that is
// sequential with itself). Reentrant tasks run K instances at once, so
// they bound only through work / P.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hinch/program.hpp"
#include "sp/graph.hpp"

namespace perf {

struct Prediction {
  double work = 0;        // total cycles of one iteration
  double span = 0;        // critical path of one iteration
  double t_iteration = 0; // predicted cycles/iteration, P processors
  double interval = 0;    // pipelined steady-state cycles/iteration
  int processors = 1;
  // predict_from_profile: the id of the heaviest task that is sequential
  // with itself (the per-task term of `interval`); -1 otherwise.
  int bound_task = -1;

  // Predicted total cycles for `iterations` pipelined iterations:
  // fill the pipeline once (span), then one interval per iteration.
  double total(int64_t iterations) const {
    if (iterations <= 0) return 0;
    return span + static_cast<double>(iterations - 1) * interval;
  }
};

// Cost (cycles) of one execution of a leaf. `slice_count` is the
// data-parallel copy count the leaf runs under (1 outside slice regions):
// the cost function should return the cost of ONE copy.
using LeafCost = std::function<double(const sp::LeafSpec& leaf,
                                      int slice_count)>;

// Analytic SPC evaluation. Crossdep regions are evaluated through their
// SP form (sync point between parblocks), the transformation §3.3
// prescribes for prediction.
Prediction predict_from_tree(const sp::Node& root, const LeafCost& cost,
                             int processors);

// DAG evaluation with measured per-task costs (cycles per execution,
// e.g. SimResult::task_cycles[i] / task_runs[i]).
Prediction predict_from_profile(const hinch::Program& prog,
                                const std::vector<double>& task_cost,
                                int processors);

}  // namespace perf
