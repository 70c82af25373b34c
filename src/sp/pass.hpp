// The SP-IR pass pipeline: named, ordered graph-to-graph rewrites with
// sp::validate run between passes (debug builds) and per-pass dump
// hooks. Every consumer of the IR — xspcl::build_program, the generated
// codegen path, hinch::Program::build and perf::predict — drives the
// same canonical pipeline instead of hand-calling individual transforms
// (the pre-pass state of affairs: sp::to_sp_form invoked ad-hoc from
// two places in perf/predict.cpp and nowhere else).
//
// Canonical order (see docs/COMPILER.md):
//   normalize -> strip-dead-options -> [to-sp-form] -> [fuse-kernels]
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sp/graph.hpp"
#include "support/status.hpp"

namespace sp {

// One named rewrite. `run` consumes the graph and returns the rewritten
// one (possibly the same object); it must leave a graph that is valid
// whenever its input was.
struct Pass {
  std::string name;
  std::string description;
  std::function<support::Result<NodePtr>(NodePtr)> run;
};

// Invoked after each pass with the pass name and the resulting graph
// (used by xspclc --dump-after to emit intermediate dot files).
using DumpHook =
    std::function<void(const std::string& pass, const Node& graph)>;

class KernelFusionRegistry;  // sp/fuse_kernels.hpp

// Verification between passes defaults to on in debug builds (§ the
// acceptance contract: a buggy pass is caught at the pass boundary, not
// three layers later in the executor).
#ifdef NDEBUG
inline constexpr bool kVerifyPassesDefault = false;
#else
inline constexpr bool kVerifyPassesDefault = true;
#endif

// Which passes the canonical pipeline runs, and how. This is the knob
// hinch::BuildConfig carries (`config.passes`) and tools/xspclc exposes
// as --passes= / --dump-after=.
struct PassOptions {
  // Flatten nested seq nodes (task DAG unchanged; gives later passes a
  // canonical step list to walk).
  bool normalize = true;
  // Remove options no manager rule references: disabled ones vanish,
  // enabled ones lose their guard. Referenced options stay, so the pass
  // runs on reconfigurable graphs.
  bool strip_dead_options = true;
  // Rewrite crossdep regions into SP form (§3.3). Off for building —
  // the executors schedule crossdep natively; perf::predict turns it on.
  bool to_sp_form = false;
  // Rewrite registered component chains into single fused-loop
  // components (loop-level fusion, §4.1; it also sees the members of
  // hand-written groups). `kernel_patterns` names the chains and
  // their rewrites — typically components::standard_fusions(); it must
  // outlive the pipeline run, and null makes the pass a no-op.
  // `kernel_cores` is the core count the program is fused for: at 1
  // every structurally-safe rewrite is taken, above 1 only those that
  // forfeit no parallelism (no step running tasks side by side, and no
  // reentrant leaf unless every leaf is, into a reentrant fused class).
  bool fuse_kernels = false;
  const KernelFusionRegistry* kernel_patterns = nullptr;
  int kernel_cores = 1;
  // Run sp::validate after every pass (error names the failing pass).
  bool verify = kVerifyPassesDefault;

  // All passes off — for callers that already ran the pipeline and only
  // need Program::build to compile the graph as-is.
  static PassOptions none();
};

class PassManager {
 public:
  PassManager() = default;

  void add(Pass pass);
  const std::vector<Pass>& passes() const { return passes_; }
  bool empty() const { return passes_.empty(); }

  void set_verify(bool on) { verify_ = on; }
  void set_dump_hook(DumpHook hook) { dump_ = std::move(hook); }

  // Run every pass in order. When verification is on and the input graph
  // validates, sp::validate runs after each pass and a failure is
  // reported as an internal error naming the pass. (An input that does
  // not validate — e.g. a hand-built test fragment — skips the checks:
  // the pipeline is not the validator.)
  support::Result<NodePtr> run(NodePtr graph) const;

 private:
  std::vector<Pass> passes_;
  bool verify_ = kVerifyPassesDefault;
  DumpHook dump_;
};

// --- the registered passes ----------------------------------------------------

Pass normalize_pass();
Pass strip_dead_options_pass();
Pass to_sp_form_pass();
// Defined in sp/fuse_kernels.cpp (see that header for the contract).
Pass fuse_kernels_pass(const KernelFusionRegistry* patterns, int cores);

// Descriptor for `xspclc passes` and --dump-after=all.
struct PassInfo {
  std::string name;
  std::string description;
  bool default_on = false;  // part of the default build pipeline
};

// Every pass the pipeline knows, in canonical order.
const std::vector<PassInfo>& registered_passes();

// Look up a single pass by registered name, drawing its configuration
// (kernel patterns and core count) from `options`. Not-found lists the
// valid names.
support::Result<Pass> pass_by_name(const std::string& name,
                                   const PassOptions& options);

// The canonical pipeline for `options` (passes in registered order,
// skipping the ones switched off), with verification per
// options.verify.
PassManager make_pipeline(const PassOptions& options);

// A short stable string identifying *which rewrites* a PassOptions runs:
// the enabled pass names in canonical order, plus fuse-kernels'
// configuration ("+patterns" when patterns are attached, "@N" for the
// core count it fuses for). The verify flag is excluded — it never
// changes the output graph. Two option sets with equal fingerprints
// produce the same graph from the same input (given the same pattern
// registry).
std::string pass_fingerprint(const PassOptions& options);

}  // namespace sp
