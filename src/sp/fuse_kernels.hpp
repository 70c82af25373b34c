// The fuse-kernels pass: loop-level fusion, the one automatic fusion
// pass (§4.1's remedy for the coordination overhead, below the
// hand-written <group>).
//
// A group shares a core so the linking packets stay cache-warm, but
// each member still runs its own full-frame loop and the intermediate
// frame still materializes in the linking stream's slot. This pass goes
// further: when the members of a hand-written group (or the leaves of
// adjacent seq steps) match a *registered fusible pattern* — a chain of
// component classes for which a single fused kernel exists — the chain
// is rewritten into ONE synthesized leaf whose component executes one
// fused loop over a strip-sized scratch. The linking streams disappear
// from the graph entirely; their packets never materialize at all.
//
// A kernel rewrite is only semantically safe under structural
// conditions this pass checks per candidate:
//   - every matched subtree is fusible (no options/managers/crossdep);
//   - the chain is stream-connected (each member after the first reads
//     something an earlier member wrote);
//   - every internal link stream has ALL of its readers and writers
//     inside the match — if any other consumer reads the link, the
//     packet must still park for it and the rewrite is declined (see
//     the multiple-readers test in tests/test_passes.cpp).
// What a rewrite costs is the chain's parallelism: the fused leaf is
// one task. A seq-step rewrite forfeits parallelism when a matched step
// runs tasks side by side within an iteration (slice replicas or the
// branches of a task parallel), or when a matched leaf is reentrant and
// the fused leaf is not. It is then taken only when the program is fused
// for one core, where there is no parallelism to lose. The fused leaf is
// reentrant when every matched leaf is and the pattern's fused class is
// registered reentrant, so a reentrant chain of single-task steps stays
// frame-parallel and is taken at any core count. A chain with a sliced
// or multi-task step is declined above one core even when its fused leaf
// would be reentrant: with fewer frames in flight than cores, overlapping
// frames do not make up for the tasks it serialises within a frame
// (docs/COMPILER.md has the measurement). A rewrite inside a group
// forfeits nothing (the group is already one task, and its members are
// never reentrant). This is the whole decision. No run of the program
// enters it, so compiling never executes a component.
//
// The registry of patterns lives with the fused components
// (components::standard_fusions()); the sp layer only defines the
// contract.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sp/graph.hpp"
#include "sp/pass.hpp"
#include "support/status.hpp"

namespace sp {

// One fusible chain: an ordered list of component classes plus the
// rewrite that synthesizes the fused leaf from the matched specs.
struct KernelFusionPattern {
  std::string name;  // annotation tag, e.g. "downscale_blend"
  // Component classes in chain (schedule) order, e.g.
  // {"downscale", "blend"}. A candidate matches when the depth-first
  // leaf classes of a contiguous group-member or seq-step range equal
  // this list exactly.
  std::vector<std::string> klasses;
  // Synthesize the fused LeafSpec from the matched leaves (chain
  // order). Returning an error declines this candidate — use it for
  // parameter combinations the fused kernel does not support (the
  // decode-chain pattern declines IDCT planes other than {0,1,2}).
  // The result must not bind the internal link streams.
  std::function<support::Result<LeafSpec>(
      const std::vector<const LeafSpec*>&)>
      rewrite;
  // The fused class is registered reentrant (hinch::ClassInfo), so a
  // rewrite of all-reentrant leaves yields a reentrant fused leaf.
  bool reentrant = false;
};

class KernelFusionRegistry {
 public:
  void add(KernelFusionPattern pattern);
  const std::vector<KernelFusionPattern>& patterns() const {
    return patterns_;
  }

 private:
  std::vector<KernelFusionPattern> patterns_;
};

// The pass. `patterns` may be null (the pass is then a no-op — the
// pipeline stays well-formed even when no fused components are linked
// in); when non-null it must outlive every run of the returned pass.
// `cores` is the core count the program is fused for: at 1 every
// structurally-safe candidate is taken, above 1 only those that forfeit
// no parallelism (chains of single-task steps with no reentrant leaf or
// with every leaf reentrant into a reentrant class, and group members).
Pass fuse_kernels_pass(const KernelFusionRegistry* patterns, int cores);

}  // namespace sp
