// The SP-IR pass pipeline: normalize / strip-dead-options semantics,
// PassManager verification and dump hooks, pass registry lookup and the
// fuse-kernels pass, including its one-core rule for chains that would
// forfeit parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sp/fuse_kernels.hpp"
#include "sp/graph.hpp"
#include "sp/pass.hpp"
#include "sp/validate.hpp"

namespace {

using sp::EventAction;
using sp::EventRule;
using sp::LeafSpec;
using sp::NodeKind;
using sp::NodePtr;
using sp::ParShape;

LeafSpec leaf(const std::string& name, const std::string& in = "",
              const std::string& out = "") {
  LeafSpec spec;
  spec.instance = name;
  spec.klass = "k_" + name;
  if (!in.empty()) spec.inputs.push_back({"in", in});
  if (!out.empty()) spec.outputs.push_back({"out", out});
  return spec;
}

NodePtr simple_chain() {
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("src", "", "a")));
  steps.push_back(sp::make_leaf(leaf("mid", "a", "b")));
  steps.push_back(sp::make_leaf(leaf("sink", "b", "")));
  return sp::make_seq(std::move(steps));
}

std::vector<std::string> leaf_names(const sp::Node& root) {
  std::vector<std::string> out;
  for (const sp::Node* l : sp::collect_leaves(root))
    out.push_back(l->leaf.instance);
  return out;
}

// Runs a pipeline with exactly the given switches (everything else off).
NodePtr run_pipeline(NodePtr g, const sp::PassOptions& options) {
  auto res = sp::make_pipeline(options).run(std::move(g));
  EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  return res.is_ok() ? std::move(res).take() : nullptr;
}

// --- normalize ----------------------------------------------------------------

TEST(NormalizePass, FlattensNestedSeqs) {
  // seq( seq(src, mid), seq(sink) ) -> seq(src, mid, sink)
  std::vector<NodePtr> inner1;
  inner1.push_back(sp::make_leaf(leaf("src", "", "a")));
  inner1.push_back(sp::make_leaf(leaf("mid", "a", "b")));
  std::vector<NodePtr> inner2;
  inner2.push_back(sp::make_leaf(leaf("sink", "b", "")));
  std::vector<NodePtr> outer;
  outer.push_back(sp::make_seq(std::move(inner1)));
  outer.push_back(sp::make_seq(std::move(inner2)));
  NodePtr root = sp::make_seq(std::move(outer));

  std::vector<std::string> before = leaf_names(*root);
  sp::PassOptions only_normalize = sp::PassOptions::none();
  only_normalize.normalize = true;
  root = run_pipeline(std::move(root), only_normalize);
  ASSERT_TRUE(root);

  EXPECT_EQ(root->kind(), NodeKind::kSeq);
  ASSERT_EQ(root->children.size(), 3u);
  for (const NodePtr& c : root->children)
    EXPECT_EQ(c->kind(), NodeKind::kLeaf);
  // Task ids/labels are assigned in depth-first leaf order, so the same
  // order means the same task DAG.
  EXPECT_EQ(leaf_names(*root), before);
  EXPECT_TRUE(sp::validate(*root).is_ok());
}

TEST(NormalizePass, FlattensBottomUpThroughDeepNesting) {
  // seq(seq(seq(src)), mid, seq(sink)) -> one flat 3-step seq.
  std::vector<NodePtr> s0;
  s0.push_back(sp::make_leaf(leaf("src", "", "a")));
  std::vector<NodePtr> s1;
  s1.push_back(sp::make_seq(std::move(s0)));
  std::vector<NodePtr> s2;
  s2.push_back(sp::make_seq(std::move(s1)));
  s2.push_back(sp::make_leaf(leaf("mid", "a", "b")));
  std::vector<NodePtr> s3;
  s3.push_back(sp::make_leaf(leaf("sink", "b", "")));
  s2.push_back(sp::make_seq(std::move(s3)));
  NodePtr root = sp::make_seq(std::move(s2));

  sp::PassOptions only_normalize = sp::PassOptions::none();
  only_normalize.normalize = true;
  root = run_pipeline(std::move(root), only_normalize);
  ASSERT_TRUE(root);
  ASSERT_EQ(root->children.size(), 3u);
  EXPECT_EQ(sp::stats(*root).seq_nodes, 1);
}

// --- strip-dead-options -------------------------------------------------------

TEST(StripDeadOptionsPass, KeepsRuleReferencedDropsDeadSplicesEnabled) {
  // Manager toggles "kept"; "dead" (disabled) and "gone" (enabled) have
  // no rule. After the pass: kept survives as an option, dead's subtree
  // vanishes, gone's body is spliced in unguarded.
  std::vector<NodePtr> body;
  body.push_back(sp::make_option("kept", true,
                                 sp::make_leaf(leaf("x", "", "a"))));
  body.push_back(sp::make_option("dead", false,
                                 sp::make_leaf(leaf("d", "", "junk"))));
  body.push_back(sp::make_option("gone", true,
                                 sp::make_leaf(leaf("g", "", "b"))));
  NodePtr mgr = sp::make_manager(
      "m", "q", {EventRule{"e", EventAction::kToggle, "kept", ""}},
      sp::make_seq(std::move(body)));
  std::vector<NodePtr> steps;
  steps.push_back(std::move(mgr));
  steps.push_back(sp::make_leaf(leaf("sink_a", "a", "")));
  steps.push_back(sp::make_leaf(leaf("sink_b", "b", "")));
  NodePtr root = sp::make_seq(std::move(steps));
  ASSERT_TRUE(sp::validate(*root).is_ok());

  sp::PassOptions only_strip = sp::PassOptions::none();
  only_strip.strip_dead_options = true;
  root = run_pipeline(std::move(root), only_strip);
  ASSERT_TRUE(root);

  std::vector<std::string> options;
  bool saw_d = false, saw_g = false;
  sp::visit(*root, [&](const sp::Node& n) {
    if (n.kind() == NodeKind::kOption) options.push_back(n.option_name);
    if (n.kind() == NodeKind::kLeaf && n.leaf.instance == "d") saw_d = true;
    if (n.kind() == NodeKind::kLeaf && n.leaf.instance == "g") saw_g = true;
  });
  EXPECT_EQ(options, std::vector<std::string>{"kept"});
  EXPECT_FALSE(saw_d);  // disabled + unreferenced: removed with subtree
  EXPECT_TRUE(saw_g);   // enabled + unreferenced: body kept, guard gone
  EXPECT_TRUE(sp::validate(*root).is_ok())
      << sp::validate(*root).to_string();

  // A manager with no rules leaves every option dead: the enabled one is
  // spliced in, the disabled one vanishes.
  std::vector<NodePtr> unruled;
  unruled.push_back(
      sp::make_option("on", true, sp::make_leaf(leaf("a", "", "s"))));
  unruled.push_back(
      sp::make_option("off", false, sp::make_leaf(leaf("b", "", "t"))));
  NodePtr bare = run_pipeline(
      sp::make_manager("m", "q", {}, sp::make_seq(std::move(unruled))),
      only_strip);
  ASSERT_TRUE(bare);
  EXPECT_EQ(sp::stats(*bare).leaves, 1);
  EXPECT_EQ(sp::stats(*bare).options, 0);
}

TEST(StripDeadOptionsPass, CascadeDeletesEmptiedParents) {
  // A seq step holding only a dead disabled option disappears entirely.
  std::vector<NodePtr> inner;
  inner.push_back(sp::make_option("dead", false,
                                  sp::make_leaf(leaf("d", "", "junk"))));
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_seq(std::move(inner)));
  steps.push_back(sp::make_leaf(leaf("src", "", "a")));
  steps.push_back(sp::make_leaf(leaf("sink", "a", "")));
  NodePtr root = sp::make_seq(std::move(steps));

  sp::PassOptions only_strip = sp::PassOptions::none();
  only_strip.strip_dead_options = true;
  root = run_pipeline(std::move(root), only_strip);
  ASSERT_TRUE(root);
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(leaf_names(*root), (std::vector<std::string>{"src", "sink"}));
}

// --- PassManager --------------------------------------------------------------

TEST(PassManager, VerifyCatchesPassThatBreaksTheGraph) {
  sp::PassManager pm;
  pm.set_verify(true);
  sp::Pass bad;
  bad.name = "clobber";
  bad.description = "replaces the graph with a duplicate-instance one";
  bad.run = [](NodePtr) -> support::Result<NodePtr> {
    std::vector<NodePtr> steps;
    steps.push_back(sp::make_leaf(leaf("x", "", "a")));
    steps.push_back(sp::make_leaf(leaf("x", "a", "")));
    return sp::make_seq(std::move(steps));
  };
  pm.add(std::move(bad));

  auto res = pm.run(simple_chain());
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), support::Code::kInternal);
  EXPECT_NE(res.status().message().find("clobber"), std::string::npos)
      << res.status().message();
}

TEST(PassManager, VerifySkippedWhenInputAlreadyInvalid) {
  // The pipeline is not the validator: a graph that does not validate
  // going in (option outside a manager) passes through verification
  // untouched so hinch-level rejection tests keep their error codes.
  sp::PassManager pm;
  pm.set_verify(true);
  pm.add(sp::normalize_pass());
  NodePtr invalid = sp::make_option("opt", true,
                                    sp::make_leaf(leaf("x", "", "a")));
  auto res = pm.run(std::move(invalid));
  EXPECT_TRUE(res.is_ok()) << res.status().to_string();
}

TEST(PassManager, ErrorsNameTheFailingPass) {
  sp::PassManager pm;
  sp::Pass failing;
  failing.name = "explode";
  failing.description = "always fails";
  failing.run = [](NodePtr) -> support::Result<NodePtr> {
    return support::invalid_argument("boom");
  };
  pm.add(std::move(failing));
  auto res = pm.run(simple_chain());
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), support::Code::kInvalidArgument);
  EXPECT_NE(res.status().message().find("explode"), std::string::npos);
  EXPECT_NE(res.status().message().find("boom"), std::string::npos);
}

TEST(PassManager, DumpHookFiresAfterEveryPassInOrder) {
  sp::PassOptions options;  // default build pipeline
  sp::PassManager pm = sp::make_pipeline(options);
  std::vector<std::string> seen;
  pm.set_dump_hook([&](const std::string& pass, const sp::Node& g) {
    seen.push_back(pass);
    EXPECT_GT(sp::stats(g).leaves, 0);
  });
  auto res = pm.run(simple_chain());
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_EQ(seen,
            (std::vector<std::string>{"normalize", "strip-dead-options"}));
}

TEST(PassRegistry, RegisteredPassesInCanonicalOrder) {
  const std::vector<sp::PassInfo>& passes = sp::registered_passes();
  ASSERT_EQ(passes.size(), 4u);
  EXPECT_EQ(passes[0].name, "normalize");
  EXPECT_TRUE(passes[0].default_on);
  EXPECT_EQ(passes[1].name, "strip-dead-options");
  EXPECT_TRUE(passes[1].default_on);
  EXPECT_EQ(passes[2].name, "to-sp-form");
  EXPECT_FALSE(passes[2].default_on);
  EXPECT_EQ(passes[3].name, "fuse-kernels");
  EXPECT_FALSE(passes[3].default_on);
}

TEST(PassRegistry, UnknownPassNameListsTheRegisteredOnes) {
  auto res = sp::pass_by_name("bogus", sp::PassOptions());
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), support::Code::kNotFound);
  EXPECT_NE(res.status().message().find("normalize"), std::string::npos);
  EXPECT_NE(res.status().message().find("fuse-kernels"), std::string::npos);
}

TEST(PassRegistry, EveryRegisteredNameResolves) {
  for (const sp::PassInfo& info : sp::registered_passes()) {
    auto res = sp::pass_by_name(info.name, sp::PassOptions());
    ASSERT_TRUE(res.is_ok()) << info.name;
    EXPECT_EQ(res.value().name, info.name);
  }
}

// --- fuse-kernels -------------------------------------------------------------

// A registry with one fusible chain, k_mid -> k_sink: the fused leaf
// takes mid's inputs and sink's outputs and drops the internal link.
sp::KernelFusionRegistry mid_sink_registry(bool rewrite_fails = false,
                                           bool reentrant_class = false) {
  sp::KernelFusionRegistry reg;
  sp::KernelFusionPattern p;
  p.name = "mid_sink";
  p.klasses = {"k_mid", "k_sink"};
  p.reentrant = reentrant_class;
  p.rewrite = [rewrite_fails](const std::vector<const sp::LeafSpec*>& chain)
      -> support::Result<LeafSpec> {
    if (rewrite_fails)
      return support::invalid_argument("unsupported parameters");
    LeafSpec fused;
    fused.instance = chain.front()->instance + "+" + chain.back()->instance;
    fused.klass = "k_fused";
    fused.inputs = chain.front()->inputs;
    fused.outputs = chain.back()->outputs;
    return fused;
  };
  reg.add(std::move(p));
  return reg;
}

sp::PassOptions fuse_kernels_only(const sp::KernelFusionRegistry& reg,
                                  int cores = 1) {
  sp::PassOptions o = sp::PassOptions::none();
  o.fuse_kernels = true;
  o.kernel_patterns = &reg;
  o.kernel_cores = cores;
  return o;
}

TEST(FuseKernelsPass, RewritesAdjacentSeqStepsAndAnnotates) {
  sp::KernelFusionRegistry reg = mid_sink_registry();
  NodePtr root = run_pipeline(simple_chain(), fuse_kernels_only(reg));
  ASSERT_TRUE(root);
  // seq(src, mid, sink) -> seq(src, mid+sink); the "b" link is gone.
  ASSERT_EQ(root->children.size(), 2u);
  const sp::Node& fused = *root->children[1];
  ASSERT_EQ(fused.kind(), NodeKind::kLeaf);
  EXPECT_EQ(fused.leaf.klass, "k_fused");
  EXPECT_EQ(fused.leaf.fused_pattern, "mid_sink");
  EXPECT_EQ(fused.leaf.fused_from,
            (std::vector<std::string>{"mid", "sink"}));
  bool saw_b = false;
  sp::visit(*root, [&](const sp::Node& n) {
    if (n.kind() != NodeKind::kLeaf) return;
    for (const auto& b : n.leaf.inputs) saw_b |= b.stream == "b";
    for (const auto& b : n.leaf.outputs) saw_b |= b.stream == "b";
  });
  EXPECT_FALSE(saw_b);
  EXPECT_TRUE(sp::validate(*root).is_ok())
      << sp::validate(*root).to_string();
}

// A fused class not registered reentrant may keep state between runs,
// so its fused leaf is sequential with itself even when a leaf it
// replaced was reentrant.
TEST(FuseKernelsPass, FusedLeafDropsReentrant) {
  NodePtr g = simple_chain();
  g->children[1]->leaf.reentrant = true;  // mid
  // This rewrite copies its first leaf's spec, flag included; the pass
  // must still clear it.
  sp::KernelFusionRegistry reg;
  sp::KernelFusionPattern p;
  p.name = "mid_sink";
  p.klasses = {"k_mid", "k_sink"};
  p.rewrite = [](const std::vector<const sp::LeafSpec*>& chain)
      -> support::Result<LeafSpec> {
    LeafSpec fused = *chain.front();
    fused.instance = chain.front()->instance + "+" + chain.back()->instance;
    fused.klass = "k_fused";
    fused.outputs = chain.back()->outputs;
    return fused;
  };
  reg.add(std::move(p));
  NodePtr root = run_pipeline(std::move(g), fuse_kernels_only(reg));
  ASSERT_TRUE(root);
  ASSERT_EQ(root->children.size(), 2u);
  const sp::Node& fused = *root->children[1];
  EXPECT_EQ(fused.leaf.fused_pattern, "mid_sink");
  EXPECT_FALSE(fused.leaf.reentrant);
}

TEST(FuseKernelsPass, RewritesPatternInsideHandWrittenGroup) {
  // seq(group(src, mid, sink)): the kernel matcher must find the
  // k_mid -> k_sink subsequence among the group members and rewrite
  // just those two.
  std::vector<NodePtr> members;
  members.push_back(sp::make_leaf(leaf("src", "", "a")));
  members.push_back(sp::make_leaf(leaf("mid", "a", "b")));
  members.push_back(sp::make_leaf(leaf("sink", "b", "")));
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_group(std::move(members)));
  NodePtr root = sp::make_seq(std::move(steps));
  ASSERT_TRUE(sp::validate(*root).is_ok());
  sp::KernelFusionRegistry reg = mid_sink_registry();
  root = run_pipeline(std::move(root), fuse_kernels_only(reg));
  ASSERT_TRUE(root);
  ASSERT_EQ(root->children.size(), 1u);
  const sp::Node& group = *root->children[0];
  ASSERT_EQ(group.kind(), NodeKind::kGroup);
  ASSERT_EQ(group.children.size(), 2u);
  EXPECT_EQ(group.children[0]->leaf.instance, "src");
  EXPECT_EQ(group.children[1]->leaf.fused_pattern, "mid_sink");
  EXPECT_TRUE(sp::validate(*root).is_ok());
}

TEST(FuseKernelsPass, MultipleReadersOnLinkStreamDecline) {
  // A spy also reads the internal "b" link: eliding the packet would
  // starve it, so the rewrite must be declined and the graph unchanged.
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("src", "", "a")));
  steps.push_back(sp::make_leaf(leaf("mid", "a", "b")));
  steps.push_back(sp::make_leaf(leaf("sink", "b", "")));
  steps.push_back(sp::make_leaf(leaf("spy", "b", "")));
  NodePtr root = sp::make_seq(std::move(steps));
  ASSERT_TRUE(sp::validate(*root).is_ok());
  sp::KernelFusionRegistry reg = mid_sink_registry();
  root = run_pipeline(std::move(root), fuse_kernels_only(reg));
  ASSERT_TRUE(root);
  EXPECT_EQ(leaf_names(*root),
            (std::vector<std::string>{"src", "mid", "sink", "spy"}));
}

// seq(src, slice(4){mid}, sink): fusing mid into sink gives up mid's
// four slices, so the chain is fused for one core and kept for four.
NodePtr sliced_chain() {
  std::vector<NodePtr> parblock;
  parblock.push_back(sp::make_leaf(leaf("mid", "a", "b")));
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("src", "", "a")));
  steps.push_back(sp::make_par(ParShape::kSlice, 4, std::move(parblock)));
  steps.push_back(sp::make_leaf(leaf("sink", "b", "")));
  return sp::make_seq(std::move(steps));
}

TEST(FuseKernelsPass, SlicedChainKeptForManyCores) {
  sp::KernelFusionRegistry reg = mid_sink_registry();
  NodePtr kept = run_pipeline(sliced_chain(), fuse_kernels_only(reg, 4));
  ASSERT_TRUE(kept);
  EXPECT_EQ(leaf_names(*kept),
            (std::vector<std::string>{"src", "mid", "sink"}));
  NodePtr fused = run_pipeline(sliced_chain(), fuse_kernels_only(reg, 1));
  ASSERT_TRUE(fused);
  EXPECT_EQ(leaf_names(*fused),
            (std::vector<std::string>{"src", "mid+sink"}));
}

// An unsliced chain forfeits nothing, so it fuses for any core count.
TEST(FuseKernelsPass, UnslicedChainFusesForManyCores) {
  sp::KernelFusionRegistry reg = mid_sink_registry();
  NodePtr root = run_pipeline(simple_chain(), fuse_kernels_only(reg, 4));
  ASSERT_TRUE(root);
  EXPECT_EQ(leaf_names(*root),
            (std::vector<std::string>{"src", "mid+sink"}));
}

// A reentrant leaf overlaps its iterations; the fused leaf cannot, so
// the chain is kept for four cores like a sliced one, and fused for one.
TEST(FuseKernelsPass, ReentrantChainKeptForManyCores) {
  sp::KernelFusionRegistry reg = mid_sink_registry();
  NodePtr g = simple_chain();
  g->children[1]->leaf.reentrant = true;  // mid
  NodePtr kept = run_pipeline(std::move(g), fuse_kernels_only(reg, 4));
  ASSERT_TRUE(kept);
  EXPECT_EQ(leaf_names(*kept),
            (std::vector<std::string>{"src", "mid", "sink"}));
  g = simple_chain();
  g->children[1]->leaf.reentrant = true;
  NodePtr fused = run_pipeline(std::move(g), fuse_kernels_only(reg, 1));
  ASSERT_TRUE(fused);
  EXPECT_EQ(leaf_names(*fused),
            (std::vector<std::string>{"src", "mid+sink"}));
}

// Opts the named leaves in as reentrant, wherever they are in the tree.
void mark_reentrant(sp::Node& n, const std::vector<std::string>& names) {
  if (n.kind() == NodeKind::kLeaf &&
      std::find(names.begin(), names.end(), n.leaf.instance) != names.end())
    n.leaf.reentrant = true;
  for (NodePtr& c : n.children) mark_reentrant(*c, names);
}

// A chain whose leaves are all reentrant, into a class registered
// reentrant, fuses into a reentrant leaf at any core count. That decides
// the flag, not the rewrite: for four cores it is taken only when no
// matched step is sliced, since overlapping frames do not make up for
// lost slices. A mixed chain, or a class not registered reentrant, fuses
// only for one core, into a leaf that is sequential with itself.
TEST(FuseKernelsPass, AllReentrantChainIntoReentrantClassStaysReentrant) {
  struct Case {
    bool reentrant_class;
    std::vector<std::string> reentrant_leaves;
    bool keeps;
  };
  for (const Case& c :
       {Case{true, {"mid", "sink"}, true}, Case{true, {"mid"}, false},
        Case{false, {"mid", "sink"}, false}}) {
    sp::KernelFusionRegistry reg =
        mid_sink_registry(/*rewrite_fails=*/false, c.reentrant_class);
    for (bool sliced : {false, true}) {
      for (int cores : {1, 4}) {
        NodePtr g = sliced ? sliced_chain() : simple_chain();
        mark_reentrant(*g, c.reentrant_leaves);
        NodePtr root =
            run_pipeline(std::move(g), fuse_kernels_only(reg, cores));
        ASSERT_TRUE(root);
        const std::string where = "class reentrant " +
                                  std::to_string(c.reentrant_class) +
                                  ", sliced " + std::to_string(sliced) +
                                  ", cores " + std::to_string(cores);
        if (cores > 1 && (!c.keeps || sliced)) {
          EXPECT_EQ(leaf_names(*root),
                    (std::vector<std::string>{"src", "mid", "sink"}))
              << where;
          continue;
        }
        ASSERT_EQ(leaf_names(*root),
                  (std::vector<std::string>{"src", "mid+sink"}))
            << where;
        EXPECT_EQ(root->children[1]->leaf.reentrant, c.keeps) << where;
      }
    }
  }
}

// seq(src, mid, par(task){sink_a, sink_b}): both sinks read mid's link,
// so the chain k_mid -> k_sink -> k_sink is safe to fuse, but the fused
// leaf runs the two branches one after the other. Like slices, that is
// kept for four cores and fused for one, reentrant leaves or not.
TEST(FuseKernelsPass, TaskParallelStepKeptForManyCores) {
  sp::KernelFusionRegistry reg;
  sp::KernelFusionPattern p;
  p.name = "mid_two_sinks";
  p.klasses = {"k_mid", "k_sink", "k_sink"};
  p.reentrant = true;
  p.rewrite = [](const std::vector<const sp::LeafSpec*>& chain)
      -> support::Result<LeafSpec> {
    LeafSpec fused;
    fused.instance = "fused";
    fused.klass = "k_fused";
    fused.inputs = chain.front()->inputs;
    return fused;
  };
  reg.add(std::move(p));
  auto chain = [] {
    LeafSpec a = leaf("sink", "b", "");
    a.instance = "sink_a";
    LeafSpec b = a;
    b.instance = "sink_b";
    std::vector<NodePtr> branches;
    branches.push_back(sp::make_leaf(a));
    branches.push_back(sp::make_leaf(b));
    std::vector<NodePtr> steps;
    steps.push_back(sp::make_leaf(leaf("src", "", "a")));
    steps.push_back(sp::make_leaf(leaf("mid", "a", "b")));
    steps.push_back(sp::make_par(ParShape::kTask, 1, std::move(branches)));
    NodePtr g = sp::make_seq(std::move(steps));
    mark_reentrant(*g, {"mid", "sink_a", "sink_b"});
    return g;
  };
  ASSERT_TRUE(sp::validate(*chain()).is_ok());
  NodePtr kept = run_pipeline(chain(), fuse_kernels_only(reg, 4));
  ASSERT_TRUE(kept);
  EXPECT_EQ(leaf_names(*kept),
            (std::vector<std::string>{"src", "mid", "sink_a", "sink_b"}));
  NodePtr fused = run_pipeline(chain(), fuse_kernels_only(reg, 1));
  ASSERT_TRUE(fused);
  ASSERT_EQ(leaf_names(*fused), (std::vector<std::string>{"src", "fused"}));
  EXPECT_TRUE(fused->children[1]->leaf.reentrant);
}

TEST(FuseKernelsPass, RewriteErrorDeclinesSilently) {
  // The rewrite hook rejecting a parameter combination is not a pipeline
  // failure — the candidate is skipped and the chain kept as-is.
  sp::KernelFusionRegistry reg =
      mid_sink_registry(/*rewrite_fails=*/true);
  NodePtr root = run_pipeline(simple_chain(), fuse_kernels_only(reg));
  ASSERT_TRUE(root);
  EXPECT_EQ(leaf_names(*root),
            (std::vector<std::string>{"src", "mid", "sink"}));
}

TEST(FuseKernelsPass, NullRegistryIsANoOp) {
  sp::PassOptions o = sp::PassOptions::none();
  o.fuse_kernels = true;  // no kernel_patterns set
  NodePtr root = run_pipeline(simple_chain(), o);
  ASSERT_TRUE(root);
  EXPECT_EQ(leaf_names(*root),
            (std::vector<std::string>{"src", "mid", "sink"}));
}

}  // namespace
