#include <gtest/gtest.h>

#include "sp/dot.hpp"
#include "sp/graph.hpp"
#include "sp/transform.hpp"
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

TEST(SpGraph, BuildAndStats) {
  NodePtr root = simple_chain();
  sp::GraphStats s = sp::stats(*root);
  EXPECT_EQ(s.leaves, 3);
  EXPECT_EQ(s.expanded_leaves, 3);
  EXPECT_EQ(s.seq_nodes, 1);
  EXPECT_EQ(s.par_nodes, 0);
}

TEST(SpGraph, SliceExpandsLeafCount) {
  std::vector<NodePtr> block;
  block.push_back(sp::make_leaf(leaf("work", "a", "b")));
  NodePtr par = sp::make_par(ParShape::kSlice, 8, [&] {
    std::vector<NodePtr> v;
    v.push_back(sp::make_seq(std::move(block)));
    return v;
  }());
  sp::GraphStats s = sp::stats(*par);
  EXPECT_EQ(s.leaves, 1);
  EXPECT_EQ(s.expanded_leaves, 8);
}

TEST(SpGraph, CloneIsDeep) {
  NodePtr root = simple_chain();
  NodePtr copy = root->clone();
  copy->children[0]->leaf.instance = "changed";
  EXPECT_EQ(root->children[0]->leaf.instance, "src");
}

TEST(SpGraph, CollectLeavesInScheduleOrder) {
  NodePtr root = simple_chain();
  auto leaves = sp::collect_leaves(*root);
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0]->leaf.instance, "src");
  EXPECT_EQ(leaves[2]->leaf.instance, "sink");
}

TEST(SpValidate, AcceptsSimpleChain) {
  NodePtr root = simple_chain();
  EXPECT_TRUE(sp::validate(*root).is_ok());
}

TEST(SpValidate, RejectsDuplicateInstances) {
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("x", "", "a")));
  steps.push_back(sp::make_leaf(leaf("x", "a", "")));
  NodePtr root = sp::make_seq(std::move(steps));
  auto st = sp::validate(*root);
  EXPECT_EQ(st.code(), support::Code::kAlreadyExists);
}

TEST(SpValidate, RejectsUnwrittenStream) {
  std::vector<NodePtr> steps;
  steps.push_back(sp::make_leaf(leaf("only_reader", "ghost", "")));
  NodePtr root = sp::make_seq(std::move(steps));
  auto st = sp::validate(*root);
  EXPECT_EQ(st.code(), support::Code::kFailedPrecondition);
  EXPECT_NE(st.message().find("ghost"), std::string::npos);
}

TEST(SpValidate, RejectsOptionOutsideManager) {
  NodePtr option = sp::make_option("opt", true,
                                   sp::make_leaf(leaf("x", "", "a")));
  auto st = sp::validate(*option);
  EXPECT_EQ(st.code(), support::Code::kFailedPrecondition);
}

TEST(SpValidate, AcceptsOptionInsideManager) {
  NodePtr option = sp::make_option("opt", true,
                                   sp::make_leaf(leaf("x", "", "a")));
  NodePtr mgr = sp::make_manager(
      "m", "q", {EventRule{"e", EventAction::kToggle, "opt", ""}},
      std::move(option));
  std::vector<NodePtr> steps;
  steps.push_back(std::move(mgr));
  steps.push_back(sp::make_leaf(leaf("sink", "a", "")));
  NodePtr root = sp::make_seq(std::move(steps));
  EXPECT_TRUE(sp::validate(*root).is_ok()) << sp::validate(*root).to_string();
}

TEST(SpValidate, RejectsRuleForUnknownOption) {
  NodePtr option = sp::make_option("opt", true,
                                   sp::make_leaf(leaf("x", "", "a")));
  NodePtr mgr = sp::make_manager(
      "m", "q", {EventRule{"e", EventAction::kToggle, "other", ""}},
      std::move(option));
  auto st = sp::validate(*mgr);
  EXPECT_EQ(st.code(), support::Code::kNotFound);
}

TEST(SpValidate, RejectsSliceWithMultipleParblocks) {
  std::vector<NodePtr> blocks;
  blocks.push_back(sp::make_leaf(leaf("a", "", "s")));
  blocks.push_back(sp::make_leaf(leaf("b", "", "t")));
  NodePtr par = sp::make_par(ParShape::kSlice, 4, std::move(blocks));
  EXPECT_FALSE(sp::validate(*par).is_ok());
}

TEST(SpValidate, RejectsTaskWithReplicas) {
  std::vector<NodePtr> blocks;
  blocks.push_back(sp::make_leaf(leaf("a", "", "s")));
  NodePtr par = sp::make_par(ParShape::kTask, 3, std::move(blocks));
  EXPECT_FALSE(sp::validate(*par).is_ok());
}

TEST(SpValidate, RejectsEmptyParallel) {
  NodePtr par = sp::make_par(ParShape::kTask, 1, {});
  EXPECT_FALSE(sp::validate(*par).is_ok());
}

TEST(SpValidate, RejectsManagerWithoutQueue) {
  NodePtr mgr = sp::make_manager("m", "", {},
                                 sp::make_leaf(leaf("x", "", "a")));
  EXPECT_FALSE(sp::validate(*mgr).is_ok());
}

// --- crossdep / SP-form ----------------------------------------------------

NodePtr crossdep_region(int replicas) {
  std::vector<NodePtr> blocks;
  blocks.push_back(sp::make_leaf(leaf("h", "in", "tmp")));
  blocks.push_back(sp::make_leaf(leaf("v", "tmp", "out")));
  return sp::make_par(ParShape::kCrossDep, replicas, std::move(blocks));
}

TEST(SpForm, CrossdepIsNotSp) {
  NodePtr region = crossdep_region(4);
  EXPECT_FALSE(sp::is_sp_form(*region));
  EXPECT_TRUE(sp::is_sp_form(*simple_chain()));
}

TEST(SpForm, ToSpFormInsertsSyncPoints) {
  NodePtr region = crossdep_region(4);
  NodePtr sp_form = sp::to_sp_form(*region);
  EXPECT_TRUE(sp::is_sp_form(*sp_form));
  // Becomes a seq of two slice regions with the same replica count.
  ASSERT_EQ(sp_form->kind(), NodeKind::kSeq);
  ASSERT_EQ(sp_form->children.size(), 2u);
  for (const NodePtr& c : sp_form->children) {
    EXPECT_EQ(c->kind(), NodeKind::kPar);
    EXPECT_EQ(c->shape, ParShape::kSlice);
    EXPECT_EQ(c->replicas, 4);
  }
  // Same total expanded work.
  EXPECT_EQ(sp::stats(*sp_form).expanded_leaves,
            sp::stats(*region).expanded_leaves);
}

TEST(SpForm, ToSpFormIsIdentityOnSpGraphs) {
  NodePtr root = simple_chain();
  NodePtr converted = sp::to_sp_form(*root);
  EXPECT_EQ(sp::stats(*converted).leaves, 3);
  EXPECT_TRUE(sp::is_sp_form(*converted));
}

TEST(Dot, MentionsEveryInstance) {
  NodePtr root = simple_chain();
  std::string dot = sp::to_dot(*root, "test");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (const char* name : {"src", "mid", "sink"})
    EXPECT_NE(dot.find(name), std::string::npos) << name;
}

TEST(Dot, RendersAllNodeKinds) {
  NodePtr option = sp::make_option("opt", false,
                                   sp::make_leaf(leaf("x", "", "a")));
  NodePtr mgr = sp::make_manager(
      "m", "q", {EventRule{"e", EventAction::kEnable, "opt", ""}},
      std::move(option));
  std::vector<NodePtr> blocks;
  blocks.push_back(sp::make_leaf(leaf("w", "a", "b")));
  std::vector<NodePtr> steps;
  steps.push_back(std::move(mgr));
  steps.push_back(sp::make_par(ParShape::kSlice, 3, std::move(blocks)));
  std::string dot = sp::to_dot(*sp::make_seq(std::move(steps)));
  EXPECT_NE(dot.find("manager m enter"), std::string::npos);
  EXPECT_NE(dot.find("option opt"), std::string::npos);
  EXPECT_NE(dot.find("par slice n=3"), std::string::npos);
}

TEST(SpValidate, GroupAcceptsOnlyLeaves) {
  std::vector<NodePtr> comps;
  comps.push_back(sp::make_leaf(leaf("a", "", "s")));
  comps.push_back(sp::make_leaf(leaf("b", "s", "t")));
  NodePtr ok_group = sp::make_group(std::move(comps));
  EXPECT_TRUE(sp::validate(*ok_group).is_ok());

  std::vector<NodePtr> bad;
  bad.push_back(sp::make_seq({}));
  NodePtr bad_group = sp::make_group(std::move(bad));
  EXPECT_FALSE(sp::validate(*bad_group).is_ok());
  EXPECT_FALSE(sp::validate(*sp::make_group({})).is_ok());
}

TEST(SpGraph, GroupCountsLeaves) {
  std::vector<NodePtr> comps;
  comps.push_back(sp::make_leaf(leaf("a", "", "s")));
  comps.push_back(sp::make_leaf(leaf("b", "s", "t")));
  NodePtr g = sp::make_group(std::move(comps));
  EXPECT_EQ(sp::stats(*g).leaves, 2);
  EXPECT_STREQ(sp::kind_name(sp::NodeKind::kGroup), "group");
}

TEST(Names, EnumPrinters) {
  EXPECT_STREQ(sp::kind_name(NodeKind::kLeaf), "leaf");
  EXPECT_STREQ(sp::shape_name(ParShape::kCrossDep), "crossdep");
  EXPECT_STREQ(sp::action_name(EventAction::kForward), "forward");
}

}  // namespace
