#include "sp/fuse_kernels.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace sp {

void KernelFusionRegistry::add(KernelFusionPattern pattern) {
  SUP_CHECK_MSG(!pattern.name.empty(), "fusion pattern with no name");
  SUP_CHECK_MSG(pattern.klasses.size() >= 2,
                "fusion pattern needs a chain of at least two classes");
  SUP_CHECK_MSG(pattern.rewrite != nullptr,
                "fusion pattern with no rewrite function");
  patterns_.push_back(std::move(pattern));
}

namespace {

// Whether scheduling the whole subtree as one sequential unit is legal:
// options and managers need their own tasks (they gate / reconfigure at
// run time), and crossdep regions carry cross-replica dependencies a
// flattened order would hide.
bool fusible_subtree(const Node& n) {
  switch (n.kind()) {
    case NodeKind::kLeaf:
    case NodeKind::kGroup:
      return true;
    case NodeKind::kOption:
    case NodeKind::kManager:
      return false;
    case NodeKind::kPar:
      if (n.shape == ParShape::kCrossDep) return false;
      break;
    case NodeKind::kSeq:
      break;
  }
  for (const NodePtr& c : n.children)
    if (!fusible_subtree(*c)) return false;
  return true;
}

// A seq step's leaves in depth-first (schedule) order and the maximum
// slice replication multiplying any of them.
struct StepIo {
  std::vector<const Node*> leaves;
  int max_replicas = 1;
};

void scan_step(const Node& n, int mult, StepIo* io) {
  if (n.kind() == NodeKind::kLeaf) {
    io->leaves.push_back(&n);
    io->max_replicas = std::max(io->max_replicas, mult);
    return;
  }
  if (n.kind() == NodeKind::kPar && n.shape != ParShape::kTask)
    mult *= n.replicas;
  for (const NodePtr& c : n.children) scan_step(*c, mult, io);
}

StepIo step_io(const Node& n) {
  StepIo io;
  scan_step(n, 1, &io);
  return io;
}

// Global stream fan-in/fan-out, counted over leaf port bindings. Used
// to decline rewrites whose link streams have consumers or producers
// outside the match.
struct StreamUse {
  int readers = 0;
  int writers = 0;
};

std::map<std::string, StreamUse> scan_stream_uses(const Node& root) {
  std::map<std::string, StreamUse> uses;
  visit(root, [&](const Node& n) {
    if (n.kind() != NodeKind::kLeaf) return;
    for (const PortBinding& b : n.leaf.inputs) ++uses[b.stream].readers;
    for (const PortBinding& b : n.leaf.outputs) ++uses[b.stream].writers;
  });
  return uses;
}

// A klass-matched chain that also passed the structural safety checks.
struct Match {
  std::vector<const Node*> leaves;  // chain order
  std::vector<std::string> links;   // streams internal to the match
};

// Structural safety: the chain must be stream-connected (each member
// after the first reads something an earlier member wrote), and every
// internal link must have all of its readers and writers inside the
// match — otherwise the link packet still parks for the external
// consumer and eliding it would starve that consumer.
bool chain_ok(const std::vector<const Node*>& leaves, const Node& root,
              Match* out) {
  std::set<std::string> written;
  std::map<std::string, int> match_readers;
  std::map<std::string, int> match_writers;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const LeafSpec& leaf = leaves[i]->leaf;
    if (i > 0) {
      bool connected = false;
      for (const PortBinding& b : leaf.inputs)
        if (written.count(b.stream)) connected = true;
      if (!connected) return false;
    }
    for (const PortBinding& b : leaf.inputs) ++match_readers[b.stream];
    for (const PortBinding& b : leaf.outputs) {
      written.insert(b.stream);
      ++match_writers[b.stream];
    }
  }
  std::map<std::string, StreamUse> uses = scan_stream_uses(root);
  std::vector<std::string> links;
  for (const auto& [stream, writers] : match_writers) {
    auto readers = match_readers.find(stream);
    if (readers == match_readers.end()) continue;  // external output
    const StreamUse& use = uses[stream];
    if (use.readers != readers->second || use.writers != writers)
      return false;  // the link has users outside the match
    links.push_back(stream);
  }
  if (links.empty()) return false;
  out->leaves = leaves;
  out->links = std::move(links);
  return true;
}

FusionCandidate make_candidate(const Match& match, int lost_replicas) {
  FusionCandidate cand;
  cand.run_leaves.assign(match.leaves.begin(), match.leaves.end() - 1);
  cand.step_leaves.push_back(match.leaves.back());
  cand.link_streams = match.links;
  cand.lost_replicas = lost_replicas;
  return cand;
}

// Runs the pattern's rewrite and annotates the result. A rewrite error
// declines the candidate (nullptr) — it is the pattern's way of saying
// "this parameter combination has no fused kernel".
NodePtr build_fused_leaf(const KernelFusionPattern& pattern,
                         const Match& match) {
  std::vector<const LeafSpec*> specs;
  specs.reserve(match.leaves.size());
  for (const Node* leaf : match.leaves) specs.push_back(&leaf->leaf);
  support::Result<LeafSpec> fused = pattern.rewrite(specs);
  if (!fused.is_ok()) return nullptr;
  LeafSpec spec = std::move(fused).take();
  // A fused kernel may keep scratch between runs (jpeg_decode_planes
  // does), so the fused leaf stays sequential with itself even when a
  // leaf it replaces was reentrant.
  spec.reentrant = false;
  spec.fused_pattern = pattern.name;
  spec.fused_from.clear();
  for (const Node* leaf : match.leaves)
    spec.fused_from.push_back(leaf->leaf.instance);
  NodePtr node = make_leaf(std::move(spec));
  node->loc = match.leaves.front()->loc;
  return node;
}

class Rewriter {
 public:
  Rewriter(const KernelFusionRegistry& registry, const FusionAdvisor& advisor)
      : registry_(registry), advisor_(advisor) {}

  void run(NodePtr& root) {
    root_ = root.get();
    recurse(root);
  }

 private:
  void recurse(NodePtr& n) {
    for (NodePtr& c : n->children) recurse(c);
    if (n->kind() == NodeKind::kSeq) rewrite_seq(n.get());
    if (n->kind() == NodeKind::kGroup) rewrite_group(n);
  }

  bool approved(const Match& match, int lost_replicas) const {
    return !advisor_ || advisor_(make_candidate(match, lost_replicas));
  }

  // --- inside a group: members are leaves in schedule order ---
  //
  // A contiguous member subsequence whose classes equal a pattern chain
  // collapses into one synthesized member. The group is already one
  // task, so the rewrite loses no parallelism (lost_replicas = 1); what
  // it removes is the intermediate packet round-trip.
  void rewrite_group(NodePtr& group) {
    Node* g = group.get();
    size_t i = 0;
    while (i < g->children.size()) {
      NodePtr fused = match_members(*g, i);
      if (fused) {
        // match_members already erased the matched range.
        g->children.insert(
            g->children.begin() + static_cast<ptrdiff_t>(i),
            std::move(fused));
      }
      ++i;
    }
    // A group reduced to one member is just that component.
    if (g->children.size() == 1) {
      NodePtr only = std::move(g->children[0]);
      group = std::move(only);
    }
  }

  NodePtr match_members(Node& g, size_t start) {
    for (const KernelFusionPattern& pattern : registry_.patterns()) {
      const size_t len = pattern.klasses.size();
      if (start + len > g.children.size()) continue;
      bool klasses_match = true;
      for (size_t k = 0; k < len && klasses_match; ++k)
        klasses_match =
            g.children[start + k]->leaf.klass == pattern.klasses[k];
      if (!klasses_match) continue;
      std::vector<const Node*> leaves;
      leaves.reserve(len);
      for (size_t k = 0; k < len; ++k)
        leaves.push_back(g.children[start + k].get());
      Match match;
      if (!chain_ok(leaves, *root_, &match)) continue;
      if (!approved(match, /*lost_replicas=*/1)) continue;
      NodePtr fused = build_fused_leaf(pattern, match);
      if (!fused) continue;
      g.children.erase(
          g.children.begin() + static_cast<ptrdiff_t>(start),
          g.children.begin() + static_cast<ptrdiff_t>(start + len));
      return fused;
    }
    return nullptr;
  }

  // --- across seq steps ---
  //
  // A run of consecutive fusible steps whose concatenated depth-first
  // leaf classes equal a pattern chain collapses into one step. The
  // general rewrite is a single leaf (the chain's slice replication is
  // forfeit — priced by the advisor); a slice_preserving pattern whose
  // matched steps are equally-sliced single-leaf par-slice blocks keeps
  // the par-slice wrapper and loses nothing.
  void rewrite_seq(Node* seq) {
    size_t i = 0;
    while (i < seq->children.size()) {
      if (!match_steps(seq, i)) ++i;
    }
  }

  bool match_steps(Node* seq, size_t start) {
    for (const KernelFusionPattern& pattern : registry_.patterns()) {
      std::vector<const Node*> leaves;
      std::vector<StepIo> ios;
      size_t consumed = 0;
      size_t end = start;
      bool viable = true;
      while (viable && end < seq->children.size() &&
             consumed < pattern.klasses.size()) {
        const Node& step = *seq->children[end];
        if (!fusible_subtree(step)) break;
        StepIo io = step_io(step);
        if (io.leaves.empty()) break;
        for (const Node* leaf : io.leaves) {
          if (consumed >= pattern.klasses.size() ||
              leaf->leaf.klass != pattern.klasses[consumed]) {
            viable = false;
            break;
          }
          ++consumed;
          leaves.push_back(leaf);
        }
        if (!viable) break;
        ios.push_back(std::move(io));
        ++end;
      }
      if (!viable || consumed != pattern.klasses.size()) continue;

      Match match;
      if (!chain_ok(leaves, *root_, &match)) continue;

      const bool sliced = pattern.slice_preserving &&
                          slice_preserving_steps(*seq, start, end);
      int lost = 1;
      if (!sliced)
        for (const StepIo& io : ios)
          lost = std::max(lost, io.max_replicas);
      if (!approved(match, lost)) continue;
      NodePtr fused = build_fused_leaf(pattern, match);
      if (!fused) continue;
      if (sliced) {
        const int replicas = seq->children[start]->replicas;
        std::vector<NodePtr> body;
        body.push_back(std::move(fused));
        fused = make_par(ParShape::kSlice, replicas, std::move(body));
      }
      seq->children.erase(
          seq->children.begin() + static_cast<ptrdiff_t>(start),
          seq->children.begin() + static_cast<ptrdiff_t>(end));
      seq->children.insert(
          seq->children.begin() + static_cast<ptrdiff_t>(start),
          std::move(fused));
      return true;
    }
    return false;
  }

  // Every step in [start, end) is a par-slice with the same replica
  // count and a single leaf parblock — the shape under which a
  // slice_preserving pattern may keep the slicing (band i of each stage
  // depends only on band i of the previous one).
  static bool slice_preserving_steps(const Node& seq, size_t start,
                                     size_t end) {
    int replicas = 0;
    for (size_t i = start; i < end; ++i) {
      const Node& step = *seq.children[i];
      if (step.kind() != NodeKind::kPar || step.shape != ParShape::kSlice)
        return false;
      if (step.children.size() != 1 ||
          step.children[0]->kind() != NodeKind::kLeaf)
        return false;
      if (replicas == 0) replicas = step.replicas;
      if (step.replicas != replicas) return false;
    }
    return replicas > 0;
  }

  const KernelFusionRegistry& registry_;
  const FusionAdvisor& advisor_;
  const Node* root_ = nullptr;
};

}  // namespace

Pass fuse_kernels_pass(const KernelFusionRegistry* patterns,
                       FusionAdvisor advisor) {
  Pass p;
  p.name = "fuse-kernels";
  p.description =
      "rewrite registered component chains into single fused-loop "
      "components; the linking streams' packets never materialize";
  p.run = [patterns, advisor = std::move(advisor)](
              NodePtr g) -> support::Result<NodePtr> {
    if (patterns == nullptr || patterns->patterns().empty()) return g;
    Rewriter rewriter(*patterns, advisor);
    rewriter.run(g);
    return g;
  };
  return p;
}

}  // namespace sp
