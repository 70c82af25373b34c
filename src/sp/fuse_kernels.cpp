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

// How many of a subtree's tasks one iteration runs side by side: the
// branches of a task parallel and the replicas of a slice add up, seq
// steps follow one another, and a group is one task.
int width(const Node& n) {
  if (n.kind() == NodeKind::kLeaf || n.kind() == NodeKind::kGroup) return 1;
  int w = 0;
  for (const NodePtr& c : n.children)
    w = n.kind() == NodeKind::kPar ? w + width(*c) : std::max(w, width(*c));
  if (n.kind() == NodeKind::kPar && n.shape != ParShape::kTask)
    w *= n.replicas;
  return std::max(w, 1);
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

// Whether the fused leaf of `leaves` stays reentrant: every matched leaf
// is, and the pattern's fused class is registered reentrant.
bool keeps_reentrant(const KernelFusionPattern& pattern,
                     const std::vector<const Node*>& leaves) {
  if (!pattern.reentrant) return false;
  for (const Node* leaf : leaves)
    if (!leaf->leaf.reentrant) return false;
  return true;
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
  // A fused class not registered reentrant may keep state between runs,
  // and a chain with a sequential leaf must stay in order, so only an
  // all-reentrant chain into a reentrant class keeps the opt-in. That
  // decides the flag, not whether the rewrite is taken (match_steps).
  spec.reentrant = keeps_reentrant(pattern, match.leaves);
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
  Rewriter(const KernelFusionRegistry& registry, int cores)
      : registry_(registry), cores_(cores) {}

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

  // --- inside a group: members are leaves in schedule order ---
  //
  // A contiguous member subsequence whose classes equal a pattern chain
  // collapses into one synthesized member. The group is already one
  // task, so the rewrite loses no parallelism and is always taken; what
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
  // leaf classes equal a pattern chain collapses into one leaf. The fused
  // leaf is one task, so the rewrite forfeits parallelism when a matched
  // step runs tasks side by side (slices or task branches), or when a
  // matched leaf is reentrant and the fused leaf does not stay so. Such a
  // rewrite is taken only for one core.
  void rewrite_seq(Node* seq) {
    size_t i = 0;
    while (i < seq->children.size()) {
      if (!match_steps(seq, i)) ++i;
    }
  }

  bool match_steps(Node* seq, size_t start) {
    for (const KernelFusionPattern& pattern : registry_.patterns()) {
      std::vector<const Node*> leaves;
      bool side_by_side = false;
      size_t end = start;
      bool viable = true;
      while (viable && end < seq->children.size() &&
             leaves.size() < pattern.klasses.size()) {
        const Node& step = *seq->children[end];
        if (!fusible_subtree(step)) break;
        const std::vector<const Node*> step_leaves = collect_leaves(step);
        if (step_leaves.empty()) break;
        for (const Node* leaf : step_leaves) {
          if (leaves.size() >= pattern.klasses.size() ||
              leaf->leaf.klass != pattern.klasses[leaves.size()]) {
            viable = false;
            break;
          }
          leaves.push_back(leaf);
        }
        if (!viable) break;
        side_by_side |= width(step) > 1;
        ++end;
      }
      if (!viable || leaves.size() != pattern.klasses.size()) continue;
      bool overlaps = false;
      for (const Node* leaf : leaves) overlaps |= leaf->leaf.reentrant;
      const bool forfeits =
          side_by_side || (overlaps && !keeps_reentrant(pattern, leaves));
      if (forfeits && cores_ > 1) continue;

      Match match;
      if (!chain_ok(leaves, *root_, &match)) continue;
      NodePtr fused = build_fused_leaf(pattern, match);
      if (!fused) continue;
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

  const KernelFusionRegistry& registry_;
  const int cores_;
  const Node* root_ = nullptr;
};

}  // namespace

Pass fuse_kernels_pass(const KernelFusionRegistry* patterns, int cores) {
  Pass p;
  p.name = "fuse-kernels";
  p.description =
      "rewrite registered component chains into single fused-loop "
      "components; the linking streams' packets never materialize";
  p.run = [patterns, cores](NodePtr g) -> support::Result<NodePtr> {
    if (patterns == nullptr || patterns->patterns().empty()) return g;
    Rewriter rewriter(*patterns, cores);
    rewriter.run(g);
    return g;
  };
  return p;
}

}  // namespace sp
