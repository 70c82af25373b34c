#include "sp/transform.hpp"

namespace sp {
namespace {

NodePtr sp_rec(const Node& n) {
  if (n.kind() == NodeKind::kPar && n.shape == ParShape::kCrossDep) {
    // Each parblock becomes its own slice region; the implicit barrier
    // between seq steps is the added synchronization point.
    std::vector<NodePtr> steps;
    steps.reserve(n.children.size());
    for (const NodePtr& block : n.children) {
      std::vector<NodePtr> one;
      one.push_back(sp_rec(*block));
      steps.push_back(make_par(ParShape::kSlice, n.replicas, std::move(one)));
    }
    return make_seq(std::move(steps));
  }
  NodePtr copy = n.clone();
  copy->children.clear();
  for (const NodePtr& c : n.children) copy->children.push_back(sp_rec(*c));
  return copy;
}

}  // namespace

NodePtr to_sp_form(const Node& root) { return sp_rec(root); }

}  // namespace sp
