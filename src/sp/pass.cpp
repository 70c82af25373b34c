#include "sp/pass.hpp"

#include <set>
#include <utility>

#include "sp/fuse_kernels.hpp"
#include "sp/transform.hpp"
#include "sp/validate.hpp"

namespace sp {
namespace {

// --- normalize ----------------------------------------------------------------

// Flattens seq-in-seq nesting bottom-up. Splicing a nested seq's steps
// into its parent preserves the task DAG exactly: the nested seq's entry
// and exit edges are the same edges the spliced steps contribute, and
// leaves keep their depth-first order (task ids and labels are assigned
// in that order). Empty seq steps vanish with their (zero) children.
void normalize_rec(Node* n) {
  for (NodePtr& c : n->children) normalize_rec(c.get());
  if (n->kind() != NodeKind::kSeq) return;
  bool nested = false;
  for (const NodePtr& c : n->children)
    if (c->kind() == NodeKind::kSeq) nested = true;
  if (!nested) return;
  std::vector<NodePtr> flat;
  flat.reserve(n->children.size());
  for (NodePtr& c : n->children) {
    if (c->kind() == NodeKind::kSeq) {
      for (NodePtr& step : c->children) flat.push_back(std::move(step));
    } else {
      flat.push_back(std::move(c));
    }
  }
  n->children = std::move(flat);
}

// --- strip-dead-options -------------------------------------------------------

// An option is dead when no manager rule can ever flip it: it stays in
// its initial state forever. Disabled dead options are removed with
// their subtree; enabled ones lose the guard (the body is spliced in
// place). Options any enable/disable/toggle rule references are left
// alone — this is what lets the pass run on reconfigurable graphs.
std::set<std::string> referenced_options(const Node& root) {
  std::set<std::string> out;
  visit(root, [&](const Node& n) {
    if (n.kind() != NodeKind::kManager) return;
    for (const EventRule& r : n.rules) {
      switch (r.action) {
        case EventAction::kEnable:
        case EventAction::kDisable:
        case EventAction::kToggle:
          out.insert(r.target);
          break;
        case EventAction::kForward:
        case EventAction::kReconfigure:
          break;
      }
    }
  });
  return out;
}

// Returns nullptr when the subtree disappears entirely (a non-leaf left
// with no children is deleted too — an empty par/manager would not
// validate, and an empty seq step is a no-op).
NodePtr strip_dead_rec(NodePtr n, const std::set<std::string>& referenced) {
  if (n->kind() == NodeKind::kOption &&
      !referenced.count(n->option_name)) {
    if (!n->initially_enabled) return nullptr;
    return strip_dead_rec(std::move(n->children[0]), referenced);
  }
  std::vector<NodePtr> kept;
  kept.reserve(n->children.size());
  for (NodePtr& c : n->children) {
    NodePtr child = strip_dead_rec(std::move(c), referenced);
    if (child) kept.push_back(std::move(child));
  }
  n->children = std::move(kept);
  if (n->kind() != NodeKind::kLeaf && n->children.empty()) return nullptr;
  return n;
}

}  // namespace

PassOptions PassOptions::none() {
  PassOptions o;
  o.normalize = false;
  o.strip_dead_options = false;
  o.to_sp_form = false;
  o.fuse_kernels = false;
  o.verify = false;
  return o;
}

void PassManager::add(Pass pass) {
  SUP_CHECK_MSG(pass.run != nullptr, "pass with no run function");
  passes_.push_back(std::move(pass));
}

support::Result<NodePtr> PassManager::run(NodePtr graph) const {
  SUP_CHECK(graph != nullptr);
  const bool check = verify_ && validate(*graph).is_ok();
  for (const Pass& p : passes_) {
    support::Result<NodePtr> res = p.run(std::move(graph));
    if (!res.is_ok())
      return support::Status(res.status().code(),
                             "pass '" + p.name + "': " +
                                 res.status().message());
    graph = std::move(res).take();
    SUP_CHECK_MSG(graph != nullptr, "pass returned a null graph");
    if (check) {
      support::Status st = validate(*graph);
      if (!st.is_ok())
        return support::internal_error("pass '" + p.name +
                                       "' produced an invalid graph: " +
                                       st.message());
    }
    if (dump_) dump_(p.name, *graph);
  }
  return graph;
}

Pass normalize_pass() {
  Pass p;
  p.name = "normalize";
  p.description = "flatten nested seq nodes (task DAG unchanged)";
  p.run = [](NodePtr g) -> support::Result<NodePtr> {
    normalize_rec(g.get());
    return g;
  };
  return p;
}

Pass strip_dead_options_pass() {
  Pass p;
  p.name = "strip-dead-options";
  p.description =
      "remove options no manager rule references (disabled: drop subtree; "
      "enabled: drop the guard)";
  p.run = [](NodePtr g) -> support::Result<NodePtr> {
    std::set<std::string> referenced = referenced_options(*g);
    NodePtr out = strip_dead_rec(std::move(g), referenced);
    // An entirely dead application degenerates to an empty seq.
    return out ? std::move(out) : make_seq({});
  };
  return p;
}

Pass to_sp_form_pass() {
  Pass p;
  p.name = "to-sp-form";
  p.description =
      "rewrite crossdep regions into SP form by inserting sync points "
      "between parblocks (section 3.3)";
  p.run = [](NodePtr g) -> support::Result<NodePtr> {
    if (is_sp_form(*g)) return g;
    return to_sp_form(*g);
  };
  return p;
}

const std::vector<PassInfo>& registered_passes() {
  static const std::vector<PassInfo> kPasses = {
      {"normalize", normalize_pass().description, true},
      {"strip-dead-options", strip_dead_options_pass().description, true},
      {"to-sp-form", to_sp_form_pass().description, false},
      {"fuse-kernels", fuse_kernels_pass(nullptr, 1).description, false},
  };
  return kPasses;
}

support::Result<Pass> pass_by_name(const std::string& name,
                                   const PassOptions& options) {
  if (name == "normalize") return normalize_pass();
  if (name == "strip-dead-options") return strip_dead_options_pass();
  if (name == "to-sp-form") return to_sp_form_pass();
  if (name == "fuse-kernels")
    return fuse_kernels_pass(options.kernel_patterns, options.kernel_cores);
  std::string known;
  for (const PassInfo& p : registered_passes()) {
    if (!known.empty()) known += ", ";
    known += p.name;
  }
  return support::not_found("no pass named '" + name + "' (registered: " +
                            known + ")");
}

PassManager make_pipeline(const PassOptions& options) {
  PassManager pm;
  pm.set_verify(options.verify);
  if (options.normalize) pm.add(normalize_pass());
  if (options.strip_dead_options) pm.add(strip_dead_options_pass());
  if (options.to_sp_form) pm.add(to_sp_form_pass());
  if (options.fuse_kernels)
    pm.add(fuse_kernels_pass(options.kernel_patterns, options.kernel_cores));
  return pm;
}

std::string pass_fingerprint(const PassOptions& options) {
  std::string out;
  auto mark = [&](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (options.normalize) mark("normalize");
  if (options.strip_dead_options) mark("strip-dead-options");
  if (options.to_sp_form) mark("to-sp-form");
  if (options.fuse_kernels) {
    mark("fuse-kernels");
    if (options.kernel_patterns != nullptr) out += "+patterns";
    out += "@" + std::to_string(options.kernel_cores);
  }
  return out.empty() ? "none" : out;
}

}  // namespace sp
