#include "hinch/program.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace hinch {
namespace {

// (entries, exits) of a compiled subtree, as task ids.
struct Span {
  std::vector<int> entries;
  std::vector<int> exits;
  bool empty() const { return entries.empty() && exits.empty(); }
};

}  // namespace

class ProgramBuilder {
 public:
  ProgramBuilder(Program* prog, const ComponentRegistry& registry)
      : prog_(prog), registry_(registry) {}

  support::Status build(const sp::Node& root) {
    Span span;
    Ctx ctx;
    SUP_RETURN_IF_ERROR(compile(root, ctx, &span));
    for (const Task& t : prog_->tasks_)
      if (t.preds.empty()) prog_->entry_tasks_.push_back(t.id);
    // A task without successors ends its iteration. Keeping its self
    // edge is what makes iterations complete in order, so it cannot
    // opt out.
    for (const auto& [task, n] : reentrant_leaves_) {
      if (prog_->tasks_[static_cast<size_t>(task)].succs.empty())
        return support::failed_precondition(
            "component '" + n->leaf.instance +
            "' cannot be reentrant: nothing in its iteration runs after "
            "it" + sp::loc_suffix(n->loc));
    }
    return support::Status::ok();
  }

 private:
  struct Ctx {
    std::vector<int> options;   // enclosing option indices, outermost first
    int manager = -1;           // innermost enclosing manager
    bool sliced = false;        // inside a slice/crossdep copy
    int slice_index = 0;
    int slice_count = 1;
    std::string suffix;         // instance-name suffix for replicas
  };

  int add_task(TaskKind kind, const Ctx& ctx, std::string label) {
    Task t;
    t.id = static_cast<int>(prog_->tasks_.size());
    t.kind = kind;
    t.options = ctx.options;
    t.label = std::move(label);
    prog_->tasks_.push_back(std::move(t));
    return prog_->tasks_.back().id;
  }

  void connect(const std::vector<int>& exits,
               const std::vector<int>& entries) {
    for (int x : exits) {
      for (int e : entries) {
        prog_->tasks_[static_cast<size_t>(x)].succs.push_back(e);
        prog_->tasks_[static_cast<size_t>(e)].preds.push_back(x);
      }
    }
  }

  Stream* stream(const std::string& name) {
    auto it = prog_->stream_index_.find(name);
    if (it != prog_->stream_index_.end())
      return prog_->streams_[static_cast<size_t>(it->second)].get();
    int idx = static_cast<int>(prog_->streams_.size());
    prog_->streams_.push_back(
        std::make_unique<Stream>(name, prog_->config_.stream_depth));
    prog_->streams_.back()->set_index(idx);
    prog_->stream_index_[name] = idx;
    return prog_->streams_.back().get();
  }

  // Create and wire one component instance; returns its index.
  support::Result<int> instantiate(const sp::Node& n, const Ctx& ctx) {
    ComponentConfig config;
    config.instance = n.leaf.instance + ctx.suffix;
    for (const sp::Param& p : n.leaf.params) {
      if (config.params.count(p.name))
        return support::already_exists("duplicate parameter '" + p.name +
                                       "' on '" + config.instance + "'");
      config.params[p.name] = p.value;
    }
    auto created = registry_.create(n.leaf.klass, config);
    if (!created.is_ok())
      return support::Status(
          created.status().code(),
          "component '" + config.instance + "' (class " + n.leaf.klass +
              "): " + created.status().message() + sp::loc_suffix(n.loc));
    std::unique_ptr<Component> comp = std::move(created).take();
    if (!n.leaf.initial_reconfig.empty())
      comp->reconfigure(n.leaf.initial_reconfig);
    if (ctx.sliced) comp->assign_slice(ctx.slice_index, ctx.slice_count);

    // Bind ports. Every binding must name a declared port and every
    // declared port must end up bound.
    for (const sp::PortBinding& b : n.leaf.inputs) {
      int port = comp->find_input(b.port);
      if (port < 0)
        return support::not_found("component '" + config.instance +
                                  "' (class " + n.leaf.klass +
                                  ") has no input port '" + b.port + "'");
      comp->bind_input(port, stream(b.stream));
    }
    for (const sp::PortBinding& b : n.leaf.outputs) {
      int port = comp->find_output(b.port);
      if (port < 0)
        return support::not_found("component '" + config.instance +
                                  "' (class " + n.leaf.klass +
                                  ") has no output port '" + b.port + "'");
      comp->bind_output(port, stream(b.stream));
    }
    for (int i = 0; i < comp->input_count(); ++i) {
      if (!comp->input_stream(i))
        return support::failed_precondition(
            "input port '" + comp->input_name(i) + "' of '" +
            config.instance + "' is not connected to a stream");
    }
    for (int i = 0; i < comp->output_count(); ++i) {
      if (!comp->output_stream(i))
        return support::failed_precondition(
            "output port '" + comp->output_name(i) + "' of '" +
            config.instance + "' is not connected to a stream");
    }

    int comp_idx = static_cast<int>(prog_->components_.size());
    prog_->components_.push_back(std::move(comp));
    if (ctx.manager >= 0)
      prog_->managers_[static_cast<size_t>(ctx.manager)]
          .components.push_back(comp_idx);
    if (!ctx.options.empty())
      prog_->options_[static_cast<size_t>(ctx.options.back())]
          .components.push_back(comp_idx);
    return comp_idx;
  }

  support::Status compile_leaf(const sp::Node& n, const Ctx& ctx,
                               Span* out) {
    if (n.leaf.reentrant && !registry_.is_reentrant(n.leaf.klass))
      return support::failed_precondition(
          "component '" + n.leaf.instance + "' cannot be reentrant: class " +
          n.leaf.klass + " is not registered reentrant" +
          sp::loc_suffix(n.loc));
    SUP_ASSIGN_OR_RETURN(int comp_idx, instantiate(n, ctx));
    int task =
        add_task(TaskKind::kComponent, ctx, n.leaf.instance + ctx.suffix);
    prog_->tasks_[static_cast<size_t>(task)].components.push_back(comp_idx);
    if (n.leaf.reentrant) {
      prog_->tasks_[static_cast<size_t>(task)].reentrant = true;
      reentrant_leaves_.emplace_back(task, &n);
    }
    out->entries = {task};
    out->exits = {task};
    return support::Status::ok();
  }

  // A group becomes ONE task running its components back to back.
  support::Status compile_group(const sp::Node& n, const Ctx& ctx,
                                Span* out) {
    std::string label = "group(";
    std::vector<int> comps;
    for (const sp::NodePtr& c : n.children) {
      if (c->kind() != sp::NodeKind::kLeaf)
        return support::invalid_argument(
            "groups may only contain components");
      // The group's task runs its members back to back as one unit.
      if (c->leaf.reentrant)
        return support::failed_precondition(
            "component '" + c->leaf.instance +
            "' cannot be reentrant inside a <group>" + sp::loc_suffix(c->loc));
      SUP_ASSIGN_OR_RETURN(int comp_idx, instantiate(*c, ctx));
      comps.push_back(comp_idx);
      if (comps.size() > 1) label += "+";
      label += c->leaf.instance + ctx.suffix;
    }
    label += ")";
    int task = add_task(TaskKind::kComponent, ctx, label);
    prog_->tasks_[static_cast<size_t>(task)].components = std::move(comps);
    out->entries = {task};
    out->exits = {task};
    return support::Status::ok();
  }

  support::Status compile_par(const sp::Node& n, const Ctx& ctx, Span* out) {
    if (n.shape == sp::ParShape::kTask) {
      for (const sp::NodePtr& block : n.children) {
        Span child;
        SUP_RETURN_IF_ERROR(compile(*block, ctx, &child));
        out->entries.insert(out->entries.end(), child.entries.begin(),
                            child.entries.end());
        out->exits.insert(out->exits.end(), child.exits.begin(),
                          child.exits.end());
      }
      return support::Status::ok();
    }

    const int n_copies = n.replicas;
    if (n.shape == sp::ParShape::kSlice) {
      const sp::Node& body = *n.children[0];
      for (int i = 0; i < n_copies; ++i) {
        Ctx copy_ctx = ctx;
        copy_ctx.sliced = true;
        copy_ctx.slice_index = i;
        copy_ctx.slice_count = n_copies;
        copy_ctx.suffix = ctx.suffix + support::format("#%d", i);
        Span child;
        SUP_RETURN_IF_ERROR(compile(body, copy_ctx, &child));
        out->entries.insert(out->entries.end(), child.entries.begin(),
                            child.entries.end());
        out->exits.insert(out->exits.end(), child.exits.begin(),
                          child.exits.end());
      }
      return support::Status::ok();
    }

    // Crossdep (§3.3, Fig. 5): copies of parblock j depend on slices
    // i-1, i, i+1 of parblock j-1.
    std::vector<std::vector<Span>> blocks;
    blocks.reserve(n.children.size());
    for (size_t j = 0; j < n.children.size(); ++j) {
      blocks.emplace_back();
      for (int i = 0; i < n_copies; ++i) {
        Ctx copy_ctx = ctx;
        copy_ctx.sliced = true;
        copy_ctx.slice_index = i;
        copy_ctx.slice_count = n_copies;
        copy_ctx.suffix =
            ctx.suffix + support::format("#%zu.%d", j, i);
        Span child;
        SUP_RETURN_IF_ERROR(compile(*n.children[j], copy_ctx, &child));
        blocks.back().push_back(std::move(child));
      }
    }
    for (size_t j = 1; j < blocks.size(); ++j) {
      for (int i = 0; i < n_copies; ++i) {
        for (int d = -1; d <= 1; ++d) {
          int src = i + d;
          if (src < 0 || src >= n_copies) continue;
          connect(blocks[j - 1][static_cast<size_t>(src)].exits,
                  blocks[j][static_cast<size_t>(i)].entries);
        }
      }
    }
    for (const Span& s : blocks.front()) {
      out->entries.insert(out->entries.end(), s.entries.begin(),
                          s.entries.end());
    }
    for (const Span& s : blocks.back()) {
      out->exits.insert(out->exits.end(), s.exits.begin(), s.exits.end());
    }
    return support::Status::ok();
  }

  support::Status compile(const sp::Node& n, const Ctx& ctx, Span* out) {
    switch (n.kind()) {
      case sp::NodeKind::kLeaf:
        return compile_leaf(n, ctx, out);
      case sp::NodeKind::kGroup:
        return compile_group(n, ctx, out);
      case sp::NodeKind::kSeq: {
        Span whole;
        for (const sp::NodePtr& c : n.children) {
          Span child;
          SUP_RETURN_IF_ERROR(compile(*c, ctx, &child));
          if (child.empty()) continue;
          if (whole.empty()) {
            whole = std::move(child);
          } else {
            connect(whole.exits, child.entries);
            whole.exits = std::move(child.exits);
          }
        }
        *out = std::move(whole);
        return support::Status::ok();
      }
      case sp::NodeKind::kPar:
        return compile_par(n, ctx, out);
      case sp::NodeKind::kOption: {
        int opt_idx = static_cast<int>(prog_->options_.size());
        OptionInfo info;
        info.name = n.option_name + ctx.suffix;
        info.base = n.option_name;
        info.initially_enabled = n.initially_enabled;
        info.manager = ctx.manager;
        prog_->options_.push_back(std::move(info));
        if (ctx.manager >= 0)
          prog_->managers_[static_cast<size_t>(ctx.manager)]
              .options.push_back(opt_idx);
        Ctx inner = ctx;
        inner.options.push_back(opt_idx);
        return compile(*n.children[0], inner, out);
      }
      case sp::NodeKind::kManager: {
        int mgr_idx = static_cast<int>(prog_->managers_.size());
        ManagerInfo info;
        info.name = n.manager_name + ctx.suffix;
        info.queue = n.event_queue;
        info.rules = n.rules;
        const std::string mgr_name = info.name;
        prog_->managers_.push_back(std::move(info));
        prog_->queues_.get_or_create(n.event_queue);

        int enter =
            add_task(TaskKind::kManagerEnter, ctx, mgr_name + ".enter");
        prog_->tasks_[static_cast<size_t>(enter)].manager = mgr_idx;
        Ctx inner = ctx;
        inner.manager = mgr_idx;
        Span body;
        SUP_RETURN_IF_ERROR(compile(*n.children[0], inner, &body));
        int exit =
            add_task(TaskKind::kManagerExit, ctx, mgr_name + ".exit");
        prog_->tasks_[static_cast<size_t>(exit)].manager = mgr_idx;

        if (body.empty()) {
          connect({enter}, {exit});
        } else {
          connect({enter}, body.entries);
          connect(body.exits, {exit});
        }
        prog_->managers_[static_cast<size_t>(mgr_idx)].enter_task = enter;
        prog_->managers_[static_cast<size_t>(mgr_idx)].exit_task = exit;
        out->entries = {enter};
        out->exits = {exit};
        return support::Status::ok();
      }
    }
    return support::internal_error("unreachable node kind");
  }

  Program* prog_;
  const ComponentRegistry& registry_;
  // (task, leaf) of every reentrant opt-in, checked once the DAG is wired.
  std::vector<std::pair<int, const sp::Node*>> reentrant_leaves_;
};

support::Result<std::unique_ptr<Program>> Program::build(
    const sp::Node& root, const ComponentRegistry& registry,
    const BuildConfig& config) {
  auto prog = std::unique_ptr<Program>(new Program());
  prog->config_ = config;
  if (config.stream_depth < 1)
    return support::invalid_argument("stream_depth must be >= 1");
  // Run the configured SP-IR pipeline on a clone; compile whatever
  // comes out. With the default options this is the same normalized IR
  // the loader and the generated-codegen path see.
  sp::PassManager pipeline = sp::make_pipeline(config.passes);
  const sp::Node* effective = &root;
  sp::NodePtr transformed;
  if (!pipeline.empty()) {
    SUP_ASSIGN_OR_RETURN(transformed, pipeline.run(root.clone()));
    effective = transformed.get();
  }
  ProgramBuilder builder(prog.get(), registry);
  SUP_RETURN_IF_ERROR(builder.build(*effective));
  return prog;
}

Stream* Program::find_stream(const std::string& name) {
  auto it = stream_index_.find(name);
  return it == stream_index_.end()
             ? nullptr
             : streams_[static_cast<size_t>(it->second)].get();
}

std::string Program::task_graph_dot(const std::string& title) const {
  std::string out = "digraph \"" + title + "\" {\n  rankdir=LR;\n";
  for (const Task& t : tasks_) {
    const char* shape = t.kind == TaskKind::kComponent
                            ? (t.components.size() > 1 ? "box3d" : "box")
                            : "house";
    std::string label = t.label;
    if (!t.options.empty()) label += "\\n[optional]";
    // Reentrant tasks overlap across iterations: dashed, and tagged.
    if (t.reentrant) label += "\\n[reentrant]";
    out += support::format("  t%d [shape=%s%s,label=\"%s\"];\n", t.id, shape,
                           t.reentrant ? ",style=dashed" : "", label.c_str());
  }
  for (const Task& t : tasks_) {
    for (int s : t.succs)
      out += support::format("  t%d -> t%d;\n", t.id, s);
  }
  out += "}\n";
  return out;
}

}  // namespace hinch
