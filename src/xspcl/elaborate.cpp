#include "xspcl/elaborate.hpp"

#include <cctype>
#include <map>
#include <set>

#include "support/strings.hpp"

namespace xspcl {
namespace {

using ast::Node;

std::string join_scope(const std::string& scope, const std::string& name) {
  return scope.empty() ? name : scope + "/" + name;
}

struct Env {
  std::map<std::string, std::string> values;   // value formal -> text
  std::map<std::string, std::string> streams;  // stream formal -> resolved
  std::string scope;
};

support::Status err_at(xml::Position pos, const std::string& what) {
  return support::invalid_argument(
      support::format("XSPCL elaboration at %d:%d: %s", pos.line, pos.column,
                      what.c_str()));
}

support::Result<std::string> subst(const std::string& text, const Env& env,
                                   xml::Position pos) {
  std::map<std::string, std::string> bindings = env.values;
  // Stream formals may also appear in value contexts (e.g. queue names
  // derived from a stream); they substitute to the resolved stream name.
  for (const auto& [k, v] : env.streams) bindings.emplace(k, v);
  auto result = substitute(text, bindings);
  if (!result.is_ok()) return err_at(pos, result.status().message());
  return result;
}

// Resolve a stream reference: a stream formal (optionally written with a
// leading $) maps to the caller's stream; anything else is local to the
// current scope.
support::Result<std::string> resolve_stream(const std::string& raw,
                                            const Env& env,
                                            xml::Position pos) {
  std::string token = raw;
  if (!token.empty() && token[0] == '$') {
    token = token.substr(1);
    if (!token.empty() && token.front() == '{' && token.back() == '}')
      token = token.substr(1, token.size() - 2);
  }
  auto it = env.streams.find(token);
  if (it != env.streams.end()) return it->second;
  if (raw[0] == '$') {
    // A $reference that is not a stream formal must be a value formal
    // holding a stream name.
    SUP_ASSIGN_OR_RETURN(std::string v, subst(raw, env, pos));
    return join_scope(env.scope, v);
  }
  return join_scope(env.scope, raw);
}

class Elaborator {
 public:
  explicit Elaborator(const ast::Program& program) : program_(program) {}

  support::Result<sp::NodePtr> run(const std::string& entry) {
    const ast::Procedure* proc = program_.find(entry);
    if (!proc)
      return support::not_found("XSPCL: no procedure named '" + entry + "'");
    if (!proc->formals.empty())
      return support::invalid_argument(
          "XSPCL: entry procedure '" + entry + "' must take no parameters");
    Env env;
    call_stack_.insert(entry);
    return elaborate_node(*proc->body, env);
  }

 private:
  // Stamps every elaborated node with the position of the XML element it
  // came from, so downstream diagnostics (sp::validate, pass
  // verification) can point back into the spec. A call site keeps its
  // body's own position — the leaves inside carry theirs regardless.
  support::Result<sp::NodePtr> elaborate_node(const Node& n, const Env& env) {
    SUP_ASSIGN_OR_RETURN(sp::NodePtr out, elaborate_node_impl(n, env));
    if (n.kind != ast::Kind::kCall)
      out->loc = sp::SourceLoc{n.pos.line, n.pos.column};
    return out;
  }

  support::Result<sp::NodePtr> elaborate_node_impl(const Node& n,
                                                   const Env& env) {
    switch (n.kind) {
      case ast::Kind::kSeq: {
        std::vector<sp::NodePtr> steps;
        for (const ast::NodePtr& c : n.children) {
          SUP_ASSIGN_OR_RETURN(sp::NodePtr child, elaborate_node(*c, env));
          steps.push_back(std::move(child));
        }
        return sp::make_seq(std::move(steps));
      }
      case ast::Kind::kComponent: {
        sp::LeafSpec leaf;
        leaf.instance = join_scope(env.scope, n.name);
        leaf.klass = n.klass;
        for (const sp::Param& p : n.params) {
          SUP_ASSIGN_OR_RETURN(std::string v, subst(p.value, env, n.pos));
          leaf.params.push_back({p.name, std::move(v)});
        }
        for (const sp::PortBinding& b : n.inputs) {
          SUP_ASSIGN_OR_RETURN(std::string s,
                               resolve_stream(b.stream, env, n.pos));
          leaf.inputs.push_back({b.port, std::move(s)});
        }
        for (const sp::PortBinding& b : n.outputs) {
          SUP_ASSIGN_OR_RETURN(std::string s,
                               resolve_stream(b.stream, env, n.pos));
          leaf.outputs.push_back({b.port, std::move(s)});
        }
        if (!n.reconfig.empty()) {
          SUP_ASSIGN_OR_RETURN(leaf.initial_reconfig,
                               subst(n.reconfig, env, n.pos));
        }
        if (!n.reentrant.empty()) {
          SUP_ASSIGN_OR_RETURN(std::string r, subst(n.reentrant, env, n.pos));
          if (r == "true" || r == "1") {
            leaf.reentrant = true;
          } else if (r != "false" && r != "0") {
            return err_at(n.pos, "reentrant= must be true/false, got '" + r +
                                     "'");
          }
        }
        return sp::make_leaf(std::move(leaf));
      }
      case ast::Kind::kCall:
        return elaborate_call(n, env);
      case ast::Kind::kGroup: {
        std::vector<sp::NodePtr> comps;
        for (const ast::NodePtr& c : n.children) {
          SUP_ASSIGN_OR_RETURN(sp::NodePtr comp, elaborate_node(*c, env));
          comps.push_back(std::move(comp));
        }
        return sp::make_group(std::move(comps));
      }
      case ast::Kind::kParallel: {
        SUP_ASSIGN_OR_RETURN(std::string n_text,
                             subst(n.replicas_expr, env, n.pos));
        auto n_val = support::parse_int(n_text);
        if (!n_val.is_ok() || n_val.value() < 1 || n_val.value() > 4096)
          return err_at(n.pos, "parallel n= must be an integer in [1,4096]"
                               ", got '" + n_text + "'");
        std::vector<sp::NodePtr> blocks;
        for (const ast::NodePtr& c : n.children) {
          SUP_ASSIGN_OR_RETURN(sp::NodePtr block, elaborate_node(*c, env));
          blocks.push_back(std::move(block));
        }
        return sp::make_par(n.shape, static_cast<int>(n_val.value()),
                            std::move(blocks));
      }
      case ast::Kind::kOption: {
        SUP_ASSIGN_OR_RETURN(sp::NodePtr body,
                             elaborate_node(*n.children[0], env));
        return sp::make_option(join_scope(env.scope, n.option_name),
                               n.enabled, std::move(body));
      }
      case ast::Kind::kManager: {
        SUP_ASSIGN_OR_RETURN(std::string queue, subst(n.queue, env, n.pos));
        std::vector<sp::EventRule> rules;
        for (const sp::EventRule& r : n.rules) {
          sp::EventRule rule = r;
          SUP_ASSIGN_OR_RETURN(rule.event, subst(r.event, env, n.pos));
          SUP_ASSIGN_OR_RETURN(rule.target, subst(r.target, env, n.pos));
          SUP_ASSIGN_OR_RETURN(rule.payload, subst(r.payload, env, n.pos));
          if (rule.action == sp::EventAction::kEnable ||
              rule.action == sp::EventAction::kDisable ||
              rule.action == sp::EventAction::kToggle) {
            rule.target = join_scope(env.scope, rule.target);
          }
          rules.push_back(std::move(rule));
        }
        SUP_ASSIGN_OR_RETURN(sp::NodePtr body,
                             elaborate_node(*n.children[0], env));
        return sp::make_manager(join_scope(env.scope, n.manager_name),
                                std::move(queue), std::move(rules),
                                std::move(body));
      }
    }
    return support::internal_error("unreachable AST kind");
  }

  support::Result<sp::NodePtr> elaborate_call(const Node& n, const Env& env) {
    const ast::Procedure* proc = program_.find(n.callee);
    if (!proc)
      return err_at(n.pos, "call to unknown procedure '" + n.callee + "'");
    if (call_stack_.count(n.callee))
      return err_at(n.pos,
                    "recursive call to '" + n.callee +
                        "' (recursion is not supported, §3.2)");

    Env callee;
    SUP_ASSIGN_OR_RETURN(std::string label, subst(n.call_name, env, n.pos));
    callee.scope = join_scope(env.scope, label);

    std::set<std::string> bound;
    for (const ast::Arg& arg : n.args) {
      const ast::Formal* formal = proc->find_formal(arg.name);
      if (!formal)
        return err_at(n.pos, "procedure '" + n.callee +
                                 "' has no formal '" + arg.name + "'");
      if (!bound.insert(arg.name).second)
        return err_at(n.pos, "argument '" + arg.name + "' bound twice");
      if (formal->kind == ast::Formal::Kind::kStream) {
        if (!arg.is_stream)
          return err_at(n.pos, "formal '" + arg.name +
                                   "' is a stream; pass it with stream=");
        SUP_ASSIGN_OR_RETURN(std::string resolved,
                             resolve_stream(arg.value, env, n.pos));
        callee.streams[arg.name] = std::move(resolved);
      } else {
        if (arg.is_stream)
          return err_at(n.pos, "formal '" + arg.name +
                                   "' is a value; pass it with value=");
        SUP_ASSIGN_OR_RETURN(std::string v, subst(arg.value, env, n.pos));
        callee.values[arg.name] = std::move(v);
      }
    }
    for (const ast::Formal& f : proc->formals) {
      if (bound.count(f.name)) continue;
      if (f.kind == ast::Formal::Kind::kValue && f.has_default) {
        callee.values[f.name] = f.fallback;
        continue;
      }
      return err_at(n.pos, "call to '" + n.callee +
                               "' is missing argument '" + f.name + "'");
    }

    call_stack_.insert(n.callee);
    auto body = elaborate_node(*proc->body, callee);
    call_stack_.erase(n.callee);
    return body;
  }

  const ast::Program& program_;
  std::set<std::string> call_stack_;
};

}  // namespace

support::Result<std::string> substitute(
    const std::string& text,
    const std::map<std::string, std::string>& bindings) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '$') {
      out += text[i];
      continue;
    }
    if (i + 1 < text.size() && text[i + 1] == '$') {
      out += '$';
      ++i;
      continue;
    }
    size_t start = i + 1;
    std::string name;
    if (start < text.size() && text[start] == '{') {
      size_t close = text.find('}', start);
      if (close == std::string::npos)
        return support::invalid_argument("unterminated ${...} in '" + text +
                                         "'");
      name = text.substr(start + 1, close - start - 1);
      i = close;
    } else {
      size_t end = start;
      while (end < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[end])) ||
              text[end] == '_'))
        ++end;
      name = text.substr(start, end - start);
      i = end - 1;
    }
    if (name.empty())
      return support::invalid_argument("dangling '$' in '" + text + "'");
    auto it = bindings.find(name);
    if (it == bindings.end())
      return support::invalid_argument("unknown parameter '$" + name +
                                       "' in '" + text + "'");
    out += it->second;
  }
  return out;
}

support::Result<sp::NodePtr> elaborate(const ast::Program& program,
                                       const std::string& entry) {
  Elaborator e(program);
  return e.run(entry);
}

}  // namespace xspcl
