#include "xspcl/parser.hpp"

#include <filesystem>
#include <set>

#include "support/strings.hpp"
#include "xml/parser.hpp"

namespace xspcl {
namespace {

using ast::Node;
using ast::NodePtr;

support::Status err(const xml::Element& e, const std::string& what) {
  return support::invalid_argument("XSPCL: " + e.describe() + ": " + what);
}

support::Result<NodePtr> parse_body(const xml::Element& e);

support::Result<NodePtr> parse_component(const xml::Element& e) {
  auto node = std::make_unique<Node>();
  node->kind = ast::Kind::kComponent;
  node->pos = e.position();
  SUP_ASSIGN_OR_RETURN(node->name, e.require_attr("name"));
  SUP_ASSIGN_OR_RETURN(node->klass, e.require_attr("class"));
  node->reentrant = e.attr_or("reentrant", "");
  if (!support::is_identifier(node->name))
    return err(e, "component name '" + node->name +
                   "' is not a valid identifier");
  for (const xml::ElementPtr& c : e.children()) {
    if (c->name() == "param") {
      SUP_ASSIGN_OR_RETURN(std::string pname, c->require_attr("name"));
      SUP_ASSIGN_OR_RETURN(std::string pvalue, c->require_attr("value"));
      node->params.push_back({std::move(pname), std::move(pvalue)});
    } else if (c->name() == "inport" || c->name() == "outport") {
      SUP_ASSIGN_OR_RETURN(std::string port, c->require_attr("name"));
      SUP_ASSIGN_OR_RETURN(std::string stream, c->require_attr("stream"));
      auto& list = c->name() == "inport" ? node->inputs : node->outputs;
      list.push_back({std::move(port), std::move(stream)});
    } else if (c->name() == "reconfig") {
      SUP_ASSIGN_OR_RETURN(node->reconfig, c->require_attr("request"));
    } else {
      return err(*c, "unexpected tag inside <component>");
    }
  }
  return NodePtr(std::move(node));
}

support::Result<NodePtr> parse_call(const xml::Element& e) {
  auto node = std::make_unique<Node>();
  node->kind = ast::Kind::kCall;
  node->pos = e.position();
  SUP_ASSIGN_OR_RETURN(node->callee, e.require_attr("procedure"));
  node->call_name = e.attr_or("name", node->callee);
  for (const xml::ElementPtr& c : e.children()) {
    if (c->name() != "arg") return err(*c, "only <arg> allowed in <call>");
    ast::Arg arg;
    SUP_ASSIGN_OR_RETURN(arg.name, c->require_attr("name"));
    if (const std::string* s = c->find_attr("stream")) {
      arg.value = *s;
      arg.is_stream = true;
    } else if (const std::string* v = c->find_attr("value")) {
      arg.value = *v;
      arg.is_stream = false;
    } else {
      return err(*c, "<arg> needs a stream= or value= attribute");
    }
    node->args.push_back(std::move(arg));
  }
  return NodePtr(std::move(node));
}

support::Result<NodePtr> parse_parallel(const xml::Element& e) {
  auto node = std::make_unique<Node>();
  node->kind = ast::Kind::kParallel;
  node->pos = e.position();
  SUP_ASSIGN_OR_RETURN(std::string shape, e.require_attr("shape"));
  if (shape == "task") {
    node->shape = sp::ParShape::kTask;
  } else if (shape == "slice") {
    node->shape = sp::ParShape::kSlice;
  } else if (shape == "crossdep") {
    node->shape = sp::ParShape::kCrossDep;
  } else {
    return err(e, "unknown parallel shape '" + shape +
                   "' (task, slice, crossdep)");
  }
  node->replicas_expr = e.attr_or("n", "1");
  if (node->shape != sp::ParShape::kTask && !e.has_attr("n"))
    return err(e, "slice/crossdep parallel regions need an n= attribute");
  for (const xml::ElementPtr& c : e.children()) {
    if (c->name() != "parblock")
      return err(*c, "only <parblock> allowed in <parallel>");
    SUP_ASSIGN_OR_RETURN(NodePtr block, parse_body(*c));
    node->children.push_back(std::move(block));
  }
  if (node->children.empty())
    return err(e, "<parallel> needs at least one <parblock>");
  return NodePtr(std::move(node));
}

// <group>: components fused into one schedulable entity (§4.1).
support::Result<NodePtr> parse_group(const xml::Element& e) {
  auto node = std::make_unique<Node>();
  node->kind = ast::Kind::kGroup;
  node->pos = e.position();
  for (const xml::ElementPtr& c : e.children()) {
    if (c->name() != "component")
      return err(*c, "only <component> allowed inside <group>");
    SUP_ASSIGN_OR_RETURN(NodePtr comp, parse_component(*c));
    node->children.push_back(std::move(comp));
  }
  if (node->children.empty())
    return err(e, "<group> needs at least one <component>");
  return NodePtr(std::move(node));
}

support::Result<NodePtr> parse_option(const xml::Element& e) {
  auto node = std::make_unique<Node>();
  node->kind = ast::Kind::kOption;
  node->pos = e.position();
  SUP_ASSIGN_OR_RETURN(node->option_name, e.require_attr("name"));
  std::string enabled = e.attr_or("enabled", "true");
  if (enabled == "true" || enabled == "1") {
    node->enabled = true;
  } else if (enabled == "false" || enabled == "0") {
    node->enabled = false;
  } else {
    return err(e, "enabled= must be true/false");
  }
  SUP_ASSIGN_OR_RETURN(NodePtr body, parse_body(e));
  node->children.push_back(std::move(body));
  return NodePtr(std::move(node));
}

support::Result<NodePtr> parse_manager(const xml::Element& e) {
  auto node = std::make_unique<Node>();
  node->kind = ast::Kind::kManager;
  node->pos = e.position();
  SUP_ASSIGN_OR_RETURN(node->manager_name, e.require_attr("name"));
  SUP_ASSIGN_OR_RETURN(node->queue, e.require_attr("queue"));
  const xml::Element* body_elem = nullptr;
  for (const xml::ElementPtr& c : e.children()) {
    if (c->name() == "on") {
      sp::EventRule rule;
      SUP_ASSIGN_OR_RETURN(rule.event, c->require_attr("event"));
      SUP_ASSIGN_OR_RETURN(std::string action, c->require_attr("action"));
      if (action == "enable" || action == "disable" || action == "toggle") {
        rule.action = action == "enable" ? sp::EventAction::kEnable
                      : action == "disable" ? sp::EventAction::kDisable
                                            : sp::EventAction::kToggle;
        SUP_ASSIGN_OR_RETURN(rule.target, c->require_attr("option"));
      } else if (action == "forward") {
        rule.action = sp::EventAction::kForward;
        SUP_ASSIGN_OR_RETURN(rule.target, c->require_attr("queue"));
      } else if (action == "reconfigure") {
        rule.action = sp::EventAction::kReconfigure;
        rule.payload = c->attr_or("payload", "");
      } else {
        return err(*c, "unknown action '" + action +
                       "' (enable, disable, toggle, forward, reconfigure)");
      }
      node->rules.push_back(std::move(rule));
    } else if (c->name() == "body") {
      if (body_elem) return err(*c, "<manager> has more than one <body>");
      body_elem = c.get();
    } else {
      return err(*c, "unexpected tag inside <manager>");
    }
  }
  if (!body_elem) return err(e, "<manager> needs a <body>");
  SUP_ASSIGN_OR_RETURN(NodePtr body, parse_body(*body_elem));
  node->children.push_back(std::move(body));
  return NodePtr(std::move(node));
}

// Parse the children of `e` as a sequential body (a kSeq node).
support::Result<NodePtr> parse_body(const xml::Element& e) {
  auto seq = std::make_unique<Node>();
  seq->kind = ast::Kind::kSeq;
  seq->pos = e.position();
  for (const xml::ElementPtr& c : e.children()) {
    support::Result<NodePtr> child = [&]() -> support::Result<NodePtr> {
      if (c->name() == "component") return parse_component(*c);
      if (c->name() == "call") return parse_call(*c);
      if (c->name() == "parallel") return parse_parallel(*c);
      if (c->name() == "group") return parse_group(*c);
      if (c->name() == "option") return parse_option(*c);
      if (c->name() == "manager") return parse_manager(*c);
      return support::Result<NodePtr>(
          err(*c, "unexpected tag '" + c->name() + "' in a body"));
    }();
    if (!child.is_ok()) return child.status();
    seq->children.push_back(std::move(child).take());
  }
  return NodePtr(std::move(seq));
}

// Parse one <procedure> element into the program.
support::Status parse_procedure(const xml::Element& c,
                                ast::Program* program) {
  ast::Procedure proc;
  proc.pos = c.position();
  SUP_ASSIGN_OR_RETURN(proc.name, c.require_attr("name"));
  if (program->find(proc.name))
    return err(c, "duplicate procedure '" + proc.name + "'");
  const xml::Element* body_elem = nullptr;
  for (const xml::ElementPtr& p : c.children()) {
    if (p->name() == "formal") {
      ast::Formal f;
      SUP_ASSIGN_OR_RETURN(f.name, p->require_attr("name"));
      std::string kind = p->attr_or("kind", "value");
      if (kind == "stream") {
        f.kind = ast::Formal::Kind::kStream;
      } else if (kind == "value") {
        f.kind = ast::Formal::Kind::kValue;
      } else {
        return err(*p, "formal kind must be stream or value");
      }
      if (const std::string* d = p->find_attr("default")) {
        if (f.kind == ast::Formal::Kind::kStream)
          return err(*p, "stream formals cannot have defaults");
        f.fallback = *d;
        f.has_default = true;
      }
      if (proc.find_formal(f.name))
        return err(*p, "duplicate formal '" + f.name + "'");
      proc.formals.push_back(std::move(f));
    } else if (p->name() == "body") {
      if (body_elem) return err(*p, "procedure has more than one <body>");
      body_elem = p.get();
    } else {
      return err(*p, "unexpected tag inside <procedure>");
    }
  }
  if (!body_elem)
    return err(c, "procedure '" + proc.name + "' has no <body>");
  SUP_ASSIGN_OR_RETURN(proc.body, parse_body(*body_elem));
  program->procedures.push_back(std::move(proc));
  return support::Status::ok();
}

support::Status parse_into(const xml::Element& root,
                           const std::string& base_dir,
                           std::set<std::string>* visited,
                           ast::Program* program, bool is_root);

// Handle a top-level <include file="..."/>: parse the referenced file
// and merge its procedures.
support::Status parse_include(const xml::Element& e,
                              const std::string& base_dir,
                              std::set<std::string>* visited,
                              ast::Program* program) {
  SUP_ASSIGN_OR_RETURN(std::string file, e.require_attr("file"));
  std::filesystem::path path(file);
  if (path.is_relative()) path = std::filesystem::path(base_dir) / path;
  std::error_code ec;
  std::filesystem::path canonical = std::filesystem::weakly_canonical(path,
                                                                      ec);
  std::string key = ec ? path.string() : canonical.string();
  if (!visited->insert(key).second)
    return err(e, "include cycle through '" + key + "'");
  auto doc = xml::parse_file(path.string());
  if (!doc.is_ok())
    return support::invalid_argument("while including '" + path.string() +
                                     "': " + doc.status().message());
  return parse_into(*doc.value(), path.parent_path().string(), visited,
                    program, /*is_root=*/false);
}

support::Status parse_into(const xml::Element& root,
                           const std::string& base_dir,
                           std::set<std::string>* visited,
                           ast::Program* program, bool is_root) {
  if (root.name() != "xspcl")
    return err(root, "root element must be <xspcl>");
  for (const xml::ElementPtr& c : root.children()) {
    if (c->name() == "include") {
      SUP_RETURN_IF_ERROR(parse_include(*c, base_dir, visited, program));
      continue;
    }
    if (c->name() != "procedure")
      return err(*c, "only <procedure> and <include> allowed at top level");
    SUP_RETURN_IF_ERROR(parse_procedure(*c, program));
  }
  if (is_root && !program->find("main"))
    return support::invalid_argument(
        "XSPCL: no 'main' procedure (§3.2: the top-most procedure must be "
        "named 'main')");
  return support::Status::ok();
}

}  // namespace

support::Result<ast::Program> parse(const xml::Element& root,
                                    const std::string& base_dir) {
  ast::Program program;
  std::set<std::string> visited;
  SUP_RETURN_IF_ERROR(
      parse_into(root, base_dir, &visited, &program, /*is_root=*/true));
  return program;
}

support::Result<ast::Program> parse_string(std::string_view text) {
  SUP_ASSIGN_OR_RETURN(xml::ElementPtr root, xml::parse(text));
  return parse(*root);
}

support::Result<ast::Program> parse_file(const std::string& path) {
  SUP_ASSIGN_OR_RETURN(xml::ElementPtr root, xml::parse_file(path));
  // Relative <include> paths resolve against the including file.
  return parse(*root, std::filesystem::path(path).parent_path().string());
}

}  // namespace xspcl
