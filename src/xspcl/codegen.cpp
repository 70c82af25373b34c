#include "xspcl/codegen.hpp"

#include "support/strings.hpp"

namespace xspcl {
namespace {

std::string cpp_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string quoted(const std::string& s) { return "\"" + cpp_escape(s) + "\""; }

class Emitter {
 public:
  // Emits statements building the node; returns the variable name.
  std::string emit(const sp::Node& n) {
    switch (n.kind()) {
      case sp::NodeKind::kLeaf: {
        std::string spec = fresh("spec");
        line("sp::LeafSpec " + spec + ";");
        line(spec + ".instance = " + quoted(n.leaf.instance) + ";");
        line(spec + ".klass = " + quoted(n.leaf.klass) + ";");
        for (const sp::Param& p : n.leaf.params)
          line(spec + ".params.push_back({" + quoted(p.name) + ", " +
               quoted(p.value) + "});");
        for (const sp::PortBinding& b : n.leaf.inputs)
          line(spec + ".inputs.push_back({" + quoted(b.port) + ", " +
               quoted(b.stream) + "});");
        for (const sp::PortBinding& b : n.leaf.outputs)
          line(spec + ".outputs.push_back({" + quoted(b.port) + ", " +
               quoted(b.stream) + "});");
        if (!n.leaf.initial_reconfig.empty())
          line(spec + ".initial_reconfig = " +
               quoted(n.leaf.initial_reconfig) + ";");
        if (n.leaf.reentrant) line(spec + ".reentrant = true;");
        std::string var = fresh("node");
        line("sp::NodePtr " + var + " = sp::make_leaf(std::move(" + spec +
             "));");
        return var;
      }
      case sp::NodeKind::kSeq: {
        std::string vec = emit_children(n);
        std::string var = fresh("node");
        line("sp::NodePtr " + var + " = sp::make_seq(std::move(" + vec +
             "));");
        return var;
      }
      case sp::NodeKind::kPar: {
        std::string vec = emit_children(n);
        std::string var = fresh("node");
        line(support::format(
            "sp::NodePtr %s = sp::make_par(sp::ParShape::%s, %d, "
            "std::move(%s));",
            var.c_str(),
            n.shape == sp::ParShape::kTask
                ? "kTask"
                : n.shape == sp::ParShape::kSlice ? "kSlice" : "kCrossDep",
            n.replicas, vec.c_str()));
        return var;
      }
      case sp::NodeKind::kOption: {
        std::string body = emit(*n.children[0]);
        std::string var = fresh("node");
        line("sp::NodePtr " + var + " = sp::make_option(" +
             quoted(n.option_name) + ", " +
             (n.initially_enabled ? "true" : "false") + ", std::move(" +
             body + "));");
        return var;
      }
      case sp::NodeKind::kGroup: {
        std::string vec = emit_children(n);
        std::string var = fresh("node");
        line("sp::NodePtr " + var + " = sp::make_group(std::move(" + vec +
             "));");
        return var;
      }
      case sp::NodeKind::kManager: {
        std::string rules = fresh("rules");
        line("std::vector<sp::EventRule> " + rules + ";");
        for (const sp::EventRule& r : n.rules) {
          const char* action =
              r.action == sp::EventAction::kEnable     ? "kEnable"
              : r.action == sp::EventAction::kDisable  ? "kDisable"
              : r.action == sp::EventAction::kToggle   ? "kToggle"
              : r.action == sp::EventAction::kForward  ? "kForward"
                                                       : "kReconfigure";
          line(rules + ".push_back({" + quoted(r.event) +
               ", sp::EventAction::" + action + ", " + quoted(r.target) +
               ", " + quoted(r.payload) + "});");
        }
        std::string body = emit(*n.children[0]);
        std::string var = fresh("node");
        line("sp::NodePtr " + var + " = sp::make_manager(" +
             quoted(n.manager_name) + ", " + quoted(n.event_queue) +
             ", std::move(" + rules + "), std::move(" + body + "));");
        return var;
      }
    }
    SUP_CHECK(false);
    return "";
  }

  std::string emit_children(const sp::Node& n) {
    std::vector<std::string> vars;
    vars.reserve(n.children.size());
    for (const sp::NodePtr& c : n.children) vars.push_back(emit(*c));
    std::string vec = fresh("children");
    line("std::vector<sp::NodePtr> " + vec + ";");
    for (const std::string& v : vars)
      line(vec + ".push_back(std::move(" + v + "));");
    return vec;
  }

  void line(const std::string& s) { body_ += "  " + s + "\n"; }
  const std::string& body() const { return body_; }

 private:
  std::string fresh(const char* stem) {
    return support::format("%s%d", stem, next_++);
  }

  std::string body_;
  int next_ = 0;
};

}  // namespace

std::string generate_cpp(const sp::Node& root,
                         const CodegenOptions& options) {
  Emitter emitter;
  std::string result_var = emitter.emit(root);

  std::string out;
  out +=
      "// Generated by xspclc from an XSPCL specification. Do not edit.\n"
      "//\n"
      "// This is the glue code between the components and the Hinch run\n"
      "// time system; it executes only at initialization time.\n"
      "#include <cstdio>\n"
      "#include <cstring>\n"
      "#include <cstdlib>\n"
      "#include <vector>\n"
      "\n"
      "#include \"sp/graph.hpp\"\n";
  if (options.emit_main) {
    out +=
        "#include \"components/components.hpp\"\n"
        "#include \"hinch/runtime.hpp\"\n"
        "#include \"sp/validate.hpp\"\n";
  }
  out += "\nnamespace xspcl_gen_" + options.app_name + " {\n\n";
  out += "sp::NodePtr build_graph() {\n";
  out += emitter.body();
  out += "  return " + result_var + ";\n";
  out += "}\n\n";
  out += "}  // namespace xspcl_gen_" + options.app_name + "\n";

  if (options.emit_main) {
    out += support::format(R"(
int main(int argc, char** argv) {
  int cores = 1;
  long long iterations = %lld;
  bool threads = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cores=", 8) == 0)
      cores = std::atoi(argv[i] + 8);
    else if (std::strncmp(argv[i], "--iterations=", 13) == 0)
      iterations = std::atoll(argv[i] + 13);
    else if (std::strcmp(argv[i], "--backend=threads") == 0)
      threads = true;
    else if (std::strcmp(argv[i], "--backend=sim") != 0) {
      std::fprintf(stderr, "usage: %%s [--backend=sim|threads] [--cores=N]"
                           " [--iterations=N]\n", argv[0]);
      return 2;
    }
  }
  if (cores < 1) {
    std::fprintf(stderr, "--cores must be positive\n");
    return 2;
  }
  sp::NodePtr graph = xspcl_gen_%s::build_graph();
  support::Status valid = sp::validate(*graph);
  if (!valid.is_ok()) {
    std::fprintf(stderr, "invalid graph: %%s\n", valid.to_string().c_str());
    return 1;
  }
  components::register_standard_globally();
  auto prog = hinch::Program::build(*graph,
                                    hinch::ComponentRegistry::global());
  if (!prog.is_ok()) {
    std::fprintf(stderr, "build failed: %%s\n",
                 prog.status().to_string().c_str());
    return 1;
  }
  hinch::RunConfig run{};
  run.iterations = iterations;
  if (threads) {
    hinch::ThreadResult r =
        hinch::run_on_threads(*prog.value(), run, cores);
    std::printf("backend=threads workers=%%d iterations=%%lld "
                "wall_seconds=%%.6f jobs=%%llu\n",
                cores, (long long)iterations, r.wall_seconds,
                (unsigned long long)r.jobs);
  } else {
    hinch::SimParams sim{};
    sim.cores = cores;
    hinch::SimResult r = hinch::run_on_sim(*prog.value(), run, sim);
    std::printf("backend=sim cores=%%zu iterations=%%lld cycles=%%llu "
                "jobs=%%llu l1_hit_rate=%%.3f\n",
                r.core_busy.size(), (long long)iterations,
                (unsigned long long)r.total_cycles,
                (unsigned long long)r.jobs, r.mem.l1_hit_rate());
  }
  return 0;
}
)",
                           static_cast<long long>(options.default_iterations),
                           options.app_name.c_str());
  }
  return out;
}

}  // namespace xspcl
