// The coordination language front end: parsing, elaboration (procedure
// inlining, $-substitution, scoping), the loader, and code generation.
#include <gtest/gtest.h>

#include <fstream>

#include "sp/validate.hpp"
#include "xspcl/codegen.hpp"
#include "xspcl/elaborate.hpp"
#include "xspcl/loader.hpp"
#include "xspcl/parser.hpp"

namespace {

using xspcl::ast::Kind;
using xspcl::ast::Program;

Program must_parse(const std::string& text) {
  auto r = xspcl::parse_string(text);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? std::move(r).take() : Program{};
}

sp::NodePtr must_elaborate(const std::string& text) {
  auto program = xspcl::parse_string(text);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  if (!program.is_ok()) return nullptr;
  auto graph = xspcl::elaborate(program.value());
  EXPECT_TRUE(graph.is_ok()) << graph.status().to_string();
  return graph.is_ok() ? std::move(graph).take() : nullptr;
}

const sp::Node* find_leaf(const sp::Node& root, const std::string& instance) {
  const sp::Node* found = nullptr;
  sp::visit(root, [&](const sp::Node& n) {
    if (n.kind() == sp::NodeKind::kLeaf && n.leaf.instance == instance)
      found = &n;
  });
  return found;
}

// --- parser ----------------------------------------------------------------

TEST(XspclParser, MinimalProgram) {
  Program p = must_parse(R"(
<xspcl>
  <procedure name="main"><body>
    <component name="c" class="k"><outport name="o" stream="s"/></component>
  </body></procedure>
</xspcl>)");
  ASSERT_EQ(p.procedures.size(), 1u);
  EXPECT_EQ(p.procedures[0].name, "main");
  ASSERT_EQ(p.procedures[0].body->children.size(), 1u);
  const auto& c = *p.procedures[0].body->children[0];
  EXPECT_EQ(c.kind, Kind::kComponent);
  EXPECT_EQ(c.klass, "k");
  ASSERT_EQ(c.outputs.size(), 1u);
  EXPECT_EQ(c.outputs[0].stream, "s");
}

TEST(XspclParser, RequiresMainProcedure) {
  auto r = xspcl::parse_string(
      "<xspcl><procedure name=\"other\"><body/></procedure></xspcl>");
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("main"), std::string::npos);
}

TEST(XspclParser, ParsesFormalsWithDefaults) {
  Program p = must_parse(R"(
<xspcl>
  <procedure name="main"><body/></procedure>
  <procedure name="f">
    <formal name="s" kind="stream"/>
    <formal name="v" kind="value" default="3"/>
    <body/>
  </procedure>
</xspcl>)");
  const auto* f = p.find("f");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->formals.size(), 2u);
  EXPECT_EQ(f->formals[0].kind, xspcl::ast::Formal::Kind::kStream);
  EXPECT_TRUE(f->formals[1].has_default);
  EXPECT_EQ(f->formals[1].fallback, "3");
}

TEST(XspclParser, ParsesManagerRules) {
  Program p = must_parse(R"(
<xspcl><procedure name="main"><body>
  <manager name="m" queue="q">
    <on event="a" action="enable" option="o"/>
    <on event="b" action="forward" queue="q2"/>
    <on event="c" action="reconfigure" payload="x=1"/>
    <body><option name="o"><component name="k" class="c"/></option></body>
  </manager>
</body></procedure></xspcl>)");
  const auto& m = *p.procedures[0].body->children[0];
  EXPECT_EQ(m.kind, Kind::kManager);
  ASSERT_EQ(m.rules.size(), 3u);
  EXPECT_EQ(m.rules[0].action, sp::EventAction::kEnable);
  EXPECT_EQ(m.rules[1].target, "q2");
  EXPECT_EQ(m.rules[2].payload, "x=1");
}

struct BadSpec {
  const char* name;
  const char* text;
  const char* expect_in_message;
};

class XspclParserErrorTest : public ::testing::TestWithParam<BadSpec> {};

TEST_P(XspclParserErrorTest, Rejected) {
  auto r = xspcl::parse_string(GetParam().text);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find(GetParam().expect_in_message),
            std::string::npos)
      << r.status().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, XspclParserErrorTest,
    ::testing::Values(
        BadSpec{"wrong_root", "<nope/>", "root element"},
        BadSpec{"dup_proc",
                "<xspcl><procedure name='main'><body/></procedure>"
                "<procedure name='main'><body/></procedure></xspcl>",
                "duplicate procedure"},
        BadSpec{"no_body",
                "<xspcl><procedure name='main'/></xspcl>", "no <body>"},
        BadSpec{"bad_shape",
                "<xspcl><procedure name='main'><body>"
                "<parallel shape='weird'><parblock/></parallel>"
                "</body></procedure></xspcl>",
                "unknown parallel shape"},
        BadSpec{"slice_without_n",
                "<xspcl><procedure name='main'><body>"
                "<parallel shape='slice'><parblock/></parallel>"
                "</body></procedure></xspcl>",
                "n= attribute"},
        BadSpec{"empty_parallel",
                "<xspcl><procedure name='main'><body>"
                "<parallel shape='task'></parallel>"
                "</body></procedure></xspcl>",
                "at least one"},
        BadSpec{"bad_action",
                "<xspcl><procedure name='main'><body>"
                "<manager name='m' queue='q'>"
                "<on event='e' action='explode'/>"
                "<body/></manager></body></procedure></xspcl>",
                "unknown action"},
        BadSpec{"stream_default",
                "<xspcl><procedure name='main'><body/></procedure>"
                "<procedure name='f'>"
                "<formal name='s' kind='stream' default='x'/>"
                "<body/></procedure></xspcl>",
                "stream formals cannot have defaults"},
        BadSpec{"arg_without_value",
                "<xspcl><procedure name='main'><body>"
                "<call procedure='f'><arg name='a'/></call>"
                "</body></procedure>"
                "<procedure name='f'><body/></procedure></xspcl>",
                "stream= or value="}),
    [](const ::testing::TestParamInfo<BadSpec>& info) {
      return info.param.name;
    });

// --- substitution -----------------------------------------------------------

TEST(Substitute, BasicForms) {
  std::map<std::string, std::string> env{{"x", "7"}, {"long_name", "v"}};
  EXPECT_EQ(xspcl::substitute("a$x b", env).value(), "a7 b");
  EXPECT_EQ(xspcl::substitute("${x}9", env).value(), "79");
  EXPECT_EQ(xspcl::substitute("$long_name", env).value(), "v");
  EXPECT_EQ(xspcl::substitute("$$x", env).value(), "$x");
  EXPECT_EQ(xspcl::substitute("none", env).value(), "none");
}

TEST(Substitute, Errors) {
  std::map<std::string, std::string> env;
  EXPECT_FALSE(xspcl::substitute("$missing", env).is_ok());
  EXPECT_FALSE(xspcl::substitute("${unterminated", env).is_ok());
  EXPECT_FALSE(xspcl::substitute("$", env).is_ok());
}

// --- elaboration --------------------------------------------------------------

const char* kCallSpec = R"(
<xspcl>
  <procedure name="main"><body>
    <component name="src" class="producer">
      <outport name="out" stream="data"/>
    </component>
    <call procedure="stage" name="left">
      <arg name="in" stream="data"/>
      <arg name="gain" value="3"/>
    </call>
    <call procedure="stage" name="right">
      <arg name="in" stream="data"/>
    </call>
  </body></procedure>
  <procedure name="stage">
    <formal name="in" kind="stream"/>
    <formal name="gain" kind="value" default="1"/>
    <body>
      <component name="amp" class="amplifier">
        <param name="gain" value="$gain"/>
        <inport name="in" stream="in"/>
        <outport name="out" stream="boosted"/>
      </component>
    </body>
  </procedure>
</xspcl>
)";

TEST(Elaborate, InlinesCallsWithScoping) {
  sp::NodePtr g = must_elaborate(kCallSpec);
  ASSERT_TRUE(g);
  const sp::Node* left = find_leaf(*g, "left/amp");
  const sp::Node* right = find_leaf(*g, "right/amp");
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  // Value formals substitute; defaults apply.
  EXPECT_EQ(left->leaf.params[0].value, "3");
  EXPECT_EQ(right->leaf.params[0].value, "1");
  // Stream formal binds to the caller's stream; locals are scoped.
  EXPECT_EQ(left->leaf.inputs[0].stream, "data");
  EXPECT_EQ(left->leaf.outputs[0].stream, "left/boosted");
  EXPECT_EQ(right->leaf.outputs[0].stream, "right/boosted");
}

TEST(Elaborate, RejectsRecursion) {
  const char* spec = R"(
<xspcl>
  <procedure name="main"><body>
    <call procedure="loop"/>
  </body></procedure>
  <procedure name="loop"><body>
    <call procedure="loop"/>
  </body></procedure>
</xspcl>)";
  auto program = xspcl::parse_string(spec);
  ASSERT_TRUE(program.is_ok());
  auto graph = xspcl::elaborate(program.value());
  ASSERT_FALSE(graph.is_ok());
  EXPECT_NE(graph.status().message().find("recursi"), std::string::npos);
}

TEST(Elaborate, RejectsMissingArgument) {
  const char* spec = R"(
<xspcl>
  <procedure name="main"><body>
    <call procedure="f"/>
  </body></procedure>
  <procedure name="f">
    <formal name="s" kind="stream"/>
    <body/>
  </procedure>
</xspcl>)";
  auto program = xspcl::parse_string(spec);
  ASSERT_TRUE(program.is_ok());
  auto graph = xspcl::elaborate(program.value());
  ASSERT_FALSE(graph.is_ok());
  EXPECT_NE(graph.status().message().find("missing argument"),
            std::string::npos);
}

TEST(Elaborate, RejectsKindMismatch) {
  const char* spec = R"(
<xspcl>
  <procedure name="main"><body>
    <call procedure="f"><arg name="s" value="oops"/></call>
  </body></procedure>
  <procedure name="f">
    <formal name="s" kind="stream"/>
    <body/>
  </procedure>
</xspcl>)";
  auto program = xspcl::parse_string(spec);
  ASSERT_TRUE(program.is_ok());
  EXPECT_FALSE(xspcl::elaborate(program.value()).is_ok());
}

TEST(Elaborate, ParallelReplicasFromFormal) {
  const char* spec = R"(
<xspcl>
  <procedure name="main"><body>
    <call procedure="f"><arg name="n" value="6"/></call>
  </body></procedure>
  <procedure name="f">
    <formal name="n" kind="value"/>
    <body>
      <parallel shape="slice" n="$n"><parblock>
        <component name="w" class="k"><outport name="o" stream="s"/></component>
      </parblock></parallel>
    </body>
  </procedure>
</xspcl>)";
  sp::NodePtr g = must_elaborate(spec);
  ASSERT_TRUE(g);
  int replicas = 0;
  sp::visit(*g, [&](const sp::Node& n) {
    if (n.kind() == sp::NodeKind::kPar) replicas = n.replicas;
  });
  EXPECT_EQ(replicas, 6);
}

TEST(Elaborate, BadReplicaCountRejected) {
  const char* spec = R"(
<xspcl><procedure name="main"><body>
  <parallel shape="slice" n="zero"><parblock>
    <component name="w" class="k"/>
  </parblock></parallel>
</body></procedure></xspcl>)";
  auto program = xspcl::parse_string(spec);
  ASSERT_TRUE(program.is_ok());
  EXPECT_FALSE(xspcl::elaborate(program.value()).is_ok());
}

// `reentrant` takes true/false/1/0, directly or through a value formal
// with a default; anything else is a positioned elaboration error.
TEST(Elaborate, ReentrantAttributeThroughFormal) {
  const char* spec = R"(
<xspcl>
  <procedure name="main"><body>
    <call procedure="f" name="on"><arg name="r" value="true"/></call>
    <call procedure="f" name="off"/>
    <component name="lit" class="k" reentrant="1"/>
  </body></procedure>
  <procedure name="f">
    <formal name="r" kind="value" default="false"/>
    <body><component name="w" class="k" reentrant="$r"/></body>
  </procedure>
</xspcl>)";
  sp::NodePtr g = must_elaborate(spec);
  ASSERT_TRUE(g);
  EXPECT_TRUE(find_leaf(*g, "on/w")->leaf.reentrant);
  EXPECT_FALSE(find_leaf(*g, "off/w")->leaf.reentrant);
  EXPECT_TRUE(find_leaf(*g, "lit")->leaf.reentrant);

  const char* bad = R"(<xspcl><procedure name="main"><body>
  <component name="c" class="k" reentrant="yes"/>
</body></procedure></xspcl>)";
  auto program = xspcl::parse_string(bad);
  ASSERT_TRUE(program.is_ok());
  auto graph = xspcl::elaborate(program.value());
  ASSERT_FALSE(graph.is_ok());
  EXPECT_NE(graph.status().message().find(
                "elaboration at 2:3: reentrant= must be true/false"),
            std::string::npos)
      << graph.status().message();
}

TEST(Codegen, EmitsReentrant) {
  sp::LeafSpec spec;
  spec.instance = "c";
  spec.klass = "k";
  sp::NodePtr plain = sp::make_leaf(spec);
  EXPECT_EQ(xspcl::generate_cpp(*plain, {.app_name = "r"}).find("reentrant"),
            std::string::npos);
  spec.reentrant = true;
  sp::NodePtr opted = sp::make_leaf(spec);
  EXPECT_NE(xspcl::generate_cpp(*opted, {.app_name = "r"})
                .find(".reentrant = true;"),
            std::string::npos);
}

TEST(Loader, LoadStringValidates) {
  // The same component name twice -> validation must fail at load time.
  const char* spec = R"(
<xspcl><procedure name="main"><body>
  <component name="c" class="k"><outport name="o" stream="s"/></component>
  <component name="c" class="k"><inport name="i" stream="s"/></component>
</body></procedure></xspcl>)";
  auto r = xspcl::load_string(spec);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), support::Code::kAlreadyExists);
}

// --- positioned diagnostics -----------------------------------------------------

TEST(Elaborate, ErrorsCarrySourceLineAndColumn) {
  // The bad call sits on line 2 of the spec; the diagnostic must point
  // there, not just name the procedure.
  const char* spec = R"(<xspcl><procedure name="main"><body>
  <call procedure="nope"/>
</body></procedure></xspcl>)";
  auto program = xspcl::parse_string(spec);
  ASSERT_TRUE(program.is_ok());
  auto graph = xspcl::elaborate(program.value());
  ASSERT_FALSE(graph.is_ok());
  EXPECT_NE(graph.status().message().find("nope"), std::string::npos);
  EXPECT_NE(graph.status().message().find("elaboration at 2:"),
            std::string::npos)
      << graph.status().message();
}

TEST(Loader, ValidateErrorsCarrySourceLineAndColumn) {
  // sp::validate runs on elaborated nodes carrying XML positions: the
  // read-but-never-written diagnostic must name the reader's line.
  const char* spec = R"(<xspcl><procedure name="main"><body>
  <component name="c" class="k">
    <inport name="i" stream="ghost"/>
  </component>
</body></procedure></xspcl>)";
  auto r = xspcl::load_string(spec);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), support::Code::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("ghost"), std::string::npos);
  EXPECT_NE(r.status().message().find("(at 2:"), std::string::npos)
      << r.status().message();
}

// --- codegen --------------------------------------------------------------------

TEST(Codegen, EmitsBuildableStructure) {
  sp::NodePtr g = must_elaborate(kCallSpec);
  ASSERT_TRUE(g);
  xspcl::CodegenOptions options;
  options.app_name = "unit";
  std::string code = xspcl::generate_cpp(*g, options);
  // Namespaced build function.
  EXPECT_NE(code.find("namespace xspcl_gen_unit"), std::string::npos);
  EXPECT_NE(code.find("sp::NodePtr build_graph()"), std::string::npos);
  // All instances and streams appear.
  for (const char* s : {"left/amp", "right/amp", "left/boosted", "data"})
    EXPECT_NE(code.find(s), std::string::npos) << s;
  // A main is emitted by default.
  EXPECT_NE(code.find("int main(int argc"), std::string::npos);
  options.emit_main = false;
  std::string lib_only = xspcl::generate_cpp(*g, options);
  EXPECT_EQ(lib_only.find("int main"), std::string::npos);
}

TEST(Codegen, EscapesStrings) {
  sp::LeafSpec spec;
  spec.instance = "c";
  spec.klass = "k";
  spec.params.push_back({"text", "say \"hi\"\nplease\\now"});
  sp::NodePtr g = sp::make_leaf(std::move(spec));
  std::string code = xspcl::generate_cpp(*g, {.app_name = "esc"});
  EXPECT_NE(code.find("say \\\"hi\\\"\\nplease\\\\now"), std::string::npos);
}

TEST(Codegen, CoversAllNodeKinds) {
  const char* spec = R"(
<xspcl><procedure name="main"><body>
  <component name="src" class="k"><outport name="o" stream="s"/></component>
  <parallel shape="crossdep" n="3">
    <parblock><component name="h" class="k"><inport name="i" stream="s"/></component></parblock>
    <parblock><component name="v" class="k"><inport name="i" stream="s"/></component></parblock>
  </parallel>
  <manager name="m" queue="q">
    <on event="e" action="toggle" option="o1"/>
    <body><option name="o1" enabled="false">
      <component name="opt" class="k"/>
    </option></body>
  </manager>
</body></procedure></xspcl>)";
  sp::NodePtr g = must_elaborate(spec);
  ASSERT_TRUE(g);
  std::string code = xspcl::generate_cpp(*g, {.app_name = "all"});
  EXPECT_NE(code.find("kCrossDep"), std::string::npos);
  EXPECT_NE(code.find("make_manager"), std::string::npos);
  EXPECT_NE(code.find("make_option"), std::string::npos);
  EXPECT_NE(code.find("kToggle"), std::string::npos);
}

TEST(XspclParser, ParsesGroups) {
  Program p = must_parse(R"(
<xspcl><procedure name="main"><body>
  <group>
    <component name="a" class="ka"><outport name="o" stream="s"/></component>
    <component name="b" class="kb"><inport name="i" stream="s"/></component>
  </group>
</body></procedure></xspcl>)");
  const auto& g = *p.procedures[0].body->children[0];
  EXPECT_EQ(g.kind, Kind::kGroup);
  ASSERT_EQ(g.children.size(), 2u);
  EXPECT_EQ(g.children[1]->klass, "kb");
}

TEST(XspclParser, GroupRejectsNonComponents) {
  auto r = xspcl::parse_string(R"(
<xspcl><procedure name="main"><body>
  <group><parallel shape="task"><parblock/></parallel></group>
</body></procedure></xspcl>)");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("only <component>"),
            std::string::npos);
}

TEST(Codegen, EmitsGroups) {
  sp::NodePtr g = must_elaborate(R"(
<xspcl><procedure name="main"><body>
  <group>
    <component name="a" class="ka"><outport name="o" stream="s"/></component>
    <component name="b" class="kb"><inport name="i" stream="s"/></component>
  </group>
</body></procedure></xspcl>)");
  ASSERT_TRUE(g);
  std::string code = xspcl::generate_cpp(*g, {.app_name = "grp"});
  EXPECT_NE(code.find("make_group"), std::string::npos);
}

// --- includes --------------------------------------------------------------------

class IncludeTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir();
  void write(const std::string& name, const std::string& text) {
    std::ofstream f(dir_ + "/" + name);
    f << text;
    ASSERT_TRUE(f.good());
  }
};

TEST_F(IncludeTest, MergesLibraryProcedures) {
  write("lib.xml", R"(
<xspcl>
  <procedure name="wrap">
    <formal name="out" kind="stream"/>
    <body>
      <component name="c" class="k"><outport name="o" stream="out"/></component>
    </body>
  </procedure>
</xspcl>)");
  write("app.xml", R"(
<xspcl>
  <include file="lib.xml"/>
  <procedure name="main"><body>
    <call procedure="wrap"><arg name="out" stream="s"/></call>
    <component name="use" class="k2"><inport name="i" stream="s"/></component>
  </body></procedure>
</xspcl>)");
  auto program = xspcl::parse_file(dir_ + "/app.xml");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  EXPECT_NE(program.value().find("wrap"), nullptr);
  sp::NodePtr g = [&] {
    auto r = xspcl::elaborate(program.value());
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return r.is_ok() ? std::move(r).take() : nullptr;
  }();
  ASSERT_TRUE(g);
  EXPECT_NE(find_leaf(*g, "wrap/c"), nullptr);
}

TEST_F(IncludeTest, NestedIncludesWork) {
  write("base.xml", R"(
<xspcl><procedure name="base_p"><body/></procedure></xspcl>)");
  write("mid.xml", R"(
<xspcl><include file="base.xml"/>
<procedure name="mid_p"><body/></procedure></xspcl>)");
  write("top.xml", R"(
<xspcl><include file="mid.xml"/>
<procedure name="main"><body/></procedure></xspcl>)");
  auto program = xspcl::parse_file(dir_ + "/top.xml");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  EXPECT_NE(program.value().find("base_p"), nullptr);
  EXPECT_NE(program.value().find("mid_p"), nullptr);
}

TEST_F(IncludeTest, CycleRejected) {
  write("a.xml", "<xspcl><include file=\"b.xml\"/></xspcl>");
  write("b.xml", "<xspcl><include file=\"a.xml\"/>"
                 "<procedure name=\"main\"><body/></procedure></xspcl>");
  auto program = xspcl::parse_file(dir_ + "/a.xml");
  ASSERT_FALSE(program.is_ok());
  EXPECT_NE(program.status().message().find("cycle"), std::string::npos);
}

TEST_F(IncludeTest, MissingFileRejected) {
  write("app.xml", "<xspcl><include file=\"nope.xml\"/>"
                   "<procedure name=\"main\"><body/></procedure></xspcl>");
  auto program = xspcl::parse_file(dir_ + "/app.xml");
  ASSERT_FALSE(program.is_ok());
  EXPECT_NE(program.status().message().find("nope.xml"), std::string::npos);
}

TEST_F(IncludeTest, DuplicateAcrossFilesRejected) {
  write("lib.xml", "<xspcl><procedure name=\"p\"><body/></procedure></xspcl>");
  write("app.xml", R"(
<xspcl>
  <include file="lib.xml"/>
  <procedure name="p"><body/></procedure>
  <procedure name="main"><body/></procedure>
</xspcl>)");
  auto program = xspcl::parse_file(dir_ + "/app.xml");
  ASSERT_FALSE(program.is_ok());
  EXPECT_NE(program.status().message().find("duplicate procedure"),
            std::string::npos);
}

}  // namespace
