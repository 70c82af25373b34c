// Path equivalence (Fig. 1): the conversion-tool path — the XSPCL spec
// compiled to C++ glue by `xspclc codegen` at build time — and the
// load-time loader path must hand the runtime the identical task DAG.
// Both run the same canonical SP-IR pass pipeline, so the compiled
// task graphs must match byte for byte.
//
// The generated translation units (<name>_patheq.cpp) are produced by
// the build; see tests/CMakeLists.txt. Covered: both checked-in specs
// plus the four built-in applications via `xspclc emit-app`.
#include <gtest/gtest.h>

#include <string>

#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "sp/graph.hpp"
#include "xspcl/loader.hpp"

namespace xspcl_gen_pip_small {
sp::NodePtr build_graph();
}
namespace xspcl_gen_blur_skeleton {
sp::NodePtr build_graph();
}
namespace xspcl_gen_pip {
sp::NodePtr build_graph();
}
namespace xspcl_gen_jpip {
sp::NodePtr build_graph();
}
namespace xspcl_gen_blur {
sp::NodePtr build_graph();
}
namespace xspcl_gen_mjpeg {
sp::NodePtr build_graph();
}

namespace {

std::string taskdot_from_generated(sp::NodePtr graph) {
  components::register_standard_globally();
  auto prog = hinch::Program::build(*graph,
                                    hinch::ComponentRegistry::global());
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
  return prog.is_ok() ? prog.value()->task_graph_dot() : "";
}

std::string taskdot_from_file(const std::string& path) {
  components::register_standard_globally();
  auto prog = xspcl::build_program_from_file(
      path, hinch::ComponentRegistry::global());
  EXPECT_TRUE(prog.is_ok()) << path << ": " << prog.status().to_string();
  return prog.is_ok() ? prog.value()->task_graph_dot() : "";
}

TEST(PathEquivalence, PipSmallSpec) {
  std::string gen = taskdot_from_generated(xspcl_gen_pip_small::build_graph());
  std::string loaded =
      taskdot_from_file(std::string(PATHEQ_SPEC_DIR) + "/pip_small.xml");
  ASSERT_FALSE(gen.empty());
  EXPECT_EQ(gen, loaded);
}

TEST(PathEquivalence, BlurSkeletonSpec) {
  std::string gen =
      taskdot_from_generated(xspcl_gen_blur_skeleton::build_graph());
  std::string loaded =
      taskdot_from_file(std::string(PATHEQ_SPEC_DIR) + "/blur_skeleton.xml");
  ASSERT_FALSE(gen.empty());
  EXPECT_EQ(gen, loaded);
}

TEST(PathEquivalence, PipApp) {
  std::string gen = taskdot_from_generated(xspcl_gen_pip::build_graph());
  std::string loaded =
      taskdot_from_file(std::string(PATHEQ_GEN_DIR) + "/pip_app.xml");
  ASSERT_FALSE(gen.empty());
  EXPECT_EQ(gen, loaded);
}

TEST(PathEquivalence, JpipApp) {
  std::string gen = taskdot_from_generated(xspcl_gen_jpip::build_graph());
  std::string loaded =
      taskdot_from_file(std::string(PATHEQ_GEN_DIR) + "/jpip_app.xml");
  ASSERT_FALSE(gen.empty());
  EXPECT_EQ(gen, loaded);
}

TEST(PathEquivalence, BlurApp) {
  std::string gen = taskdot_from_generated(xspcl_gen_blur::build_graph());
  std::string loaded =
      taskdot_from_file(std::string(PATHEQ_GEN_DIR) + "/blur_app.xml");
  ASSERT_FALSE(gen.empty());
  EXPECT_EQ(gen, loaded);
}

TEST(PathEquivalence, MjpegApp) {
  std::string gen = taskdot_from_generated(xspcl_gen_mjpeg::build_graph());
  std::string loaded =
      taskdot_from_file(std::string(PATHEQ_GEN_DIR) + "/mjpeg_app.xml");
  ASSERT_FALSE(gen.empty());
  EXPECT_EQ(gen, loaded);
}

}  // namespace
