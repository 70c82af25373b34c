// End-to-end application tests: the XSPCL versions of PiP, JPiP and Blur
// produce bit-identical output to the hand-written sequential versions,
// on both executors, at several core counts — plus shape checks on the
// overheads the paper reports.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "xspcl/loader.hpp"

namespace {

using apps::BlurConfig;
using apps::JpipConfig;
using apps::PipConfig;

// Scaled-down configs keep the suite fast; the bench binaries run the
// paper-sized ones.
PipConfig small_pip(int pips) {
  PipConfig c;
  c.width = 128;
  c.height = 96;
  c.frames = 10;
  c.pips = pips;
  c.slices = 4;
  c.clip_frames = 5;
  return c;
}

JpipConfig small_jpip(int pips) {
  JpipConfig c;
  c.width = 128;
  c.height = 96;
  c.frames = 8;
  c.pips = pips;
  c.factor = 8;
  c.slices = 4;
  c.clip_frames = 4;
  return c;
}

BlurConfig small_blur(int kernel) {
  BlurConfig c;
  c.width = 96;
  c.height = 72;
  c.frames = 10;
  c.kernel = kernel;
  c.slices = 4;
  c.clip_frames = 5;
  return c;
}

uint64_t sink_checksum(hinch::Program& prog) {
  for (int i = 0; i < prog.component_count(); ++i) {
    auto* sink =
        dynamic_cast<const components::SinkAccess*>(&prog.component(i));
    if (sink) return sink->sink().checksum();
  }
  ADD_FAILURE() << "no sink found";
  return 0;
}

std::unique_ptr<hinch::Program> build(const std::string& spec) {
  components::register_standard_globally();
  auto prog =
      xspcl::build_program(spec, hinch::ComponentRegistry::global());
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
  return prog.is_ok() ? std::move(prog).take() : nullptr;
}

uint64_t run_sim_checksum(hinch::Program& prog, int64_t iterations,
                          int cores) {
  hinch::RunConfig run;
  run.iterations = iterations;
  hinch::SimParams sim;
  sim.cores = cores;
  hinch::run_on_sim(prog, run, sim);
  return sink_checksum(prog);
}

// Tasks running a component synthesized by fuse-kernels ("a+b" labels).
int fused_tasks(const hinch::Program& prog) {
  int n = 0;
  for (const hinch::Task& t : prog.tasks())
    if (t.label.find('+') != std::string::npos) ++n;
  return n;
}

// --- PiP -------------------------------------------------------------------------

TEST(PipApp, XspclMatchesSequentialAcrossCores) {
  PipConfig config = small_pip(2);
  apps::SeqResult seq = apps::run_pip_sequential(config);
  EXPECT_EQ(seq.frames, config.frames);
  EXPECT_GT(seq.cycles, 0u);

  auto prog = build(apps::pip_xspcl(config));
  ASSERT_TRUE(prog);
  for (int cores : {1, 3}) {
    EXPECT_EQ(run_sim_checksum(*prog, config.frames, cores), seq.checksum)
        << cores << " cores";
  }
}

TEST(PipApp, ThreadBackendMatchesToo) {
  PipConfig config = small_pip(1);
  apps::SeqResult seq = apps::run_pip_sequential(config);
  auto prog = build(apps::pip_xspcl(config));
  ASSERT_TRUE(prog);
  hinch::RunConfig run;
  run.iterations = config.frames;
  hinch::run_on_threads(*prog, run, 4);
  EXPECT_EQ(sink_checksum(*prog), seq.checksum);
}

TEST(PipApp, MorePipsCostMore) {
  apps::SeqResult one = apps::run_pip_sequential(small_pip(1));
  apps::SeqResult two = apps::run_pip_sequential(small_pip(2));
  EXPECT_GT(two.cycles, one.cycles);
  EXPECT_NE(one.checksum, two.checksum);
}

TEST(PipApp, SliceCountDoesNotChangeOutput) {
  PipConfig base = small_pip(1);
  apps::SeqResult seq = apps::run_pip_sequential(base);
  for (int slices : {1, 2, 8}) {
    PipConfig c = base;
    c.slices = slices;
    auto prog = build(apps::pip_xspcl(c));
    ASSERT_TRUE(prog);
    EXPECT_EQ(run_sim_checksum(*prog, c.frames, 2), seq.checksum)
        << slices << " slices";
  }
}

TEST(PipApp, ReconfigurableVariantRunsAndToggles) {
  PipConfig config = small_pip(2);
  config.reconfigurable = true;
  config.toggle_period = 3;
  auto prog = build(apps::pip_xspcl(config));
  ASSERT_TRUE(prog);
  hinch::RunConfig run;
  run.iterations = config.frames;
  hinch::SimParams sim;
  sim.cores = 2;
  hinch::SimResult r = hinch::run_on_sim(*prog, run, sim);
  EXPECT_GE(r.sched.reconfigurations, 2u);
  EXPECT_GT(r.sched.jobs_skipped, 0u);
}

// --- JPiP ------------------------------------------------------------------------

TEST(JpipApp, XspclMatchesSequential) {
  JpipConfig config = small_jpip(1);
  apps::SeqResult seq = apps::run_jpip_sequential(config);
  EXPECT_GT(seq.cycles, 0u);
  auto prog = build(apps::jpip_xspcl(config));
  ASSERT_TRUE(prog);
  EXPECT_EQ(run_sim_checksum(*prog, config.frames, 1), seq.checksum);
  EXPECT_EQ(run_sim_checksum(*prog, config.frames, 4), seq.checksum);
}

TEST(JpipApp, GroupedVariantProducesIdenticalOutput) {
  // §4.1's fusion proposal must not change semantics, only scheduling.
  JpipConfig config = small_jpip(1);
  apps::SeqResult seq = apps::run_jpip_sequential(config);
  JpipConfig grouped = config;
  grouped.grouped = true;
  auto prog = build(apps::jpip_xspcl(grouped));
  ASSERT_TRUE(prog);
  EXPECT_EQ(run_sim_checksum(*prog, config.frames, 1), seq.checksum);
  EXPECT_EQ(run_sim_checksum(*prog, config.frames, 3), seq.checksum);
}

TEST(JpipApp, FuseKernelsVariantProducesIdenticalOutput) {
  // The loop-level fusion pass on the PLAIN spec, fused for one core
  // so every structurally-safe candidate is taken: the decode chain
  // collapses to jpeg_decode_planes and each downscale->blend pair to
  // a downscale_blend, and the output must stay bit-identical to the
  // hand-written decoder — fused loops that move a pixel are bugs, not
  // wins. Fused for four cores, every chain keeps its slices (each has
  // a sliced step) and the output must agree too.
  JpipConfig config = small_jpip(1);
  apps::SeqResult seq = apps::run_jpip_sequential(config);
  components::register_standard_globally();
  hinch::Program::BuildConfig build_config;
  build_config.passes.fuse_kernels = true;
  build_config.passes.kernel_patterns = &components::standard_fusions();
  auto prog = xspcl::build_program(apps::jpip_xspcl(config),
                                   hinch::ComponentRegistry::global(),
                                   build_config);
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  // The decode chain and the PiP's three plane pipelines must have
  // been rewritten into synthesized components ("a+b" instance names).
  EXPECT_EQ(fused_tasks(*prog.value()), 5);
  EXPECT_EQ(run_sim_checksum(*prog.value(), config.frames, 1), seq.checksum);
  EXPECT_EQ(run_sim_checksum(*prog.value(), config.frames, 3), seq.checksum);

  build_config.passes.kernel_cores = 4;
  auto four = xspcl::build_program(apps::jpip_xspcl(config),
                                   hinch::ComponentRegistry::global(),
                                   build_config);
  ASSERT_TRUE(four.is_ok()) << four.status().to_string();
  EXPECT_EQ(fused_tasks(*four.value()), 0);
  EXPECT_EQ(run_sim_checksum(*four.value(), config.frames, 4), seq.checksum);
}

TEST(JpipApp, FuseKernelsFusesDisabledOptionChains) {
  // The fusion rule reads the composition, not a run: the chains inside
  // the second PiP's option fuse for one core like the first PiP's,
  // although that option starts disabled. Fused or not, the output must
  // be the same while the manager toggles the option. Window 1 keeps
  // iterations from overlapping, so each toggle lands on the same
  // iteration in both programs; with overlap, when the manager sees the
  // ticker's event depends on the schedule, fused or not.
  JpipConfig config = small_jpip(2);
  config.reconfigurable = true;
  config.toggle_period = 2;
  auto unfused = build(apps::jpip_xspcl(config));
  ASSERT_TRUE(unfused);
  hinch::Program::BuildConfig build_config;
  build_config.passes.fuse_kernels = true;
  build_config.passes.kernel_patterns = &components::standard_fusions();
  auto fused = xspcl::build_program(apps::jpip_xspcl(config),
                                    hinch::ComponentRegistry::global(),
                                    build_config);
  ASSERT_TRUE(fused.is_ok()) << fused.status().to_string();
  int pip2_fused = 0;
  for (const hinch::Task& t : fused.value()->tasks())
    if (t.label.rfind("pip2", 0) == 0 &&
        t.label.find('+') != std::string::npos)
      ++pip2_fused;
  // The decode chain and the three plane pipelines of the second PiP.
  EXPECT_EQ(pip2_fused, 4);
  for (int cores : {1, 3}) {
    hinch::RunConfig run;
    run.iterations = config.frames;
    run.window = 1;
    hinch::SimParams sim;
    sim.cores = cores;
    hinch::SimResult r = hinch::run_on_sim(*fused.value(), run, sim);
    EXPECT_GE(r.sched.reconfigurations, 2u) << cores << " cores";
    const uint64_t want = sink_checksum(*fused.value());
    hinch::run_on_sim(*unfused, run, sim);
    EXPECT_EQ(want, sink_checksum(*unfused)) << cores << " cores";
  }
}

TEST(FusedOverlay, WholeFrameChainMatchesUnfused) {
  // downscale and blend with no plane param over a multi-plane (YUV)
  // source: the fused downscale_blend must take every plane onto the
  // matching canvas plane, exactly as the unfused pair does.
  const std::string spec = R"(<xspcl><procedure name="main"><body>
    <parallel shape="task">
      <parblock><component name="bg_src" class="video_source">
        <param name="seed" value="7"/><param name="width" value="160"/>
        <param name="height" value="120"/><param name="frames" value="4"/>
        <outport name="out" stream="bg"/></component></parblock>
      <parblock><component name="fg_src" class="video_source">
        <param name="seed" value="8"/><param name="width" value="160"/>
        <param name="height" value="120"/><param name="frames" value="4"/>
        <outport name="out" stream="fg"/></component></parblock>
    </parallel>
    <component name="bgcopy" class="copy">
      <inport name="in" stream="bg"/><outport name="out" stream="canvas"/>
    </component>
    <parallel shape="slice" n="3"><parblock>
      <component name="ds" class="downscale"><param name="factor" value="4"/>
        <inport name="in" stream="fg"/><outport name="out" stream="small"/>
      </component></parblock></parallel>
    <parallel shape="slice" n="3"><parblock>
      <component name="bl" class="blend"><param name="x" value="10"/>
        <param name="y" value="6"/><inport name="fg" stream="small"/>
        <outport name="canvas" stream="canvas"/></component>
    </parblock></parallel>
    <component name="sink" class="frame_sink">
      <inport name="in" stream="canvas"/></component>
  </body></procedure></xspcl>)";
  auto unfused = build(spec);
  ASSERT_TRUE(unfused);
  hinch::Program::BuildConfig build_config;
  build_config.passes.fuse_kernels = true;
  build_config.passes.kernel_patterns = &components::standard_fusions();
  auto fused = xspcl::build_program(
      spec, hinch::ComponentRegistry::global(), build_config);
  ASSERT_TRUE(fused.is_ok()) << fused.status().to_string();
  EXPECT_GE(fused_tasks(*fused.value()), 1);
  const uint64_t want = run_sim_checksum(*unfused, 4, 1);
  EXPECT_EQ(run_sim_checksum(*fused.value(), 4, 1), want);
  EXPECT_EQ(run_sim_checksum(*fused.value(), 4, 3), want);
}

TEST(FusedOverlay, PlaneBlendWithReconfigMatchesUnfused) {
  // Only blend names a plane, and its initial reconfig moves the
  // overlay: the fused downscale_blend must downscale that one source
  // plane and honour pos= exactly as the unfused blend does.
  const std::string spec = R"(<xspcl><procedure name="main"><body>
    <parallel shape="task">
      <parblock><component name="bg_src" class="video_source">
        <param name="seed" value="7"/><param name="width" value="160"/>
        <param name="height" value="120"/><param name="frames" value="4"/>
        <outport name="out" stream="bg"/></component></parblock>
      <parblock><component name="fg_src" class="video_source">
        <param name="seed" value="8"/><param name="width" value="160"/>
        <param name="height" value="120"/><param name="frames" value="4"/>
        <outport name="out" stream="fg"/></component></parblock>
    </parallel>
    <component name="bgcopy" class="copy">
      <inport name="in" stream="bg"/><outport name="out" stream="canvas"/>
    </component>
    <parallel shape="slice" n="3"><parblock>
      <component name="ds" class="downscale"><param name="factor" value="4"/>
        <inport name="in" stream="fg"/><outport name="out" stream="small"/>
      </component></parblock></parallel>
    <parallel shape="slice" n="3"><parblock>
      <component name="bl" class="blend"><param name="x" value="10"/>
        <param name="y" value="6"/><param name="plane" value="1"/>
        <inport name="fg" stream="small"/>
        <outport name="canvas" stream="canvas"/>
        <reconfig request="pos=84,52"/></component>
    </parblock></parallel>
    <component name="sink" class="frame_sink">
      <inport name="in" stream="canvas"/></component>
  </body></procedure></xspcl>)";
  auto unfused = build(spec);
  ASSERT_TRUE(unfused);
  hinch::Program::BuildConfig build_config;
  build_config.passes.fuse_kernels = true;
  build_config.passes.kernel_patterns = &components::standard_fusions();
  auto fused = xspcl::build_program(
      spec, hinch::ComponentRegistry::global(), build_config);
  ASSERT_TRUE(fused.is_ok()) << fused.status().to_string();
  EXPECT_GE(fused_tasks(*fused.value()), 1);
  const uint64_t want = run_sim_checksum(*unfused, 4, 1);
  EXPECT_EQ(run_sim_checksum(*fused.value(), 4, 1), want);
  EXPECT_EQ(run_sim_checksum(*fused.value(), 4, 3), want);
}

TEST(JpipApp, TwoPipsMatchSequential) {
  JpipConfig config = small_jpip(2);
  apps::SeqResult seq = apps::run_jpip_sequential(config);
  auto prog = build(apps::jpip_xspcl(config));
  ASSERT_TRUE(prog);
  EXPECT_EQ(run_sim_checksum(*prog, config.frames, 2), seq.checksum);
}

TEST(JpipApp, ReconfigurableVariantRuns) {
  JpipConfig config = small_jpip(2);
  config.reconfigurable = true;
  config.toggle_period = 2;
  auto prog = build(apps::jpip_xspcl(config));
  ASSERT_TRUE(prog);
  hinch::RunConfig run;
  run.iterations = config.frames;
  hinch::SimParams sim;
  sim.cores = 3;
  hinch::SimResult r = hinch::run_on_sim(*prog, run, sim);
  EXPECT_GE(r.sched.reconfigurations, 1u);
}

// --- Blur ------------------------------------------------------------------------

class BlurKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(BlurKernelTest, XspclMatchesSequential) {
  BlurConfig config = small_blur(GetParam());
  apps::SeqResult seq = apps::run_blur_sequential(config);
  auto prog = build(apps::blur_xspcl(config));
  ASSERT_TRUE(prog);
  EXPECT_EQ(run_sim_checksum(*prog, config.frames, 1), seq.checksum);
  EXPECT_EQ(run_sim_checksum(*prog, config.frames, 4), seq.checksum);

  hinch::RunConfig run;
  run.iterations = config.frames;
  hinch::run_on_threads(*prog, run, 3);
  EXPECT_EQ(sink_checksum(*prog), seq.checksum);
}

INSTANTIATE_TEST_SUITE_P(Kernels, BlurKernelTest, ::testing::Values(3, 5));

TEST(BlurApp, Kernel5CostsMoreThanKernel3) {
  apps::SeqResult k3 = apps::run_blur_sequential(small_blur(3));
  apps::SeqResult k5 = apps::run_blur_sequential(small_blur(5));
  EXPECT_GT(k5.cycles, k3.cycles);
  EXPECT_NE(k3.checksum, k5.checksum);
}

TEST(BlurApp, ReconfigurableSwitchesKernels) {
  BlurConfig config = small_blur(3);
  config.reconfigurable = true;
  config.toggle_period = 3;
  auto prog = build(apps::blur_xspcl(config));
  ASSERT_TRUE(prog);
  hinch::RunConfig run;
  run.iterations = 12;
  hinch::SimParams sim;
  sim.cores = 2;
  hinch::SimResult r = hinch::run_on_sim(*prog, run, sim);
  EXPECT_GE(r.sched.reconfigurations, 3u);
}

// --- Fig. 8 shape: overhead ordering ---------------------------------------------

TEST(OverheadShape, XspclOverheadOrdering) {
  // XSPCL versions run the same kernels plus runtime work and extra
  // intermediate-buffer traffic, so on one core they cost at least as
  // much as the fused sequential versions; Blur (no fusion difference)
  // stays close.
  BlurConfig blur = small_blur(3);
  apps::SeqResult blur_seq = apps::run_blur_sequential(blur);
  auto blur_prog = build(apps::blur_xspcl(blur));
  ASSERT_TRUE(blur_prog);
  hinch::RunConfig run;
  run.iterations = blur.frames;
  hinch::SimParams sim;
  sim.cores = 1;
  uint64_t blur_xspcl = hinch::run_on_sim(*blur_prog, run, sim).total_cycles;
  double blur_overhead =
      static_cast<double>(blur_xspcl) / static_cast<double>(blur_seq.cycles) -
      1.0;
  EXPECT_GT(blur_overhead, -0.05);
  EXPECT_LT(blur_overhead, 0.35);
}

// --- determinism across builds ----------------------------------------------------

TEST(Apps, RebuildingProgramGivesSameCycles) {
  PipConfig config = small_pip(1);
  auto prog1 = build(apps::pip_xspcl(config));
  auto prog2 = build(apps::pip_xspcl(config));
  ASSERT_TRUE(prog1 && prog2);
  hinch::RunConfig run;
  run.iterations = config.frames;
  hinch::SimParams sim;
  sim.cores = 3;
  EXPECT_EQ(hinch::run_on_sim(*prog1, run, sim).total_cycles,
            hinch::run_on_sim(*prog2, run, sim).total_cycles);
}

}  // namespace
