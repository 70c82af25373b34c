// Unit tests of the standard component library, each through a minimal
// program on the simulator: construction-parameter validation, looping
// sources, plane modes, reconfiguration requests, sink retention.
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "components/clip_cache.hpp"
#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"
#include "media/mjpeg.hpp"
#include "media/synth.hpp"
#include "xspcl/loader.hpp"

namespace {

std::unique_ptr<hinch::Program> build(const std::string& spec) {
  components::register_standard_globally();
  auto prog =
      xspcl::build_program(spec, hinch::ComponentRegistry::global());
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
  return prog.is_ok() ? std::move(prog).take() : nullptr;
}

const components::SinkAccess* find_sink(hinch::Program& prog) {
  for (int i = 0; i < prog.component_count(); ++i) {
    auto* s =
        dynamic_cast<const components::SinkAccess*>(&prog.component(i));
    if (s) return s;
  }
  return nullptr;
}

void run(hinch::Program& prog, int64_t iterations, int cores = 1) {
  hinch::RunConfig config;
  config.iterations = iterations;
  hinch::SimParams sim;
  sim.cores = cores;
  hinch::run_on_sim(prog, config, sim);
}

// Build errors surface as Status, not crashes: each names the instance,
// its class and why. Every case reads stream `v`, which a valid source
// writes, so the spec gets past validation to Program::build.
struct BadComponent {
  const char* name;
  const char* component;
  const char* why;
};

class ComponentCreateErrorTest
    : public ::testing::TestWithParam<BadComponent> {};

TEST_P(ComponentCreateErrorTest, RejectedAtBuildTime) {
  components::register_standard_globally();
  const std::string spec =
      std::string(R"(<xspcl><procedure name="main"><body>
        <component name="src" class="video_source">
          <outport name="out" stream="v"/>
        </component>)") +
      GetParam().component + "</body></procedure></xspcl>";
  auto prog =
      xspcl::build_program(spec, hinch::ComponentRegistry::global());
  ASSERT_FALSE(prog.is_ok()) << GetParam().name;
  EXPECT_EQ(prog.status().message().rfind("component '", 0), 0u)
      << prog.status().to_string();
  EXPECT_NE(prog.status().message().find(GetParam().why), std::string::npos)
      << prog.status().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ComponentCreateErrorTest,
    ::testing::Values(
        BadComponent{"tiny_source", R"(
          <component name="s" class="video_source">
            <param name="width" value="4"/>
            <outport name="out" stream="x"/>
          </component>)",
                     "param 'width': 4 is outside [8, 16384]"},
        BadComponent{"source_param_typo", R"(
          <component name="s" class="video_source">
            <param name="seed_typo" value="4"/>
            <outport name="out" stream="x"/>
          </component>)",
                     "unknown param 'seed_typo'"},
        BadComponent{"bad_source_kind", R"(
          <component name="s" class="video_source">
            <param name="source" value="webcam"/>
            <outport name="out" stream="x"/>
          </component>)",
                     "source must be 'synth' or 'file'"},
        BadComponent{"file_source_without_path", R"(
          <component name="s" class="mjpeg_source">
            <param name="source" value="file"/>
            <outport name="out" stream="x"/>
          </component>)",
                     "source=file needs a path"},
        BadComponent{"mjpeg_quality_zero", R"(
          <component name="s" class="mjpeg_source">
            <param name="quality" value="0"/>
            <outport name="out" stream="x"/>
          </component>)",
                     "param 'quality': 0 is outside [1, 100]"},
        BadComponent{"downscale_no_factor", R"(
          <component name="d" class="downscale">
            <inport name="in" stream="v"/>
            <outport name="out" stream="w"/>
          </component>)",
                     "param 'factor' is required"},
        BadComponent{"downscale_bad_factor", R"(
          <component name="d" class="downscale">
            <param name="factor" value="0"/>
            <inport name="in" stream="v"/>
            <outport name="out" stream="w"/>
          </component>)",
                     "param 'factor': 0 is outside [1, 256]"},
        BadComponent{"downscale_factor_twice", R"(
          <component name="d" class="downscale">
            <param name="factor" value="2"/>
            <param name="factor" value="4"/>
            <inport name="in" stream="v"/>
            <outport name="out" stream="w"/>
          </component>)",
                     "param 'factor' is given twice"},
        BadComponent{"downscale_undeclared_port", R"(
          <component name="d" class="downscale">
            <param name="factor" value="2"/>
            <inport name="src" stream="v"/>
            <outport name="out" stream="w"/>
          </component>)",
                     "no input port 'src'"},
        BadComponent{"blend_bad_alpha", R"(
          <component name="b" class="blend">
            <param name="alpha" value="999"/>
            <inport name="fg" stream="v"/>
            <outport name="canvas" stream="w"/>
          </component>)",
                     "param 'alpha': 999 is outside [0, 256]"},
        BadComponent{"blur_bad_kernel", R"(
          <component name="b" class="blur_h">
            <param name="kernel" value="4"/>
            <inport name="in" stream="v"/>
            <outport name="out" stream="w"/>
          </component>)",
                     "blur: kernel must be 3 or 5"},
        BadComponent{"idct_bad_plane", R"(
          <component name="i" class="idct">
            <param name="plane" value="5"/>
            <inport name="coeffs" stream="v"/>
            <outport name="out" stream="w"/>
          </component>)",
                     "param 'plane': 5 is outside [0, 2]"},
        BadComponent{"ticker_without_event", R"(
          <component name="t" class="event_ticker">
            <param name="queue" value="q"/>
            <param name="period" value="2"/>
          </component>)",
                     "param 'event' is required"},
        BadComponent{"ticker_bad_period", R"(
          <component name="t" class="event_ticker">
            <param name="event" value="e"/>
            <param name="queue" value="q"/>
            <param name="period" value="0"/>
          </component>)",
                     "param 'period': 0 is outside [1, "},
        BadComponent{"script_bad_entry", R"(
          <component name="t" class="event_script">
            <param name="queue" value="q"/>
            <param name="script" value="nonsense"/>
          </component>)",
                     "event_script: entries are iteration:event[:payload]"}),
    [](const ::testing::TestParamInfo<BadComponent>& info) {
      return info.param.name;
    });

TEST(VideoSource, LoopsOverClipFrames) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="seed" value="9"/>
      <param name="width" value="32"/>
      <param name="height" value="24"/>
      <param name="frames" value="3"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="v"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 7);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  ASSERT_EQ(sink->sink().frames(), 7);
  // Frame 3 repeats frame 0, frame 4 repeats frame 1, etc.
  EXPECT_TRUE(sink->sink().frame(3)->equals(*sink->sink().frame(0)));
  EXPECT_TRUE(sink->sink().frame(4)->equals(*sink->sink().frame(1)));
  EXPECT_FALSE(sink->sink().frame(1)->equals(*sink->sink().frame(0)));
}

TEST(VideoSource, FileSourceRoundTrips) {
  media::SynthSpec spec{.seed = 77, .width = 48, .height = 32};
  media::RawVideo clip = media::RawVideo::synthesize(spec, 4);
  std::string path = ::testing::TempDir() + "/src.rawv";
  ASSERT_TRUE(clip.save(path).is_ok());

  auto prog = build(std::string(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="source" value="file"/>
      <param name="path" value=")") + path + R"("/>
      <outport name="out" stream="v"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="v"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 4);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(sink->sink().frame(i)->equals(*clip.frame(i))) << i;
}

TEST(MjpegSource, FileSourceDecodesViaPipeline) {
  media::SynthSpec spec{.seed = 78, .width = 64, .height = 48};
  media::RawVideo clip = media::RawVideo::synthesize(spec, 2);
  auto encoded = media::MjpegClip::encode(clip, 85);
  ASSERT_TRUE(encoded.is_ok());
  std::string path = ::testing::TempDir() + "/src.mjpg";
  ASSERT_TRUE(encoded.value().save(path).is_ok());

  auto prog = build(std::string(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="mjpeg_source">
      <param name="source" value="file"/>
      <param name="path" value=")") + path + R"("/>
      <outport name="out" stream="j"/>
    </component>
    <component name="d" class="jpeg_decode">
      <inport name="jpeg" stream="j"/>
      <outport name="coeffs" stream="c"/>
    </component>
    <component name="iy" class="idct">
      <param name="plane" value="0"/>
      <inport name="coeffs" stream="c"/>
      <outport name="out" stream="y"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="y"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 2);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  // The decoded luma must be close to the original.
  media::FramePtr y = sink->sink().frame(0);
  ASSERT_EQ(y->format(), media::PixelFormat::kGray);
  media::FramePtr orig_y =
      media::make_frame(media::PixelFormat::kGray, 64, 48);
  media::copy_plane(clip.frame(0)->plane(0), orig_y->plane(0), 0, 48);
  EXPECT_GT(media::psnr(*orig_y, *y), 30.0);
}

TEST(Downscale, PlaneModeProducesGray) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="width" value="64"/><param name="height" value="48"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="d" class="downscale">
      <param name="factor" value="4"/>
      <param name="plane" value="1"/>
      <inport name="in" stream="v"/>
      <outport name="out" stream="w"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="w"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 1);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  media::FramePtr out = sink->sink().frame(0);
  EXPECT_EQ(out->format(), media::PixelFormat::kGray);
  EXPECT_EQ(out->width(), 8);   // U plane is 32x24, /4
  EXPECT_EQ(out->height(), 6);
}

TEST(Blend, ReconfigurePosMovesOverlay) {
  // Initial reconfiguration request (§3.1) places the overlay; the run
  // must reflect the new position, not the x/y params.
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="bg" class="video_source">
      <param name="width" value="64"/><param name="height" value="48"/>
      <outport name="out" stream="b"/>
    </component>
    <component name="fg" class="video_source">
      <param name="seed" value="5"/>
      <param name="width" value="16"/><param name="height" value="16"/>
      <outport name="out" stream="f"/>
    </component>
    <component name="c" class="copy">
      <inport name="in" stream="b"/>
      <outport name="out" stream="canvas"/>
    </component>
    <component name="bl" class="blend">
      <param name="x" value="0"/>
      <param name="y" value="0"/>
      <param name="plane" value="0"/>
      <inport name="fg" stream="f"/>
      <outport name="canvas" stream="canvas"/>
      <reconfig request="pos=40,24"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="canvas"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 1);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  media::FramePtr out = sink->sink().frame(0);

  // Rebuild the expectation by hand.
  media::SynthSpec bg_spec{.seed = 1, .width = 64, .height = 48};
  media::SynthSpec fg_spec{.seed = 5, .width = 16, .height = 16};
  media::FramePtr expect = media::make_synth_frame(bg_spec, 0)->clone();
  media::FramePtr fg = media::make_synth_frame(fg_spec, 0);
  media::blend(fg->plane(0), expect->plane(0), 40, 24, 256, 0, 48);
  EXPECT_TRUE(out->equals(*expect));
}

TEST(EventTicker, FiresAtExactPeriods) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="t" class="event_ticker">
      <param name="event" value="tick"/>
      <param name="queue" value="q"/>
      <param name="period" value="4"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 13);
  // Nobody consumed the events; count them: iterations 4, 8, 12.
  hinch::EventQueue* q = prog->queues().find("q");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->size(), 3u);
}

TEST(Sinks, StoreOffKeepsOnlyChecksum) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="width" value="32"/><param name="height" value="24"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="k" class="frame_sink">
      <inport name="in" stream="v"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 5);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  EXPECT_EQ(sink->sink().frames(), 5);
  EXPECT_NE(sink->sink().checksum(), media::kFnvBasis);
}

TEST(Sinks, ResetBetweenRunsClearsState) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="width" value="32"/><param name="height" value="24"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="k" class="frame_sink">
      <inport name="in" stream="v"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 5);
  uint64_t first = find_sink(*prog)->sink().checksum();
  run(*prog, 5);
  EXPECT_EQ(find_sink(*prog)->sink().checksum(), first);
  EXPECT_EQ(find_sink(*prog)->sink().frames(), 5);
}

TEST(SceneChange, FiresOnContentJumpsOnly) {
  // threshold=0 -> every frame pair differs in a moving synthetic clip,
  // so events fire from iteration 1 onward; a huge threshold never fires.
  for (auto [threshold, expected] : {std::pair<int, size_t>{0, 9},
                                     std::pair<int, size_t>{100000, 0}}) {
    auto prog = build(std::string(R"(<xspcl><procedure name="main"><body>
      <component name="s" class="video_source">
        <param name="width" value="48"/><param name="height" value="32"/>
        <outport name="out" stream="v"/>
      </component>
      <component name="d" class="scene_change">
        <param name="queue" value="q"/>
        <param name="event" value="cut"/>
        <param name="threshold" value=")") + std::to_string(threshold) +
                      R"("/>
        <inport name="in" stream="v"/>
        <outport name="out" stream="w"/>
      </component>
      <component name="k" class="frame_sink">
        <inport name="in" stream="w"/>
      </component>
    </body></procedure></xspcl>)");
    ASSERT_TRUE(prog);
    run(*prog, 10);
    // The queue is created lazily on the first send; absent == 0 events.
    hinch::EventQueue* q = prog->queues().find("q");
    size_t events = q ? q->size() : 0;
    EXPECT_EQ(events, expected) << "threshold=" << threshold;
    // Pass-through is intact.
    EXPECT_EQ(find_sink(*prog)->sink().frames(), 10);
  }
}

// A downscale -> blend chain over `canvas`; `extra` goes into the
// downscale's params.
std::string downscale_blend_spec(const std::string& extra) {
  return R"(<xspcl><procedure name="main"><body>
    <component name="bg" class="video_source">
      <param name="width" value="64"/><param name="height" value="48"/>
      <outport name="out" stream="bg"/>
    </component>
    <component name="fg" class="video_source">
      <param name="seed" value="2"/>
      <param name="width" value="64"/><param name="height" value="48"/>
      <outport name="out" stream="fg"/>
    </component>
    <component name="copy" class="copy">
      <inport name="in" stream="bg"/><outport name="out" stream="canvas"/>
    </component>
    <component name="ds" class="downscale">
      <param name="factor" value="2"/>)" +
         extra + R"(
      <inport name="in" stream="fg"/><outport name="out" stream="small"/>
    </component>
    <component name="bl" class="blend">
      <param name="x" value="8"/>
      <inport name="fg" stream="small"/>
      <outport name="canvas" stream="canvas"/>
    </component>
    <component name="sink" class="frame_sink">
      <inport name="in" stream="canvas"/>
    </component>
  </body></procedure></xspcl>)";
}

support::Result<std::unique_ptr<hinch::Program>> build_fused(
    const std::string& spec) {
  components::register_standard_globally();
  hinch::Program::BuildConfig config;
  config.passes.fuse_kernels = true;
  config.passes.kernel_patterns = &components::standard_fusions();
  return xspcl::build_program(spec, hinch::ComponentRegistry::global(),
                              config);
}

// The fused downscale_blend gets only the params the spec set and takes
// the rest from its ClassInfo: its output equals the unfused pair's. A
// param the rewrite has no counterpart for keeps the chain unfused, so
// Program::build still reports it.
TEST(Fusion, DownscaleBlendKeepsTheUnfusedDefaultsAndChecks) {
  auto unfused = build(downscale_blend_spec(""));
  auto fused = build_fused(downscale_blend_spec(""));
  ASSERT_TRUE(unfused && fused.is_ok()) << fused.status().to_string();
  int fused_tasks = 0;
  for (const hinch::Task& t : fused.value()->tasks())
    fused_tasks += t.label == "ds+bl";
  EXPECT_EQ(fused_tasks, 1);
  run(*unfused, 4);
  run(*fused.value(), 4);
  EXPECT_EQ(find_sink(*fused.value())->sink().checksum(),
            find_sink(*unfused)->sink().checksum());

  auto typo = build_fused(
      downscale_blend_spec(R"(<param name="plane_typo" value="0"/>)"));
  ASSERT_FALSE(typo.is_ok());
  EXPECT_NE(typo.status().message().find(
                "component 'ds' (class downscale): unknown param 'plane_typo'"),
            std::string::npos)
      << typo.status().to_string();
}

TEST(ClipCache, InsertSurvivesBudgetSmallerThanOneClip) {
  components::clear_clip_caches();
  // Budget below the size of any single clip: the freshly inserted entry
  // must be retained (the caller holds a reference to it), not evicted
  // out from under the returned pointer.
  size_t prev = components::set_clip_cache_budget(1);
  components::ClipKey key{1234, 32, 24, media::PixelFormat::kYuv420, 2, 0};
  auto clip = components::cached_raw_clip(key);
  ASSERT_NE(clip, nullptr);
  EXPECT_EQ(clip->frame_count(), 2);
  EXPECT_GT(components::clip_cache_bytes(), 0u);
  // A second insert evicts the colder entry but again keeps the new one.
  components::ClipKey key2 = key;
  key2.seed = 5678;
  auto clip2 = components::cached_raw_clip(key2);
  ASSERT_NE(clip2, nullptr);
  size_t clip2_bytes = static_cast<size_t>(clip2->frame_count()) *
                       clip2->frame(0)->bytes();
  EXPECT_EQ(components::clip_cache_bytes(), clip2_bytes);
  // The evicted clip stays alive through the caller's shared_ptr.
  EXPECT_EQ(clip->frame_count(), 2);
  components::set_clip_cache_budget(prev);
  components::clear_clip_caches();
}

// The ### headings of docs/COMPONENTS.md: each backticked class name
// before the heading's dash maps to the heading line and its section.
std::map<std::string, std::string> documented_classes() {
  std::ifstream in(COMPONENTS_DOC);
  EXPECT_TRUE(in.good()) << COMPONENTS_DOC;
  std::map<std::string, std::string> out;
  std::vector<std::string> current;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind('#', 0) == 0) {
      current.clear();
      if (line.rfind("### `", 0) != 0) continue;
      const std::string names = line.substr(0, line.find(" \u2014 "));
      size_t open = names.find('`');
      while (open != std::string::npos) {
        const size_t close = names.find('`', open + 1);
        if (close == std::string::npos) break;
        current.push_back(names.substr(open + 1, close - open - 1));
        open = names.find('`', close + 1);
      }
    }
    for (const std::string& name : current) out[name] += line + "\n";
  }
  return out;
}

// docs/COMPONENTS.md documents every registered class, its ports and its
// params, and no class that is not registered.
TEST(Registry, ComponentsDocMatchesTheRegistry) {
  hinch::ComponentRegistry reg;
  components::register_standard(reg);
  const std::map<std::string, std::string> doc = documented_classes();
  for (const auto& [name, info] : reg.classes()) {
    auto it = doc.find(name);
    if (it == doc.end()) {
      ADD_FAILURE() << "no ### `" << name << "` heading";
      continue;
    }
    const std::string heading = it->second.substr(0, it->second.find('\n'));
    for (const auto* ports : {&info.inputs, &info.outputs})
      for (const std::string& port : *ports)
        EXPECT_NE(heading.find("`" + port + "`"), std::string::npos)
            << name << "'s heading does not name port " << port;
    for (const hinch::ParamSpec& p : info.params)
      EXPECT_NE(it->second.find("`" + p.name + "`"), std::string::npos)
          << name << "'s section does not name param " << p.name;
  }
  for (const auto& [name, text] : doc)
    EXPECT_NE(reg.find(name), nullptr) << "documented class " << name
                                       << " is not registered";
}

const hinch::ParamSpec& declared(const hinch::ComponentRegistry& reg,
                                 const std::string& klass,
                                 const std::string& param) {
  const hinch::ClassInfo* info = reg.find(klass);
  SUP_CHECK(info != nullptr);
  for (const hinch::ParamSpec& p : info->params)
    if (p.name == param) return p;
  SUP_CHECK_MSG(false, "param not declared");
  return info->params.front();
}

// The fuse-kernels rewrite copies only the params a spec set onto
// downscale_blend, so its declared defaults and ranges must be those of
// downscale and blend.
TEST(Registry, DownscaleBlendDeclaresTheUnfusedPairsParams) {
  hinch::ComponentRegistry reg;
  components::register_standard(reg);
  const struct {
    const char* klass;
    const char* param;
    const char* fused;
  } pairs[] = {{"downscale", "factor", "factor"},
               {"downscale", "plane", "src_plane"},
               {"blend", "x", "x"},
               {"blend", "y", "y"},
               {"blend", "alpha", "alpha"},
               {"blend", "plane", "plane"}};
  ASSERT_EQ(reg.find("downscale_blend")->params.size(), std::size(pairs));
  for (const auto& pair : pairs) {
    const hinch::ParamSpec& a = declared(reg, pair.klass, pair.param);
    const hinch::ParamSpec& b = declared(reg, "downscale_blend", pair.fused);
    EXPECT_EQ(a.kind, b.kind) << pair.fused;
    EXPECT_EQ(a.lo, b.lo) << pair.fused;
    EXPECT_EQ(a.hi, b.hi) << pair.fused;
    EXPECT_EQ(a.presence, b.presence) << pair.fused;
    EXPECT_EQ(a.fallback, b.fallback) << pair.fused;
  }
}

}  // namespace
