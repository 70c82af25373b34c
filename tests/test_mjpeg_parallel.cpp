// Frame-parallel MJPEG decode: the thread-backend decode graph must be
// bit-identical across worker counts and window sizes and to a serial
// decode of the clip, and must publish the live decode gauges. Runs the
// thread executor with concurrent frames in flight on restart-coded
// clips, so it joins the ThreadSanitizer suite.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "components/clip_cache.hpp"
#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "media/jpeg.hpp"
#include "media/metrics.hpp"
#include "xspcl/loader.hpp"

namespace {

using apps::MjpegDecodeConfig;
using apps::MjpegDecodeResult;

// Scaled-down 4K stand-in: big enough for several MCU rows and restart
// intervals, small enough to keep the suite fast.
MjpegDecodeConfig small_config() {
  MjpegDecodeConfig c;
  c.width = 192;
  c.height = 144;
  c.frames = 12;
  c.clip_frames = 4;
  c.quality = 80;
  c.seed = 601;
  c.slices = 2;
  c.window = 4;
  c.workers = 4;
  c.restart = 4;
  return c;
}

TEST(MjpegParallel, SpecBuilds) {
  components::register_standard_globally();
  auto prog = xspcl::build_program(apps::mjpeg_xspcl(small_config()),
                                   hinch::ComponentRegistry::global());
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  // Only the decoder overlaps across frames; the IDCTs and the sink keep
  // their self edges.
  for (const hinch::Task& t : prog.value()->tasks())
    EXPECT_EQ(t.reentrant, t.label == "dec/dec") << t.label;
}

TEST(MjpegParallel, ChecksumStableAcrossWorkerCounts) {
  MjpegDecodeConfig base = small_config();
  base.workers = 1;
  base.window = 1;
  MjpegDecodeResult serial = apps::run_mjpeg_decode(base);
  ASSERT_EQ(serial.frames, base.frames);
  ASSERT_NE(serial.checksum, 0u);

  for (int workers : {2, 4}) {
    for (int window : {2, 4}) {
      MjpegDecodeConfig c = base;
      c.workers = workers;
      c.window = window;
      MjpegDecodeResult r = apps::run_mjpeg_decode(c);
      EXPECT_EQ(r.frames, serial.frames)
          << workers << " workers, window " << window;
      EXPECT_EQ(r.checksum, serial.checksum)
          << workers << " workers, window " << window;
    }
  }
}

// A size that is not a whole number of MCUs (16x16 luma in 4:2:0), so
// every plane has partial blocks and rows that are not whole 8-byte words.
MjpegDecodeConfig odd_config() {
  MjpegDecodeConfig c = small_config();
  c.width = 100;
  c.height = 36;
  c.frames = 6;
  c.clip_frames = 3;
  return c;
}

// media::frame_hash chained over a serial media::jpeg::decode of the
// clip, in playback order: the checksum the decode graph must report.
uint64_t serial_checksum(const MjpegDecodeConfig& c) {
  auto clip = components::cached_mjpeg_clip(
      {c.seed, c.width, c.height, media::PixelFormat::kYuv420, c.clip_frames,
       c.quality, c.restart});
  uint64_t h = media::kFnvBasis;
  for (int t = 0; t < c.frames; ++t) {
    const std::vector<uint8_t>& bytes = clip->frame(t % clip->frame_count());
    auto f = media::jpeg::decode(bytes.data(), bytes.size());
    SUP_CHECK_MSG(f.is_ok(), f.status().to_string().c_str());
    h = media::frame_hash(*f.value(), h);
  }
  return h;
}

// The decoder is reentrant in this graph, so up to `window` frames
// entropy-decode at once, each into its own coefficient slot; window 5
// on 2 workers keeps more frames in flight than there are workers.
TEST(MjpegParallel, ChecksumEqualsSerialDecode) {
  MjpegDecodeConfig c = odd_config();
  const uint64_t serial = serial_checksum(c);
  for (auto [workers, window] : {std::pair{1, 1}, {4, 4}, {2, 5}}) {
    c.workers = workers;
    c.window = window;
    MjpegDecodeResult r = apps::run_mjpeg_decode(c);
    EXPECT_EQ(r.frames, c.frames) << workers << " workers, window " << window;
    EXPECT_EQ(r.checksum, serial) << workers << " workers, window " << window;
  }
}

// yuv_sink digests the planes where they lie and assembles a frame only
// for store=1; both must give the frame_hash chain of the stored frames.
TEST(MjpegParallel, YuvSinkChecksumIsFrameHashOfStoredFrames) {
  MjpegDecodeConfig c = odd_config();
  c.store_output = true;
  components::register_standard_globally();
  auto prog = xspcl::build_program(apps::mjpeg_xspcl(c),
                                   hinch::ComponentRegistry::global());
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();
  hinch::RunConfig run;
  run.iterations = c.frames;
  run.window = c.window;
  hinch::run_on_threads(*prog.value(), run, c.workers);

  const components::SinkState* sink = nullptr;
  for (int i = 0; i < prog.value()->component_count() && !sink; ++i) {
    auto* access = dynamic_cast<const components::SinkAccess*>(
        &prog.value()->component(i));
    if (access) sink = &access->sink();
  }
  ASSERT_NE(sink, nullptr);
  ASSERT_EQ(sink->frames(), c.frames);
  uint64_t stored = media::kFnvBasis;
  for (int i = 0; i < c.frames; ++i)
    stored = media::frame_hash(*sink->frame(i), stored);
  EXPECT_EQ(sink->checksum(), stored);

  c.store_output = false;
  EXPECT_EQ(apps::run_mjpeg_decode(c).checksum, stored);
}

TEST(MjpegParallel, PublishesLiveDecodeGauges) {
  MjpegDecodeConfig c = small_config();
  MjpegDecodeResult r = apps::run_mjpeg_decode(c);
  EXPECT_EQ(r.frames, c.frames);
  EXPECT_EQ(r.frames_done_metric, c.frames);
}

}  // namespace
