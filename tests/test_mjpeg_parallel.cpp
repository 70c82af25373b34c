// Frame-parallel MJPEG decode: the thread-backend decode graph must be
// bit-identical across worker counts and window sizes, and must publish
// the live decode gauges. Runs the thread executor with concurrent
// frames in flight on restart-coded clips, so it joins the
// ThreadSanitizer suite.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "components/components.hpp"
#include "hinch/runtime.hpp"
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

TEST(MjpegParallel, PublishesLiveDecodeGauges) {
  MjpegDecodeConfig c = small_config();
  MjpegDecodeResult r = apps::run_mjpeg_decode(c);
  EXPECT_EQ(r.frames, c.frames);
  EXPECT_EQ(r.frames_done_metric, c.frames);
}

}  // namespace
