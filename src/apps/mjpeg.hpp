// Frame-parallel MJPEG decode: the wall-clock throughput application of
// the SIMD + parallel media path. An mjpeg_source feeds a windowed
// decode chain (entropy decode -> sliced IDCT Y/U/V -> yuv_sink) run on
// the thread executor's central job queue, so successive frames decode
// concurrently (every frame of an MJPEG stream is independently coded).
//
// Two orthogonal parallelism knobs, both in the coordination layer (the
// components stay sequential):
//   workers  host threads in the executor pool (frame-parallel via the
//            iteration window; the decoder and the IDCTs are opted in as
//            reentrant, so up to `window` frames decode at once and only
//            the source and the sink are sequential with themselves),
//   slices   data-parallel IDCT slices inside one frame.
//
// Wall-clock throughput of this graph is measured by perfbench's
// mjpeg_1080p workload.
#pragma once

#include <cstdint>
#include <string>

namespace apps {

struct MjpegDecodeConfig {
  int width = 1920;
  int height = 1080;
  int frames = 32;      // iterations (clip loops if shorter)
  int clip_frames = 8;  // distinct synthetic frames in the clip
  int quality = 85;
  uint64_t seed = 501;
  int slices = 1;   // IDCT slices per plane
  int window = 4;   // concurrently in-flight frames
  int workers = 4;  // executor threads
  int restart = 0;  // restart interval encoded into the clip (MCUs)
  bool store_output = false;
};

struct MjpegDecodeResult {
  int frames = 0;
  uint64_t checksum = 0;
  int64_t frames_done_metric = 0;  // final "live.iterations_done" gauge
};

// XSPCL program text for the decode graph.
std::string mjpeg_xspcl(const MjpegDecodeConfig& config);

// Build and run the program on the thread backend; aborts on malformed
// config (this is a test entry point, not a library API).
MjpegDecodeResult run_mjpeg_decode(const MjpegDecodeConfig& config);

}  // namespace apps
