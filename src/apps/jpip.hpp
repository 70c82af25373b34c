// JPEG Picture-in-Picture (§4, Fig. 7): like PiP, but the inputs are
// motion-JPEG streams that must be entropy-decoded and IDCT'd first.
// Components per input: MJPEG input -> JPEG decode -> IDCT Y/U/V; the
// picture-in-picture chains add Downscale Y/U/V -> Blend Y/U/V into the
// background's decoded planes. Paper parameters: 1280x720, 24 frames,
// downscale 16, 45 slices for IDCT / downscale / blend.
#pragma once

#include <string>

#include "apps/pip.hpp"  // SeqResult

namespace apps {

struct JpipConfig {
  int width = 1280;
  int height = 720;
  int frames = 24;   // iterations (paper: 24, limited by simulator speed)
  int pips = 1;
  int factor = 16;   // paper: 16
  int slices = 45;   // paper: 45
  int quality = 75;  // JPEG quality of the synthetic inputs
  bool reconfigurable = false;  // JPiP-12 (§4.3)
  // §4.1's proposed fix for the cache misses: fuse the decode chain
  // (entropy decode + the three IDCTs) into one <group> so the
  // coefficient image never parks in a stream. Costs the IDCT slicing.
  bool grouped = false;
  int toggle_period = 12;
  int clip_frames = 6;
  uint64_t bg_seed = 301;
  uint64_t pip_seed = 400;
  int alpha = 256;
  bool store_output = false;
};

// Luma-space position of picture-in-picture `index`.
void jpip_position(const JpipConfig& config, int index, int* x, int* y);

std::string jpip_xspcl(const JpipConfig& config);

// XSPCL text of the `jpeg_chain` procedure: JPEG decode followed by three
// concurrent sliced IDCTs. Formals: streams jpeg, py, pu, pv, the value
// slices and the value reentrant (default false). reentrant opts all four
// leaves in; mjpeg_xspcl passes true so frames decode and IDCT
// concurrently, and fuse-kernels (for one core: the IDCT step runs three
// tasks side by side) then keeps the fused chain reentrant.
// jpip_xspcl and mjpeg_xspcl both emit it.
const char* jpeg_chain_procedure();

SeqResult run_jpip_sequential(const JpipConfig& config,
                              const sim::CacheConfig& cache = {},
                              SeqTrace* trace = nullptr);

}  // namespace apps
