// The standard component library: the building blocks of the paper's
// three applications (PiP, JPiP, Blur) plus generic sources, sinks, and
// event utilities.
//
// Component classes (XSPCL `class` attribute → behaviour):
//
//   video_source   out:"out"       Emits one uncompressed frame per
//                                  iteration. params: source=synth|file,
//                                  seed,width,height,frames,format
//                                  (synth) or path (file).
//   mjpeg_source   out:"out"       Emits one JPEG-compressed frame
//                                  (byte packet) per iteration. params as
//                                  video_source plus quality.
//   copy           in:"in" out:"out"
//                                  Copies the frame (sliced by rows).
//   downscale      in:"in" out:"out"
//                                  Box downscale by `factor`. plane=-1:
//                                  all planes; plane=p: that plane to a
//                                  gray frame. Sliced by output rows.
//   blend          in:"fg" out:"canvas" (in-place)
//                                  Alpha-blends fg over the canvas at
//                                  (x, y) in target-plane coordinates.
//                                  params: x,y,alpha,plane. Reconfig
//                                  request "pos=X,Y" moves the picture
//                                  (the paper's §3.1 example). Sliced by
//                                  fg rows.
//   blur_h/blur_v  in:"in" out:"out"
//                                  Separable Gaussian (kernel=3|5,
//                                  plane=p, gray output). Reconfig
//                                  request "kernel=N" switches size.
//                                  Sliced by rows.
//   jpeg_decode    in:"jpeg" out:"coeffs"
//                                  Entropy decode + dequantize into a
//                                  CoeffImage packet. Sequential; no
//                                  params.
//   idct           in:"coeffs" out:"out"
//                                  IDCT of component `plane` into a gray
//                                  frame. Sliced by block rows.
//
// Fused-loop classes (synthesized by the fuse-kernels pass from the
// chains listed in standard_fusions(); also usable directly):
//
//   jpeg_decode_planes
//                  in:"jpeg" out:"y","u","v"
//                                  jpeg_decode + three idcts in one
//                                  component; the CoeffImage is private
//                                  scratch, never a stream packet.
//   downscale_blend
//                  in:"in" out:"canvas" (in-place)
//                                  downscale + blend in one traversal
//                                  (media::downscale_blend); the small
//                                  frame never materializes. params:
//                                  factor, src_plane, x, y, alpha,
//                                  plane. Honours "pos=X,Y". Sliced by
//                                  downscaled rows.
//   frame_sink     in:"in"         Consumes frames; folds their plane
//                                  digests into a checksum (a frame_hash
//                                  chain), frame count, optional
//                                  retention (store=1).
//   yuv_sink       in:"y","u","v"  Folds the three gray planes' digests
//                                  into the same checksum; only store=1
//                                  assembles and retains a frame.
//   event_ticker   (no ports)      Sends `event` to `queue` every
//                                  `period` iterations (user-interaction
//                                  stand-in driving reconfiguration).
//   policy         (no ports)      Polls the run's live metrics and
//                                  sends manager events on threshold
//                                  crossings with hysteresis. params:
//                                  queue, rules ("metric:high:low:
//                                  on_high:on_low;..."), period, hold.
//                                  See docs/OBSERVABILITY.md.
//   var_load       (no ports)      Charges `cycles` of compute per
//                                  iteration, stepping to `step_cycles`
//                                  at `step_at` (back at `restore_at`) —
//                                  the load step the adaptation bench
//                                  and policy tests drive.
#pragma once

#include "hinch/registry.hpp"
#include "sp/fuse_kernels.hpp"

namespace components {

// Register every standard class into `registry`.
void register_standard(hinch::ComponentRegistry& registry);

// Idempotent registration into the global registry.
void register_standard_globally();

// The fusible chains the standard library provides fused kernels for
// (static storage; safe to hand to sp::fuse_kernels_pass by pointer):
//   jpeg_decode -> idct x3   =>  jpeg_decode_planes
//   downscale -> blend       =>  downscale_blend
const sp::KernelFusionRegistry& standard_fusions();

}  // namespace components
