// The standard component library: the building blocks of the paper's
// three applications (PiP, JPiP, Blur) plus generic sources, sinks,
// event utilities and the fused-loop classes the fuse-kernels pass
// rewrites chains into. Each class registers one hinch::ClassInfo (its
// ports, params and reentrancy); docs/COMPONENTS.md documents every
// class, and a test keeps the two in step.
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
