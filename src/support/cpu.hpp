// Host CPU capability probe for the runtime-dispatched media kernels.
//
// The probe answers one question: which vector instruction sets may the
// process safely execute? media::set_kernel_dispatch() consults it to
// pick a kernel table at load time (the staged-specialization idea: best
// implementation variant chosen once, not per call).
//
// Setting HINCH_FORCE_SCALAR in the environment (to anything but "0" or
// the empty string) reports every vector feature as absent, pinning the
// bit-exactness reference path — the kernel analogue of
// HuffmanImpl::kBitSerial. See docs/PERF.md.
#pragma once

namespace support {

struct CpuFeatures {
  bool avx2 = false;
  bool neon = false;  // aarch64 baseline
};

// Raw hardware probe, ignoring HINCH_FORCE_SCALAR (for tests and
// diagnostics).
CpuFeatures probe_cpu_features();

// True when HINCH_FORCE_SCALAR is set and not "0"/"".
bool force_scalar_env();

// Cached probe with the HINCH_FORCE_SCALAR override applied; this is
// what dispatch decisions must use.
const CpuFeatures& cpu_features();

}  // namespace support
