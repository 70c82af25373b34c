#include "support/cpu.hpp"

#include <cstdlib>
#include <cstring>

namespace support {

CpuFeatures probe_cpu_features() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#elif defined(__aarch64__)
  f.neon = true;  // architectural baseline on AArch64
#elif defined(__ARM_NEON)
  f.neon = true;  // the compiler was told NEON is available
#endif
  return f;
}

bool force_scalar_env() {
  const char* v = std::getenv("HINCH_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = [] {
    CpuFeatures probed = probe_cpu_features();
    if (force_scalar_env()) probed = CpuFeatures{};
    return probed;
  }();
  return f;
}

}  // namespace support
