#include "crypto/cpu_features.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace sies::crypto {

namespace {

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = (ebx & (1u << 5)) != 0;
    f.sha = (ebx & (1u << 29)) != 0;
  }
  // The SHA-NI bodies also shuffle and blend with SSSE3/SSE4.1 (leaf 1
  // ECX bits 9 and 19); every SHA-NI CPU has both, but check anyway.
  if (f.sha) {
    unsigned a1 = 0, b1 = 0, c1 = 0, d1 = 0;
    f.sha = __get_cpuid(1, &a1, &b1, &c1, &d1) != 0 &&
            (c1 & (1u << 9)) != 0 && (c1 & (1u << 19)) != 0;
  }
  // AVX2 additionally needs OS support for YMM state (XSAVE/OSXSAVE,
  // XCR0 bits 1-2). Leaf 1 ECX bit 27 = OSXSAVE.
  if (f.avx2) {
    unsigned a1 = 0, b1 = 0, c1 = 0, d1 = 0;
    bool osxsave = __get_cpuid(1, &a1, &b1, &c1, &d1) != 0 &&
                   (c1 & (1u << 27)) != 0;
    if (osxsave) {
      uint32_t xcr0_lo = 0, xcr0_hi = 0;
      __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
      if ((xcr0_lo & 0x6u) != 0x6u) f.avx2 = false;
    } else {
      f.avx2 = false;
    }
  }
#endif
  return f;
}

CpuFeatures ApplyOverride(CpuFeatures f) {
  const char* env = std::getenv("SIES_NATIVE");
  if (env != nullptr &&
      (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
       std::strcmp(env, "scalar") == 0)) {
    f = CpuFeatures{};
  }
  return f;
}

}  // namespace

const CpuFeatures& CpuDetected() {
  static const CpuFeatures features = Detect();
  return features;
}

const CpuFeatures& Cpu() {
  static const CpuFeatures features = ApplyOverride(CpuDetected());
  return features;
}

}  // namespace sies::crypto
