// Runtime CPU feature detection for the accelerated crypto kernels.
//
// One kernel family dispatches on this module: the SHA-NI compression
// bodies of SHA-1 and SHA-256 and their HMAC lane kernels
// (crypto/sha1.*, crypto/sha256.*), which every HMAC, one-shot or
// batched, runs on where the CPU has them. They are bit-identical to
// their portable fallbacks — dispatch only ever changes speed, never
// output — so the choice is made once per process from CPUID and the
// SIES_NATIVE environment override (policy: docs/PERFORMANCE.md).
//
//   SIES_NATIVE unset / "auto" / "1"   use every feature CPUID reports
//   SIES_NATIVE "0" / "off" / "scalar" force the portable fallbacks
//
// The override exists so the portable fallback can be exercised on
// SHA-NI hardware (differential tests, debugging) and so a deployment
// can pin the portable path without rebuilding.
#ifndef SIES_CRYPTO_CPU_FEATURES_H_
#define SIES_CRYPTO_CPU_FEATURES_H_

namespace sies::crypto {

/// Features the accelerated kernels care about, post-override: a field
/// is true only when the CPU supports it AND SIES_NATIVE allows it.
struct CpuFeatures {
  bool avx2 = false;  ///< reported only: no kernel reads it
  bool sha = false;   ///< SHA-NI (with the SSSE3/SSE4.1 its bodies use)
};

/// Detected once on first call (thread-safe); identical for the whole
/// process lifetime. Reads the SIES_NATIVE environment variable at that
/// first call only.
const CpuFeatures& Cpu();

/// Raw CPUID detection, ignoring SIES_NATIVE. Only for test hooks that
/// force a specific body (differential tests run portable vs SHA-NI side
/// by side even when the override pins production dispatch to the
/// portable bodies).
const CpuFeatures& CpuDetected();

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_CPU_FEATURES_H_
