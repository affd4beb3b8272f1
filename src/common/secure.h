// Zeroization primitive for secret-bearing memory.
//
// Every buffer that ever held key material (long-term keys, epoch keys
// K_t / k_{i,t}, secret shares ss_{i,t}, DRBG state, MAC keys) must be
// zeroized before its storage is released — a plain assignment or
// destructor leaves the secret readable in freed heap pages. A normal
// `memset` before free is dead-store-eliminated by every optimizing
// compiler; SecureZero is the variant the optimizer cannot elide.
//
// scripts/lint_secrets.py enforces adoption: key-derivation results
// bound to named buffers must be wiped (SecureWipe / SecureZero) or
// owned by crypto::SecureBytes (see docs/SECURITY.md, "Secret hygiene
// & side channels").
#ifndef SIES_COMMON_SECURE_H_
#define SIES_COMMON_SECURE_H_

#include <cstddef>
#include <cstring>

namespace sies::common {

/// Overwrites `len` bytes at `data` with zeros at memset speed. A
/// compiler barrier after the memset (the OPENSSL_cleanse pattern) makes
/// the store observable, so it survives even when the buffer is freed
/// or goes out of scope immediately afterwards: the asm claims to read
/// the buffer through `data`. Inline, so a fixed-size wipe of a stack
/// block compiles to a few stores.
inline void SecureZero(void* data, size_t len) {
  if (len == 0) return;
  std::memset(data, 0, len);
  __asm__ __volatile__("" : : "r"(data) : "memory");
}

}  // namespace sies::common

#endif  // SIES_COMMON_SECURE_H_
