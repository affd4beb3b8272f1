#include "common/secure.h"

#include <cstring>

namespace sies::common {

void SecureZero(void* data, size_t len) {
  if (len == 0) return;
  std::memset(data, 0, len);
  // Compiler barrier: the asm claims to read the buffer through `data`,
  // so the memset above is an observable store the optimizer must keep
  // even when the buffer is dead (freed or out of scope) right after.
  __asm__ __volatile__("" : : "r"(data) : "memory");
}

}  // namespace sies::common
