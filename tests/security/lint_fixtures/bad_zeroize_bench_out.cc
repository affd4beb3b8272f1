// Lint fixture: the bench-harness shape the widened scan roots caught
// in bench/ — a derived-digest output buffer that is timed and then
// dropped without a wipe. Must be flagged by the zeroize rule (real
// benchmarks over throwaway randomness suppress it with a justified
// lint:allow, as bench/batched_crypto.cc does).
#include <cstdint>
#include <vector>

#include "crypto/hmac.h"

namespace sies {

double TimeBatchNoWipe(const crypto::PrfKey* prf_keys, size_t pairs,
                       uint64_t epoch) {
  std::vector<uint8_t> out(32 * pairs);
  // BAD: `out` receives key-derived digests and goes out of scope
  // unwiped.
  crypto::EpochPrfSha256Batch(pairs, prf_keys, epoch, out.data());
  return static_cast<double>(out[0]);
}

}  // namespace sies
