// CMT (Castelluccia, Mykletun, Tsudik — MobiQuitous 2005): additively
// homomorphic encryption of sensor readings, the paper's
// confidentiality-only benchmark (Section II-D).
//
//   c_i = v_i + k_{i,t} mod n,     n a public 20-byte modulus
//
// Aggregation adds ciphertexts mod n; the querier subtracts Σ k_{i,t}.
// Freshness is obtained (as in the paper's cost model, Eq. 1) by deriving
// k_{i,t} = HM1(k_i, t) per epoch. CMT has NO integrity: any party can add
// an arbitrary v' to a ciphertext undetected — our attack tests
// demonstrate exactly that.
#ifndef SIES_CMT_CMT_H_
#define SIES_CMT_CMT_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/biguint.h"
#include "crypto/hmac.h"

namespace sies::cmt {

/// Public parameters: the modulus n (20 bytes in the paper's accounting).
struct Params {
  uint32_t num_sources = 0;
  crypto::BigUint modulus;  ///< n > any v_i + k_i

  /// Ciphertext width in bytes.
  size_t CiphertextBytes() const { return (modulus.BitLength() + 7) / 8; }
};

/// Creates CMT parameters with a modulus of `modulus_bits` bits
/// (default 160 = 20 bytes). The modulus need not be prime.
StatusOr<Params> MakeParams(uint32_t num_sources, uint64_t seed,
                            size_t modulus_bits = 160);

/// Key material at the querier: one k_i per source.
struct QuerierKeys {
  std::vector<Bytes> source_keys;
};

/// Derives all long-term 20-byte keys from a master seed.
QuerierKeys GenerateKeys(const Params& params, const Bytes& master_seed);

/// k_{i,t} = HM1(k_i, t) reduced mod n, from the schedule of k_i (the
/// same two-compression PRF the SIES parties run, so the Fig. 4-6
/// comparison stays like for like).
crypto::BigUint DeriveEpochKey(const Params& params,
                               const crypto::PrfKey& source_key,
                               uint64_t epoch);

/// A CMT source: encrypts v as v + k_{i,t} mod n. Holds k_i only as its
/// schedule.
class Source {
 public:
  /// Schedules `source_key` and wipes the raw bytes.
  Source(Params params, Bytes source_key);

  /// Produces the epoch-`epoch` ciphertext for `value`.
  StatusOr<Bytes> CreateCiphertext(uint64_t value, uint64_t epoch) const;

 private:
  Params params_;
  crypto::PrfKey key_;
};

/// A CMT aggregator: modular addition of children ciphertexts.
class Aggregator {
 public:
  explicit Aggregator(Params params) : params_(std::move(params)) {}

  /// Merges ciphertexts: Σ c_i mod n.
  StatusOr<Bytes> Merge(const std::vector<Bytes>& children) const;

 private:
  Params params_;
};

/// The CMT querier: decrypts the aggregate by subtracting all epoch keys.
/// Holds every k_i only as its schedule.
class Querier {
 public:
  /// Schedules every key and wipes the raw bytes in `keys`.
  Querier(Params params, QuerierKeys keys);

  /// Recovers Σ v_i from the final ciphertext. There is no verification:
  /// whatever decrypts is accepted (the scheme's documented weakness).
  StatusOr<uint64_t> Decrypt(const Bytes& final_ciphertext, uint64_t epoch,
                             const std::vector<uint32_t>& participating)
      const;

 private:
  Params params_;
  std::vector<crypto::PrfKey> source_keys_;
};

}  // namespace sies::cmt

#endif  // SIES_CMT_CMT_H_
