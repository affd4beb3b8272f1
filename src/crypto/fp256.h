// Fixed-width 256-bit modular arithmetic: the SIES fast path.
//
// The SIES homomorphic scheme works modulo a fixed 32-byte prime, yet the
// general BigUint routes every Add/Mul/Mod through heap-allocated limb
// vectors and a per-decrypt extended-Euclid inverse. U256 is a plain value
// type (4 x 64-bit limbs, no heap) and Fp256 a reduction context holding
// the precomputed Barrett constant mu = floor(2^512 / p), so the per-epoch
// hot path (source encryption, aggregator merge, querier decrypt/verify)
// runs allocation-free. Conversions to/from BigUint and big-endian bytes
// keep the wire format bit-identical to the generic path.
//
// Scope: Fp256 covers primes of exactly 256 bits — the paper's reference
// configuration, SIES's FixedField (sies/field.h). Wider or narrower
// moduli (RSA, Paillier, SECOA SEALs, the hardened HM256 share profile)
// stay on BigUint; see DESIGN.md §7.
#ifndef SIES_CRYPTO_FP256_H_
#define SIES_CRYPTO_FP256_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/biguint.h"

namespace sies::crypto {

/// 256-bit unsigned integer; little-endian 64-bit limbs, value semantics,
/// no heap. Arithmetic helpers are static and expose carries/borrows so
/// callers control the (rare) overflow cases explicitly.
struct U256 {
  uint64_t v[4] = {0, 0, 0, 0};

  /// Zero-extended machine word.
  static U256 FromUint64(uint64_t x);
  /// From BigUint; fails if the value needs more than 256 bits.
  static StatusOr<U256> FromBigUint(const BigUint& x);
  /// Parses up to 32 big-endian bytes (leading zeros allowed).
  static U256 FromBytesBE(const uint8_t* data, size_t len);

  BigUint ToBigUint() const;
  /// Writes exactly 32 big-endian bytes.
  void ToBytesBE(uint8_t out[32]) const;
  /// 32-byte big-endian encoding.
  Bytes ToBytes32() const;

  bool IsZero() const { return (v[0] | v[1] | v[2] | v[3]) == 0; }
  uint64_t Low64() const { return v[0]; }
  /// Number of significant bits (0 for zero).
  size_t BitLength() const;

  /// Three-way compare: -1, 0, or +1.
  int Compare(const U256& o) const;
  bool operator==(const U256& o) const { return Compare(o) == 0; }
  bool operator!=(const U256& o) const { return Compare(o) != 0; }

  /// Constant-time equality: always touches all four limbs of both
  /// values. Use for secret material (share sums, epoch keys) where
  /// the early-exit Compare() would leak the first differing limb.
  static bool ConstantTimeEqual(const U256& a, const U256& b) {
    uint64_t diff = (a.v[0] ^ b.v[0]) | (a.v[1] ^ b.v[1]) |
                    (a.v[2] ^ b.v[2]) | (a.v[3] ^ b.v[3]);
    return diff == 0;
  }

  /// out = a + b (mod 2^256); returns the carry-out bit.
  static uint64_t Add(const U256& a, const U256& b, U256* out);
  /// out = a - b (mod 2^256); returns the borrow-out bit.
  static uint64_t Sub(const U256& a, const U256& b, U256* out);
  /// Full 256x256 -> 512-bit product, little-endian limbs.
  static void Mul(const U256& a, const U256& b, uint64_t out[8]);

  /// Left shift by `bits` (truncating at 2^256). bits may be >= 256.
  U256 Shl(size_t bits) const;
  /// Logical right shift by `bits`. bits may be >= 256.
  U256 Shr(size_t bits) const;
};

/// Reduction context for a fixed 256-bit prime p: precomputed Barrett
/// constant, so Mul costs one 4x4 schoolbook product plus two truncated
/// 5-limb products — no division, no allocation. All value parameters of
/// Add/Sub/Mul must already be reduced (< p); Reduce handles arbitrary
/// 256-bit inputs and ReduceWide full 512-bit products.
class Fp256 {
 public:
  /// Creates a context; fails unless `prime` has exactly 256 bits.
  /// (Primality itself is the caller's concern; only Inverse needs it.)
  static StatusOr<Fp256> Create(const BigUint& prime);

  const BigUint& prime() const { return prime_big_; }
  const U256& prime_u256() const { return p_; }

  /// (a + b) mod p for reduced a, b.
  U256 Add(const U256& a, const U256& b) const;
  /// (a - b) mod p for reduced a, b.
  U256 Sub(const U256& a, const U256& b) const;
  /// (a * b) mod p for reduced a, b (Barrett).
  U256 Mul(const U256& a, const U256& b) const;
  /// x mod p for any x < 2^256. Since p >= 2^255 this is a single
  /// conditional subtract — the cost of reducing a PRF output into [0, p).
  U256 Reduce(const U256& x) const;
  /// x mod p for a full 512-bit value (e.g. a 256x256 product).
  U256 ReduceWide(const uint64_t x[8]) const;
  /// a^{-1} mod p via extended Euclid (BigUint; cold path — callers cache
  /// the result per epoch). Fails if gcd(a, p) != 1.
  StatusOr<U256> Inverse(const U256& a) const;

 private:
  Fp256() = default;

  U256 p_;
  uint64_t mu_[5] = {0, 0, 0, 0, 0};  // floor(2^512 / p), <= 257 bits
  BigUint prime_big_;
};

// --- inline hot path -------------------------------------------------------
//
// The arithmetic below runs once or more per PSR on every party, so the
// definitions live in the header where they inline into callers; the cold
// conversions, shifts, and Create/Inverse stay in fp256.cc.

namespace fp256_internal {

using u128 = unsigned __int128;

/// a -= b over `n` limbs; returns the borrow-out bit.
inline uint64_t SubLimbs(uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  return borrow;
}

}  // namespace fp256_internal

inline int U256::Compare(const U256& o) const {
  for (size_t i = 4; i-- > 0;) {
    if (v[i] != o.v[i]) return v[i] < o.v[i] ? -1 : 1;
  }
  return 0;
}

inline uint64_t U256::Add(const U256& a, const U256& b, U256* out) {
  using fp256_internal::u128;
  uint64_t carry = 0;
  for (size_t i = 0; i < 4; ++i) {
    u128 s = static_cast<u128>(a.v[i]) + b.v[i] + carry;
    out->v[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  return carry;
}

inline uint64_t U256::Sub(const U256& a, const U256& b, U256* out) {
  using fp256_internal::u128;
  uint64_t borrow = 0;
  for (size_t i = 0; i < 4; ++i) {
    u128 d = static_cast<u128>(a.v[i]) - b.v[i] - borrow;
    out->v[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  return borrow;
}

inline void U256::Mul(const U256& a, const U256& b, uint64_t out[8]) {
  using fp256_internal::u128;
  for (size_t i = 0; i < 8; ++i) out[i] = 0;
  for (size_t i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < 4; ++j) {
      u128 cur = static_cast<u128>(a.v[i]) * b.v[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + 4] = carry;  // untouched by previous outer iterations
  }
}

inline U256 Fp256::Add(const U256& a, const U256& b) const {
  U256 s;
  uint64_t carry = U256::Add(a, b, &s);
  // a + b < 2p < 2^257: on carry the true sum is 2^256 + s, and the
  // wrapping subtract below yields exactly (a + b) - p.
  if (carry || s.Compare(p_) >= 0) U256::Sub(s, p_, &s);
  return s;
}

inline U256 Fp256::Sub(const U256& a, const U256& b) const {
  U256 r;
  if (a.Compare(b) >= 0) {
    U256::Sub(a, b, &r);
  } else {
    U256 t;
    U256::Sub(b, a, &t);  // p - (b - a)
    U256::Sub(p_, t, &r);
  }
  return r;
}

inline U256 Fp256::Reduce(const U256& x) const {
  // x < 2^256 <= 2p, so one conditional subtract suffices — and matches
  // BigUint::Mod bit-for-bit.
  U256 r = x;
  if (r.Compare(p_) >= 0) U256::Sub(r, p_, &r);
  return r;
}

inline U256 Fp256::ReduceWide(const uint64_t x[8]) const {
  using fp256_internal::u128;
  // Barrett reduction (HAC Algorithm 14.42 with b = 2^64, k = 4):
  //   q3 = floor(floor(x / b^3) * mu / b^5) underestimates floor(x / p)
  //   by at most 2.  Both products are truncated: q1 * mu drops the
  //   diagonals that only feed limbs 0..2 (costing at most one more unit
  //   of underestimate, see below), and q3 * p is computed mod b^5 only.
  //   Hence r = x - q3 * p < 4p and the final loop subtracts p at most
  //   three times.
  uint64_t q1[5];
  for (size_t i = 0; i < 5; ++i) q1[i] = x[3 + i];

  // q2h[d] = limb (d + 3) of q1 * mu, summing only products with
  // i + j >= 3.  The dropped products total < 6 * b^2 << b^5, so the
  // partial sum's limbs 5..9 floor-divide to at most one less than the
  // true q3 — absorbed by the subtraction loop.  Row i's carry lands at
  // position i + 5 (index i + 2), untouched by earlier rows.
  uint64_t q2h[7] = {0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < 5; ++i) {
    uint64_t carry = 0;
    for (size_t j = i >= 3 ? 0 : 3 - i; j < 5; ++j) {
      u128 cur = static_cast<u128>(q1[i]) * mu_[j] + q2h[i + j - 3] + carry;
      q2h[i + j - 3] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    q2h[i + 2] = carry;
  }
  const uint64_t* q3 = &q2h[2];  // limbs 5..9 of q1 * mu

  // r2 = (q3 * p) mod b^5: truncated 5x4 product, dropping every carry
  // that would land at position >= 5 (exact mod b^5).
  uint64_t r2[5] = {0, 0, 0, 0, 0};
  for (size_t i = 0; i < 5; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < 4 && i + j < 5; ++j) {
      u128 cur = static_cast<u128>(q3[i]) * p_.v[j] + r2[i + j] + carry;
      r2[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    if (i + 4 < 5) r2[i + 4] = carry;
  }

  // r = (x mod b^5) - r2, wrapping mod b^5 (the true difference is >= 0
  // and < b^5, so the wrap is exact).
  uint64_t r[5];
  for (size_t i = 0; i < 5; ++i) r[i] = x[i];
  fp256_internal::SubLimbs(r, r2, 5);

  // At most three final subtractions of p.
  uint64_t p5[5] = {p_.v[0], p_.v[1], p_.v[2], p_.v[3], 0};
  auto geq_p = [&]() {
    if (r[4] != 0) return true;
    for (size_t i = 4; i-- > 0;) {
      if (r[i] != p5[i]) return r[i] > p5[i];
    }
    return true;  // equal
  };
  while (geq_p()) fp256_internal::SubLimbs(r, p5, 5);

  U256 out;
  for (size_t i = 0; i < 4; ++i) out.v[i] = r[i];
  return out;
}

inline U256 Fp256::Mul(const U256& a, const U256& b) const {
  uint64_t prod[8];
  U256::Mul(a, b, prod);
  return ReduceWide(prod);
}

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_FP256_H_
