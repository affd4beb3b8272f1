#include "crypto/fp256.h"

#include <cassert>
#include <cstring>

namespace sies::crypto {

// ---------------------------------------------------------------------------
// U256
// ---------------------------------------------------------------------------

U256 U256::FromUint64(uint64_t x) {
  U256 r;
  r.v[0] = x;
  return r;
}

StatusOr<U256> U256::FromBigUint(const BigUint& x) {
  const std::vector<uint64_t>& limbs = x.limbs();
  if (limbs.size() > 4) {
    return Status::OutOfRange("value does not fit in 256 bits");
  }
  U256 r;
  for (size_t i = 0; i < limbs.size(); ++i) r.v[i] = limbs[i];
  return r;
}

U256 U256::FromBytesBE(const uint8_t* data, size_t len) {
  assert(len <= 32 && "U256::FromBytesBE input wider than 32 bytes");
  U256 r;
  for (size_t i = 0; i < len; ++i) {
    size_t byte_from_right = len - 1 - i;
    r.v[byte_from_right / 8] |= static_cast<uint64_t>(data[i])
                                << (8 * (byte_from_right % 8));
  }
  return r;
}

BigUint U256::ToBigUint() const {
  uint8_t be[32];
  ToBytesBE(be);
  return BigUint::FromBytes(be, 32);
}

void U256::ToBytesBE(uint8_t out[32]) const {
  for (size_t i = 0; i < 4; ++i) {
    uint64_t limb = v[3 - i];
    for (size_t b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<uint8_t>(limb >> (8 * (7 - b)));
    }
  }
}

Bytes U256::ToBytes32() const {
  Bytes out(32);
  ToBytesBE(out.data());
  return out;
}

size_t U256::BitLength() const {
  for (size_t i = 4; i-- > 0;) {
    if (v[i] == 0) continue;
    size_t bits = i * 64;
    uint64_t top = v[i];
    while (top) {
      ++bits;
      top >>= 1;
    }
    return bits;
  }
  return 0;
}

U256 U256::Shl(size_t bits) const {
  U256 r;
  if (bits >= 256) return r;
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  for (size_t i = 4; i-- > limb_shift;) {
    uint64_t lo = v[i - limb_shift] << bit_shift;
    uint64_t hi = (bit_shift && i - limb_shift > 0)
                      ? v[i - limb_shift - 1] >> (64 - bit_shift)
                      : 0;
    r.v[i] = lo | hi;
  }
  return r;
}

U256 U256::Shr(size_t bits) const {
  U256 r;
  if (bits >= 256) return r;
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  for (size_t i = 0; i + limb_shift < 4; ++i) {
    uint64_t lo = v[i + limb_shift] >> bit_shift;
    uint64_t hi = (bit_shift && i + limb_shift + 1 < 4)
                      ? v[i + limb_shift + 1] << (64 - bit_shift)
                      : 0;
    r.v[i] = lo | hi;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Fp256
// ---------------------------------------------------------------------------

StatusOr<Fp256> Fp256::Create(const BigUint& prime) {
  if (prime.BitLength() != 256) {
    return Status::InvalidArgument("Fp256 requires a 256-bit modulus");
  }
  Fp256 fp;
  fp.prime_big_ = prime;
  fp.p_ = U256::FromBigUint(prime).value();
  // mu = floor(2^512 / p); since 2^255 <= p < 2^256, mu has 257 bits.
  BigUint mu = BigUint::DivMod(BigUint::Shl(BigUint(1), 512), prime)
                   .value()
                   .quotient;
  const std::vector<uint64_t>& limbs = mu.limbs();
  assert(limbs.size() <= 5);
  for (size_t i = 0; i < limbs.size(); ++i) fp.mu_[i] = limbs[i];
  return fp;
}

StatusOr<U256> Fp256::Inverse(const U256& a) const {
  // The operand and the inverse are secrets (K_t, K_t^{-1}): wipe the
  // BigUint copies before their limbs are freed.
  BigUint big = a.ToBigUint();
  auto inv = BigUint::ModInverse(big, prime_big_);
  big.Wipe();
  if (!inv.ok()) return inv.status();
  StatusOr<U256> out = U256::FromBigUint(inv.value());
  inv.value().Wipe();
  return out;
}

}  // namespace sies::crypto
