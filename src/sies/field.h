// The two prime fields SIES computes in, and the one place that picks
// between them.
//
// All of SIES is arithmetic modulo one public prime p (paper Section
// III-D and IV-A): a source encrypts E(m) = K_t · m + k_{i,t} mod p, an
// aggregator adds mod p, the querier decrypts with K_t^{-1}. Each party
// operation (message_format.h, the derivations in params.h, the
// parties, the epoch-key cache) is written once, as a template over a
// field type F, and instantiated for both fields:
//
//   FixedField  crypto::U256 elements over crypto::Fp256: a prime of
//               exactly 256 bits with HM1 shares, the paper's setting.
//               Heap-free.
//   BigField    crypto::BigUint elements: every other prime width and
//               the hardened HM256 share profile.
//
// Both expose the same operations: arithmetic mod p on reduced
// elements, and the plain integer operations the m_{i,t} layout needs.
// WithField is the only function that chooses between them. On the
// same params both fields give the same bytes, results and error
// messages (tests/sies/field_test.cc).
#ifndef SIES_SIES_FIELD_H_
#define SIES_SIES_FIELD_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "common/secure.h"
#include "crypto/biguint.h"
#include "crypto/fp256.h"
#include "sies/params.h"

namespace sies::core {

/// U256 elements modulo a 256-bit prime (Fp256's Barrett context).
class FixedField {
 public:
  using Element = crypto::U256;

  FixedField(const Params& params, const crypto::Fp256& fp)
      : params_(&params), fp_(&fp) {}

  const Params& params() const { return *params_; }
  /// PSR width: p has exactly 256 bits.
  size_t PsrBytes() const { return 32; }

  // Arithmetic mod p; operands must already be reduced.
  Element Add(const Element& a, const Element& b) const {
    return fp_->Add(a, b);
  }
  Element Sub(const Element& a, const Element& b) const {
    return fp_->Sub(a, b);
  }
  Element Mul(const Element& a, const Element& b) const {
    return fp_->Mul(a, b);
  }
  /// a^{-1} mod p; fails unless gcd(a, p) = 1.
  StatusOr<Element> Inverse(const Element& a) const { return fp_->Inverse(a); }
  /// The `len` (<= 32) big-endian bytes at `data`, reduced mod p.
  Element Reduce(const uint8_t* data, size_t len) const {
    return fp_->Reduce(Element::FromBytesBE(data, len));
  }
  bool IsResidue(const Element& x) const {
    return x.Compare(fp_->prime_u256()) < 0;
  }
  /// Writes a residue as PsrBytes() big-endian bytes.
  void Store(const Element& x, uint8_t* out) const { x.ToBytesBE(out); }

  // Plain integer operations. A valid layout fits below p, so no sum
  // here carries out of 256 bits.
  static Element FromUint64(uint64_t v) { return Element::FromUint64(v); }
  static Element FromBytes(const uint8_t* data, size_t len) {
    return Element::FromBytesBE(data, len);
  }
  static Element IntAdd(const Element& a, const Element& b) {
    Element r;
    Element::Add(a, b, &r);
    return r;
  }
  static Element IntSub(const Element& a, const Element& b) {
    Element r;
    Element::Sub(a, b, &r);
    return r;
  }
  static Element Shl(const Element& x, size_t bits) { return x.Shl(bits); }
  static Element Shr(const Element& x, size_t bits) { return x.Shr(bits); }
  static size_t BitLength(const Element& x) { return x.BitLength(); }
  static uint64_t Low64(const Element& x) { return x.Low64(); }
  static bool IsZero(const Element& x) { return x.IsZero(); }
  static bool ConstantTimeEqual(const Element& a, const Element& b) {
    return Element::ConstantTimeEqual(a, b);
  }
  /// Zeroizes secret elements before their storage is released.
  static void Wipe(std::span<Element> xs) {
    common::SecureZero(xs.data(), xs.size_bytes());
  }

 private:
  const Params* params_;
  const crypto::Fp256* fp_;
};

/// BigUint elements modulo any prime.
class BigField {
 public:
  using Element = crypto::BigUint;

  explicit BigField(const Params& params) : params_(&params) {}

  const Params& params() const { return *params_; }
  size_t PsrBytes() const { return params_->PsrBytes(); }

  // Arithmetic mod p. The BigUint operations fail only for p = 0, which
  // no validated Params holds.
  Element Add(const Element& a, const Element& b) const {
    return Element::ModAdd(a, b, prime()).value();
  }
  Element Sub(const Element& a, const Element& b) const {
    return Element::ModSub(a, b, prime()).value();
  }
  Element Mul(const Element& a, const Element& b) const {
    return Element::ModMul(a, b, prime()).value();
  }
  StatusOr<Element> Inverse(const Element& a) const {
    return Element::ModInverse(a, prime());
  }
  Element Reduce(const uint8_t* data, size_t len) const {
    Element raw = Element::FromBytes(data, len);
    Element r = Element::Mod(raw, prime()).value();
    raw.Wipe();
    return r;
  }
  bool IsResidue(const Element& x) const { return x < prime(); }
  void Store(const Element& x, uint8_t* out) const {
    const Bytes be = x.ToBytes(PsrBytes()).value();
    std::memcpy(out, be.data(), be.size());
  }

  static Element FromUint64(uint64_t v) { return Element(v); }
  static Element FromBytes(const uint8_t* data, size_t len) {
    return Element::FromBytes(data, len);
  }
  static Element IntAdd(const Element& a, const Element& b) {
    return Element::Add(a, b);
  }
  static Element IntSub(const Element& a, const Element& b) {
    return Element::Sub(a, b);
  }
  static Element Shl(const Element& x, size_t bits) {
    return Element::Shl(x, bits);
  }
  static Element Shr(const Element& x, size_t bits) {
    return Element::Shr(x, bits);
  }
  static size_t BitLength(const Element& x) { return x.BitLength(); }
  static uint64_t Low64(const Element& x) { return x.Low64(); }
  static bool IsZero(const Element& x) { return x.IsZero(); }
  static bool ConstantTimeEqual(const Element& a, const Element& b) {
    return Element::ConstantTimeEqual(a, b);
  }
  static void Wipe(std::span<Element> xs) {
    for (Element& x : xs) x.Wipe();
  }

 private:
  const crypto::BigUint& prime() const { return params_->prime; }

  const Params* params_;
};

/// The one choice of arithmetic: calls `fn` with the field `params`
/// selects and returns what `fn` returns. FixedField for a prime of
/// exactly 256 bits with HM1 shares; BigField for every other prime and
/// for HM256 shares (which need a prime of at least 328 bits anyway).
template <typename Fn>
decltype(auto) WithField(const Params& params, Fn&& fn) {
  if (params.share_prf == SharePrf::kHmacSha1) {
    if (const crypto::Fp256* fp = params.Fp()) {
      return fn(FixedField(params, *fp));
    }
  }
  return fn(BigField(params));
}

}  // namespace sies::core

#endif  // SIES_SIES_FIELD_H_
