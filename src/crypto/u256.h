//===- crypto/u256.h - 256-bit unsigned integers ----------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width 256-bit unsigned arithmetic: the base layer for the
/// secp256k1 field/scalar arithmetic and for proof-of-work targets
/// (block hashes compared as integers; paper Section 2, footnote 3).
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_CRYPTO_U256_H
#define TYPECOIN_CRYPTO_U256_H

#include "support/bytes.h"
#include "support/result.h"

#include <array>
#include <cstdint>
#include <string>

namespace typecoin {
namespace crypto {

/// 256-bit unsigned integer, little-endian 64-bit limbs.
struct U256 {
  uint64_t Limbs[4] = {0, 0, 0, 0};

  U256() = default;
  explicit U256(uint64_t Low) { Limbs[0] = Low; }

  static U256 zero() { return U256(); }
  static U256 one() { return U256(1); }

  bool isZero() const {
    return Limbs[0] == 0 && Limbs[1] == 0 && Limbs[2] == 0 && Limbs[3] == 0;
  }

  /// Three-way comparison: -1, 0, or 1. Inline (with the other
  /// single-digit helpers below) so the EC hot loops in secp256k1.cpp
  /// can fold it into the surrounding arithmetic.
  int cmp(const U256 &Other) const {
    for (int I = 3; I >= 0; --I) {
      if (Limbs[I] < Other.Limbs[I])
        return -1;
      if (Limbs[I] > Other.Limbs[I])
        return 1;
    }
    return 0;
  }

  bool operator==(const U256 &O) const { return cmp(O) == 0; }
  bool operator!=(const U256 &O) const { return cmp(O) != 0; }
  bool operator<(const U256 &O) const { return cmp(O) < 0; }
  bool operator<=(const U256 &O) const { return cmp(O) <= 0; }
  bool operator>(const U256 &O) const { return cmp(O) > 0; }
  bool operator>=(const U256 &O) const { return cmp(O) >= 0; }

  /// `*this += Other`; returns the carry out.
  uint64_t addInPlace(const U256 &Other) {
    unsigned __int128 Carry = 0;
    for (int I = 0; I < 4; ++I) {
      unsigned __int128 Sum =
          static_cast<unsigned __int128>(Limbs[I]) + Other.Limbs[I] + Carry;
      Limbs[I] = static_cast<uint64_t>(Sum);
      Carry = Sum >> 64;
    }
    return static_cast<uint64_t>(Carry);
  }
  /// `*this -= Other`; returns the borrow out.
  uint64_t subInPlace(const U256 &Other) {
    uint64_t Borrow = 0;
    for (int I = 0; I < 4; ++I) {
      unsigned __int128 Diff =
          static_cast<unsigned __int128>(Limbs[I]) - Other.Limbs[I] - Borrow;
      Limbs[I] = static_cast<uint64_t>(Diff);
      Borrow = (Diff >> 64) ? 1 : 0;
    }
    return Borrow;
  }

  /// Logical shifts by one bit.
  void shl1();
  void shr1();

  /// Value of bit \p I (0 = least significant).
  bool bit(unsigned I) const {
    return (Limbs[I / 64] >> (I % 64)) & 1;
  }

  /// Index of the highest set bit plus one (0 for zero).
  unsigned bitLength() const;

  /// Big-endian 32-byte conversions (the Bitcoin/SEC1 convention).
  static U256 fromBytesBE(const std::array<uint8_t, 32> &Bytes);
  std::array<uint8_t, 32> toBytesBE() const;

  /// 64-hex-digit conversions (big-endian).
  static Result<U256> fromHex(const std::string &Hex);
  std::string toHex() const;
};

/// 512-bit product of two U256 values, little-endian limbs.
struct U512 {
  uint64_t Limbs[8] = {0, 0, 0, 0, 0, 0, 0, 0};
};

/// Schoolbook 256x256 -> 512 multiplication.
inline U512 mulWide(const U256 &A, const U256 &B) {
  U512 Out;
  for (int I = 0; I < 4; ++I) {
    unsigned __int128 Carry = 0;
    for (int J = 0; J < 4; ++J) {
      unsigned __int128 Cur =
          static_cast<unsigned __int128>(A.Limbs[I]) * B.Limbs[J] +
          Out.Limbs[I + J] + Carry;
      Out.Limbs[I + J] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
    }
    Out.Limbs[I + 4] = static_cast<uint64_t>(Carry);
  }
  return Out;
}

/// 512-bit square of a U256 in product-scanning (column) form: limb K of
/// the result sums every a_i * a_j with i + j = K, so each off-diagonal
/// product is formed once and added twice into a three-limb column
/// accumulator. That is 10 of the 16 schoolbook multiplies and no
/// separate doubling pass over the result.
inline U512 sqrWide(const U256 &A) {
  const uint64_t *L = A.Limbs;
  // Column accumulator C2:C1:C0. A column holds at most four products
  // below 2^128 plus the previous column's carry, so 192 bits suffice.
  uint64_t C0 = 0, C1 = 0, C2 = 0;
  auto Add = [&](unsigned __int128 P) {
    unsigned __int128 Lo = static_cast<unsigned __int128>(C0) +
                           static_cast<uint64_t>(P);
    C0 = static_cast<uint64_t>(Lo);
    unsigned __int128 Hi = static_cast<unsigned __int128>(C1) +
                           static_cast<uint64_t>(P >> 64) +
                           static_cast<uint64_t>(Lo >> 64);
    C1 = static_cast<uint64_t>(Hi);
    C2 += static_cast<uint64_t>(Hi >> 64);
  };
  auto Square = [&](int I) {
    Add(static_cast<unsigned __int128>(L[I]) * L[I]);
  };
  auto Cross = [&](int I, int J) {
    unsigned __int128 P = static_cast<unsigned __int128>(L[I]) * L[J];
    Add(P);
    Add(P);
  };
  U512 Out;
  auto Emit = [&](int K) {
    Out.Limbs[K] = C0;
    C0 = C1;
    C1 = C2;
    C2 = 0;
  };
  Square(0);
  Emit(0);
  Cross(0, 1);
  Emit(1);
  Cross(0, 2);
  Square(1);
  Emit(2);
  Cross(0, 3);
  Cross(1, 2);
  Emit(3);
  Cross(1, 3);
  Square(2);
  Emit(4);
  Cross(2, 3);
  Emit(5);
  Square(3);
  Emit(6);
  Out.Limbs[7] = C0;
  return Out;
}

/// Montgomery arithmetic for a fixed odd modulus. Values passed in and
/// out are ordinary residues in [0, M). It serves the secp256k1 group
/// order n (signing, the s^-1 of verification, the GLV split), the
/// binary-xGCD inverse and the Jacobi symbol for both moduli, and the
/// tests' reference arithmetic mod p. The field itself runs on
/// crypto/field.h.
class ModArith {
public:
  /// \p Modulus must be odd with its top bit set (true for both the
  /// secp256k1 field prime p and group order n).
  explicit ModArith(const U256 &Modulus);

  const U256 &modulus() const { return M; }

  U256 add(const U256 &A, const U256 &B) const {
    U256 Out = A;
    uint64_t Carry = Out.addInPlace(B);
    if (Carry || Out >= M)
      Out.subInPlace(M);
    return Out;
  }
  U256 sub(const U256 &A, const U256 &B) const {
    U256 Out = A;
    if (Out.subInPlace(B))
      Out.addInPlace(M);
    return Out;
  }
  U256 neg(const U256 &A) const {
    if (A.isZero())
      return A;
    U256 Out = M;
    Out.subInPlace(A);
    return Out;
  }
  U256 mul(const U256 &A, const U256 &B) const;
  U256 pow(const U256 &Base, const U256 &Exp) const;
  /// Inverse via binary extended GCD (HAC 14.61); requires a prime
  /// modulus and nonzero \p A.
  U256 inverse(const U256 &A) const;
  /// The Jacobi symbol (A / M) by the binary algorithm (shifts and
  /// subtractions, no multiply). For the prime moduli used here it is
  /// the Legendre symbol: 1 when \p A is a nonzero square mod M, -1
  /// when it is not a square, 0 when A = 0 mod M.
  int jacobi(const U256 &A) const;
  /// Reduce an arbitrary 256-bit value mod M.
  U256 reduce(const U256 &A) const;

  /// Montgomery-form entry points: A*R mod M with R = 2^256.
  U256 toMont(const U256 &A) const { return montMul(A, RR); }
  U256 fromMont(const U256 &A) const { return montMul(A, U256::one()); }
  U256 montMul(const U256 &A, const U256 &B) const {
    return montReduce512(mulWide(A, B));
  }
  /// Squaring on Montgomery representatives, over the cheaper sqrWide
  /// product.
  U256 montSqr(const U256 &A) const { return montReduce512(sqrWide(A)); }
  const U256 &montOne() const { return MontOneV; }

private:
  /// Montgomery SOS reduction of a 512-bit product.
  U256 montReduce512(U512 T) const;

  U256 M;
  U256 RR;       ///< 2^512 mod M, for conversion into Montgomery form.
  U256 MontOneV; ///< R mod M, the Montgomery form of 1.
  uint64_t Inv;  ///< -M^{-1} mod 2^64.
};

} // namespace crypto
} // namespace typecoin

#endif // TYPECOIN_CRYPTO_U256_H
