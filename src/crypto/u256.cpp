//===- crypto/u256.cpp - 256-bit unsigned integers ------------------------===//

#include "crypto/u256.h"

#include <cassert>
#include <utility>

namespace typecoin {
namespace crypto {

using uint128 = unsigned __int128;

void U256::shl1() {
  for (int I = 3; I > 0; --I)
    Limbs[I] = (Limbs[I] << 1) | (Limbs[I - 1] >> 63);
  Limbs[0] <<= 1;
}

void U256::shr1() {
  for (int I = 0; I < 3; ++I)
    Limbs[I] = (Limbs[I] >> 1) | (Limbs[I + 1] << 63);
  Limbs[3] >>= 1;
}

unsigned U256::bitLength() const {
  for (int I = 3; I >= 0; --I) {
    if (Limbs[I] != 0)
      return 64 * I + (64 - __builtin_clzll(Limbs[I]));
  }
  return 0;
}

U256 U256::fromBytesBE(const std::array<uint8_t, 32> &Bytes) {
  U256 Out;
  for (int I = 0; I < 4; ++I) {
    uint64_t Limb = 0;
    for (int J = 0; J < 8; ++J)
      Limb = (Limb << 8) | Bytes[(3 - I) * 8 + J];
    Out.Limbs[I] = Limb;
  }
  return Out;
}

std::array<uint8_t, 32> U256::toBytesBE() const {
  std::array<uint8_t, 32> Out;
  for (int I = 0; I < 4; ++I)
    for (int J = 0; J < 8; ++J)
      Out[(3 - I) * 8 + J] = static_cast<uint8_t>(Limbs[I] >> (56 - 8 * J));
  return Out;
}

Result<U256> U256::fromHex(const std::string &Hex) {
  if (Hex.size() != 64)
    return makeError("U256 hex must be 64 digits, got " +
                     std::to_string(Hex.size()));
  auto Raw = fromHexFixed<32>(Hex);
  if (!Raw)
    return Raw.takeError();
  return fromBytesBE(*Raw);
}

std::string U256::toHex() const { return typecoin::toHex(toBytesBE()); }

/// -M^{-1} mod 2^64 via Newton iteration (valid for odd M).
static uint64_t negInverse64(uint64_t M) {
  uint64_t Inv = 1;
  for (int I = 0; I < 6; ++I)
    Inv *= 2 - M * Inv; // Doubles the number of correct low bits.
  return ~Inv + 1; // -Inv mod 2^64.
}

ModArith::ModArith(const U256 &Modulus) : M(Modulus) {
  assert((M.Limbs[0] & 1) != 0 && "Montgomery modulus must be odd");
  assert(M.bitLength() == 256 && "modulus must have its top bit set");
  Inv = negInverse64(M.Limbs[0]);

  // R mod M = 2^256 - M (valid because 2^255 <= M < 2^256).
  MontOneV = U256::zero();
  MontOneV.subInPlace(M); // Wraps: 2^256 - M.

  // RR = R * 2^256 mod M by doubling R mod M 256 times.
  RR = MontOneV;
  for (int I = 0; I < 256; ++I) {
    uint64_t Carry = RR.addInPlace(RR);
    if (Carry || RR >= M)
      RR.subInPlace(M);
  }
}

U256 ModArith::montReduce512(U512 T) const {
  // SOS Montgomery reduction of the full 512-bit product.
  uint64_t Extra = 0; // Carry beyond limb 7.
  for (int I = 0; I < 4; ++I) {
    uint64_t Mu = T.Limbs[I] * Inv;
    uint128 Carry = 0;
    for (int J = 0; J < 4; ++J) {
      uint128 Cur =
          static_cast<uint128>(Mu) * M.Limbs[J] + T.Limbs[I + J] + Carry;
      T.Limbs[I + J] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
    }
    // Propagate the carry through the remaining limbs.
    for (int J = I + 4; J < 8 && Carry; ++J) {
      uint128 Cur = static_cast<uint128>(T.Limbs[J]) + Carry;
      T.Limbs[J] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
    }
    Extra += static_cast<uint64_t>(Carry);
  }
  U256 Out;
  for (int I = 0; I < 4; ++I)
    Out.Limbs[I] = T.Limbs[I + 4];
  if (Extra || Out >= M)
    Out.subInPlace(M);
  return Out;
}

U256 ModArith::mul(const U256 &A, const U256 &B) const {
  // (A*R) * (B*R) * R^-1 = A*B*R; then strip the R.
  U256 Am = toMont(A);
  U256 Bm = toMont(B);
  return fromMont(montMul(Am, Bm));
}

U256 ModArith::pow(const U256 &Base, const U256 &Exp) const {
  U256 Acc = montOne();
  U256 B = toMont(Base);
  unsigned Bits = Exp.bitLength();
  for (int I = static_cast<int>(Bits) - 1; I >= 0; --I) {
    Acc = montSqr(Acc);
    if (Exp.bit(static_cast<unsigned>(I)))
      Acc = montMul(Acc, B);
  }
  return fromMont(Acc);
}

U256 ModArith::inverse(const U256 &A) const {
  // Binary extended GCD (HAC 14.61): shift/add only, roughly 5x faster
  // than a Fermat exponentiation. It sits under every toAffine and
  // table normalization mod p, and under the s^-1 of each ECDSA
  // operation mod n.
  assert(!A.isZero() && "inverse of zero");
  U256 U = reduce(A), V = M;
  U256 X1 = U256::one(), X2 = U256::zero();
  const U256 One = U256::one();
  auto HalveMod = [this](U256 &X) {
    // X <- X/2 mod M: add M first if X is odd (the sum may carry into
    // bit 256; fold it back in after the shift).
    uint64_t Carry = 0;
    if (X.bit(0))
      Carry = X.addInPlace(M);
    X.shr1();
    if (Carry)
      X.Limbs[3] |= 1ull << 63;
  };
  while (U != One && V != One) {
    while (!U.bit(0)) {
      U.shr1();
      HalveMod(X1);
    }
    while (!V.bit(0)) {
      V.shr1();
      HalveMod(X2);
    }
    // Both odd now; subtract the smaller to keep everything positive.
    if (U >= V) {
      U.subInPlace(V);
      X1 = sub(X1, X2);
    } else {
      V.subInPlace(U);
      X2 = sub(X2, X1);
    }
  }
  return U == One ? X1 : X2;
}

int ModArith::jacobi(const U256 &A) const {
  // Keeps (A / M) = Sign * (X / N) with N odd while (X, N) falls to
  // (0, gcd(A, M)), where (0 / N) is 1 for N = 1 and 0 otherwise:
  //  * (2 / N) = -1 exactly when N = 3 or 5 mod 8, so an odd number of
  //    twos stripped from X flips Sign for such N;
  //  * for odd X < N, reciprocity swaps the two, flipping Sign when
  //    both are 3 mod 4;
  //  * (X / N) = ((X - N) / N), which leaves X even again.
  U256 X = A, N = M;
  int Sign = 1;
  while (!X.isZero()) {
    unsigned Twos = 0;
    while (!X.bit(0)) {
      X.shr1();
      ++Twos;
    }
    uint64_t NMod8 = N.Limbs[0] & 7;
    if ((Twos & 1) && (NMod8 == 3 || NMod8 == 5))
      Sign = -Sign;
    if (X < N) {
      std::swap(X, N);
      if ((X.Limbs[0] & 3) == 3 && (N.Limbs[0] & 3) == 3)
        Sign = -Sign;
    }
    X.subInPlace(N);
  }
  return N == U256::one() ? Sign : 0;
}

U256 ModArith::reduce(const U256 &A) const {
  U256 Out = A;
  while (Out >= M)
    Out.subInPlace(M);
  return Out;
}

} // namespace crypto
} // namespace typecoin
