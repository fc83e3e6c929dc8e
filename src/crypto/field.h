//===- crypto/field.h - The secp256k1 field, 5x52 lazy limbs ----*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Elements of the secp256k1 field, p = 2^256 - 0x1000003D1, as five
/// 52-bit limbs with lazy reduction, after libsecp256k1's `field_5x52`.
/// Every curve operation in crypto/secp256k1.cpp runs on this type.
///
/// The value of an element is sum(N[i] * 2^(52*i)). Each 64-bit limb has
/// 12 spare bits, so sums may grow past 52 bits without a carry. An
/// element's *magnitude* m bounds them: N[0..3] <= 2m(2^52 - 1) and
/// N[4] <= 2m(2^48 - 1).
///
///  * Addition, `neg(M)`, `mulInt` and `half` propagate no carries. They
///    only raise (or, for `half`, cut) the magnitude, up to
///    \ref MaxMagnitude.
///  * `*` and `sqr` accept inputs of magnitude <= \ref MaxMulMagnitude.
///    They fold each high limb with 2^256 = 0x1000003D1 (mod p) and
///    return magnitude 1.
///  * An element is normalized (fully reduced to [0, p)) only to be
///    compared, zero-tested, converted to a U256, or tested for parity.
///
/// Callers track magnitudes by hand, as the point formulas' comments
/// do. `TYPECOIN_AUDIT` builds track each element's magnitude and
/// abort on any op whose precondition fails.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_CRYPTO_FIELD_H
#define TYPECOIN_CRYPTO_FIELD_H

#include "crypto/u256.h"

#include <array>
#include <cstdint>
#include <optional>

#ifdef TYPECOIN_AUDIT
#include <cstdio>
#include <cstdlib>
/// Runs its argument only in audit builds: the magnitude bookkeeping.
#define TYPECOIN_FE_AUDIT(...) __VA_ARGS__
#else
#define TYPECOIN_FE_AUDIT(...)
#endif

namespace typecoin {
namespace crypto {

class FieldElement {
public:
  /// The largest magnitude any element may reach.
  static constexpr unsigned MaxMagnitude = 32;
  /// The largest input magnitude `*` and `sqr` accept.
  static constexpr unsigned MaxMulMagnitude = 8;

  /// Zero.
  FieldElement() = default;
  /// A small constant.
  explicit FieldElement(uint32_t Small) { N[0] = Small; }

  /// Any 256-bit value, at magnitude 1 (normalized when below p).
  static FieldElement fromU256(const U256 &A) {
    FieldElement R;
    const uint64_t *L = A.Limbs;
    R.N[0] = L[0] & M52;
    R.N[1] = (L[0] >> 52 | L[1] << 12) & M52;
    R.N[2] = (L[1] >> 40 | L[2] << 24) & M52;
    R.N[3] = (L[2] >> 28 | L[3] << 36) & M52;
    R.N[4] = L[3] >> 16;
    TYPECOIN_FE_AUDIT(R.Norm = A < modulus(); R.verify());
    return R;
  }
  /// Raw limbs declared at \p Magnitude; the tests and the fuzzer build
  /// limb-extreme operands with it. Audit builds check that the limbs
  /// fit the magnitude.
  static FieldElement fromLimbs(const std::array<uint64_t, 5> &Limbs,
                                unsigned Magnitude) {
    FieldElement R;
    for (int I = 0; I < 5; ++I)
      R.N[I] = Limbs[I];
    TYPECOIN_FE_AUDIT(R.Mag = Magnitude; R.Norm = false; R.verify());
    (void)Magnitude;
    return R;
  }
  /// The raw limbs; the tests and the fuzzer check results against the
  /// magnitude bounds with them.
  std::array<uint64_t, 5> limbs() const {
    return {N[0], N[1], N[2], N[3], N[4]};
  }
  /// The value in [0, p).
  U256 toU256() const {
    FieldElement T = *this;
    T.normalize();
    U256 Out;
    Out.Limbs[0] = T.N[0] | T.N[1] << 52;
    Out.Limbs[1] = T.N[1] >> 12 | T.N[2] << 40;
    Out.Limbs[2] = T.N[2] >> 24 | T.N[3] << 28;
    Out.Limbs[3] = T.N[3] >> 36 | T.N[4] << 16;
    return Out;
  }
  /// p as a U256.
  static const U256 &modulus() {
    static const U256 P = [] {
      U256 V;
      V.Limbs[0] = 0xFFFFFFFEFFFFFC2Full;
      V.Limbs[1] = V.Limbs[2] = V.Limbs[3] = ~0ull;
      return V;
    }();
    return P;
  }

  /// Reduce to [0, p) at magnitude 1.
  void normalize() {
    uint64_t T0 = N[0], T1 = N[1], T2 = N[2], T3 = N[3], T4 = N[4];
    // Fold bits 256 and up first, so the carry pass below leaves at most
    // one more carry into bit 256.
    uint64_t X = T4 >> 48;
    T4 &= M48;
    T0 += X * 0x1000003D1ull;
    T1 += T0 >> 52;
    T0 &= M52;
    T2 += T1 >> 52;
    T1 &= M52;
    uint64_t AllOnes = T1;
    T3 += T2 >> 52;
    T2 &= M52;
    AllOnes &= T2;
    T4 += T3 >> 52;
    T3 &= M52;
    AllOnes &= T3;
    // The value is now below 2^256 + 2^48; subtract p once if it is
    // >= p, by adding 2^256 - p and dropping bit 256.
    X = (T4 >> 48) |
        ((T4 == M48) & (AllOnes == M52) & (T0 >= 0xFFFFEFFFFFC2Full));
    T0 += X * 0x1000003D1ull;
    T1 += T0 >> 52;
    T0 &= M52;
    T2 += T1 >> 52;
    T1 &= M52;
    T3 += T2 >> 52;
    T2 &= M52;
    T4 += T3 >> 52;
    T3 &= M52;
    T4 &= M48;
    N[0] = T0, N[1] = T1, N[2] = T2, N[3] = T3, N[4] = T4;
    TYPECOIN_FE_AUDIT(Mag = 1; Norm = true; verify());
  }
  /// True when the value is 0 mod p, at any magnitude.
  bool isZero() const {
    FieldElement T = *this;
    T.normalize();
    return (T.N[0] | T.N[1] | T.N[2] | T.N[3] | T.N[4]) == 0;
  }
  /// Parity of the value in [0, p); requires a normalized element.
  bool isOdd() const {
    TYPECOIN_FE_AUDIT(require(Norm, "isOdd: element is not normalized"));
    return N[0] & 1;
  }
  /// Equality mod p, at any magnitudes.
  bool operator==(const FieldElement &O) const {
    FieldElement A = *this, B = O;
    A.normalize();
    B.normalize();
    return A.N[0] == B.N[0] && A.N[1] == B.N[1] && A.N[2] == B.N[2] &&
           A.N[3] == B.N[3] && A.N[4] == B.N[4];
  }
  bool operator!=(const FieldElement &O) const { return !(*this == O); }

  /// Limb-wise sum: magnitudes add.
  FieldElement &operator+=(const FieldElement &B) {
    TYPECOIN_FE_AUDIT(require(Mag + B.Mag <= MaxMagnitude,
                              "add: magnitude over 32"));
    for (int I = 0; I < 5; ++I)
      N[I] += B.N[I];
    TYPECOIN_FE_AUDIT(Mag += B.Mag; Norm = false; verify());
    return *this;
  }
  FieldElement operator+(const FieldElement &B) const {
    FieldElement R = *this;
    R += B;
    return R;
  }
  /// -a, given that a's magnitude is at most \p M: 2(M + 1)p - a limb by
  /// limb, at magnitude M + 1.
  FieldElement neg(unsigned M) const {
    TYPECOIN_FE_AUDIT(require(Mag <= M && M < MaxMagnitude,
                              "neg: magnitude over its bound"));
    uint64_t K = 2 * (M + 1);
    FieldElement R;
    R.N[0] = 0xFFFFEFFFFFC2Full * K - N[0];
    R.N[1] = M52 * K - N[1];
    R.N[2] = M52 * K - N[2];
    R.N[3] = M52 * K - N[3];
    R.N[4] = M48 * K - N[4];
    TYPECOIN_FE_AUDIT(R.Mag = M + 1; R.Norm = false; R.verify());
    return R;
  }
  /// k * a for a small k: the magnitude scales by k.
  FieldElement mulInt(unsigned K) const {
    TYPECOIN_FE_AUDIT(require(Mag * K <= MaxMagnitude,
                              "mulInt: magnitude over 32"));
    FieldElement R;
    for (int I = 0; I < 5; ++I)
      R.N[I] = N[I] * K;
    TYPECOIN_FE_AUDIT(R.Mag = Mag * K; R.Norm = false; R.verify());
    return R;
  }
  /// a / 2: adds p when a is odd, then shifts right across the limbs.
  /// Magnitude m becomes floor(m / 2) + 1.
  FieldElement half() const {
    TYPECOIN_FE_AUDIT(require(Mag < MaxMagnitude, "half: magnitude 32"));
    uint64_t T0 = N[0], T1 = N[1], T2 = N[2], T3 = N[3], T4 = N[4];
    uint64_t Mask = -(T0 & 1) >> 12; // p's low limbs when a is odd.
    T0 += 0xFFFFEFFFFFC2Full & Mask;
    T1 += Mask;
    T2 += Mask;
    T3 += Mask;
    T4 += Mask >> 4;
    FieldElement R;
    R.N[0] = (T0 >> 1) + ((T1 & 1) << 51);
    R.N[1] = (T1 >> 1) + ((T2 & 1) << 51);
    R.N[2] = (T2 >> 1) + ((T3 & 1) << 51);
    R.N[3] = (T3 >> 1) + ((T4 & 1) << 51);
    R.N[4] = T4 >> 1;
    TYPECOIN_FE_AUDIT(R.Mag = Mag / 2 + 1; R.Norm = false; R.verify());
    return R;
  }

  /// a * b at magnitude 1; both inputs at magnitude <= 8.
  FieldElement operator*(const FieldElement &B) const {
    TYPECOIN_FE_AUDIT(require(Mag <= MaxMulMagnitude &&
                                  B.Mag <= MaxMulMagnitude,
                              "mul: input magnitude over 8"));
    const uint64_t A0 = N[0], A1 = N[1], A2 = N[2], A3 = N[3], A4 = N[4];
    const uint64_t *Bn = B.N;
    // Column k of the 10-limb product is p_k = sum(a_i * b_j, i + j = k).
    // Columns 5..8 sit at 2^260 * 2^(52(k-5)) and fold into column k - 5
    // through R = 2^260 mod p = 0x1000003D10. D runs columns 3..8 and C
    // columns 0..4, each column folded as soon as its low 52 bits are
    // known, so neither accumulator exceeds 2^116.
    uint128 C, D;
    D = mul64(A0, Bn[3]) + mul64(A1, Bn[2]) + mul64(A2, Bn[1]) +
        mul64(A3, Bn[0]);
    C = mul64(A4, Bn[4]);
    D += mul64(static_cast<uint64_t>(C) & M52, R52);
    C >>= 52;
    uint64_t T3 = static_cast<uint64_t>(D) & M52;
    D >>= 52;
    D += mul64(A0, Bn[4]) + mul64(A1, Bn[3]) + mul64(A2, Bn[2]) +
         mul64(A3, Bn[1]) + mul64(A4, Bn[0]);
    D += mul64(static_cast<uint64_t>(C), R52);
    uint64_t T4 = static_cast<uint64_t>(D) & M52;
    D >>= 52;
    uint64_t Tx = T4 >> 48; // Bits 256..259, folded with column 5.
    T4 &= M48;
    C = mul64(A0, Bn[0]);
    D += mul64(A1, Bn[4]) + mul64(A2, Bn[3]) + mul64(A3, Bn[2]) +
         mul64(A4, Bn[1]);
    uint64_t U0 = static_cast<uint64_t>(D) & M52;
    D >>= 52;
    U0 = (U0 << 4) | Tx;
    C += mul64(U0, R52 >> 4);
    FieldElement R;
    R.N[0] = static_cast<uint64_t>(C) & M52;
    C >>= 52;
    C += mul64(A0, Bn[1]) + mul64(A1, Bn[0]);
    D += mul64(A2, Bn[4]) + mul64(A3, Bn[3]) + mul64(A4, Bn[2]);
    C += mul64(static_cast<uint64_t>(D) & M52, R52);
    D >>= 52;
    R.N[1] = static_cast<uint64_t>(C) & M52;
    C >>= 52;
    C += mul64(A0, Bn[2]) + mul64(A1, Bn[1]) + mul64(A2, Bn[0]);
    D += mul64(A3, Bn[4]) + mul64(A4, Bn[3]);
    C += mul64(static_cast<uint64_t>(D) & M52, R52);
    D >>= 52;
    R.N[2] = static_cast<uint64_t>(C) & M52;
    C >>= 52;
    C += mul64(static_cast<uint64_t>(D), R52) + T3;
    R.N[3] = static_cast<uint64_t>(C) & M52;
    C >>= 52;
    R.N[4] = static_cast<uint64_t>(C) + T4;
    TYPECOIN_FE_AUDIT(R.Mag = 1; R.Norm = false; R.verify());
    return R;
  }
  /// a^2 at magnitude 1; the input at magnitude <= 8. The same column
  /// schedule as `*`, with each cross product formed once and doubled.
  FieldElement sqr() const {
    TYPECOIN_FE_AUDIT(require(Mag <= MaxMulMagnitude,
                              "sqr: input magnitude over 8"));
    uint64_t A0 = N[0], A1 = N[1], A2 = N[2], A3 = N[3], A4 = N[4];
    uint128 C, D;
    D = mul64(A0 * 2, A3) + mul64(A1 * 2, A2);
    C = mul64(A4, A4);
    D += mul64(static_cast<uint64_t>(C) & M52, R52);
    C >>= 52;
    uint64_t T3 = static_cast<uint64_t>(D) & M52;
    D >>= 52;
    A4 *= 2;
    D += mul64(A0, A4) + mul64(A1 * 2, A3) + mul64(A2, A2);
    D += mul64(static_cast<uint64_t>(C), R52);
    uint64_t T4 = static_cast<uint64_t>(D) & M52;
    D >>= 52;
    uint64_t Tx = T4 >> 48;
    T4 &= M48;
    C = mul64(A0, A0);
    D += mul64(A1, A4) + mul64(A2 * 2, A3);
    uint64_t U0 = static_cast<uint64_t>(D) & M52;
    D >>= 52;
    U0 = (U0 << 4) | Tx;
    C += mul64(U0, R52 >> 4);
    FieldElement R;
    R.N[0] = static_cast<uint64_t>(C) & M52;
    C >>= 52;
    A0 *= 2;
    C += mul64(A0, A1);
    D += mul64(A2, A4) + mul64(A3, A3);
    C += mul64(static_cast<uint64_t>(D) & M52, R52);
    D >>= 52;
    R.N[1] = static_cast<uint64_t>(C) & M52;
    C >>= 52;
    C += mul64(A0, A2) + mul64(A1, A1);
    D += mul64(A3, A4);
    C += mul64(static_cast<uint64_t>(D) & M52, R52);
    D >>= 52;
    R.N[2] = static_cast<uint64_t>(C) & M52;
    C >>= 52;
    C += mul64(static_cast<uint64_t>(D), R52) + T3;
    R.N[3] = static_cast<uint64_t>(C) & M52;
    C >>= 52;
    R.N[4] = static_cast<uint64_t>(C) + T4;
    TYPECOIN_FE_AUDIT(R.Mag = 1; R.Norm = false; R.verify());
    return R;
  }

  /// 1 / a for a nonzero a, at magnitude 1: binary extended GCD on the
  /// normalized value (ModArith::inverse).
  FieldElement inverse() const;
  /// A root of a at magnitude 1, or nullopt when a is not a square.
  /// p = 3 mod 4, so the candidate is a^((p+1)/4), by a fixed chain of
  /// 253 squarings and 13 multiplies.
  std::optional<FieldElement> sqrt() const;
  /// The Legendre symbol (a / p): 1, -1, or 0 for a = 0.
  int jacobi() const;
  /// The ModArith over p behind \ref inverse and \ref jacobi. The field
  /// arithmetic itself never goes through it.
  static const ModArith &arith();

private:
  using uint128 = unsigned __int128;
  static constexpr uint64_t M52 = 0xFFFFFFFFFFFFFull;
  static constexpr uint64_t M48 = 0x0FFFFFFFFFFFFull;
  /// 2^260 mod p: the weight of column 5, relative to column 0.
  static constexpr uint64_t R52 = 0x1000003D10ull;

  static uint128 mul64(uint64_t A, uint64_t B) {
    return static_cast<uint128>(A) * B;
  }

  uint64_t N[5] = {0, 0, 0, 0, 0};

#ifdef TYPECOIN_AUDIT
  unsigned Mag = 1;  ///< Tracked magnitude.
  bool Norm = true;  ///< Fully reduced to [0, p) at magnitude 1.

  static void require(bool Cond, const char *What) {
    if (!Cond) {
      std::fprintf(stderr, "typecoin audit: field element: %s\n", What);
      std::abort();
    }
  }
  /// The limbs fit the tracked magnitude; a normalized element is < p.
  void verify() const {
    uint64_t M = Norm ? 1 : 2 * static_cast<uint64_t>(Mag);
    require(Mag <= MaxMagnitude && (!Norm || Mag <= 1),
            "magnitude out of range");
    require(N[0] <= M52 * M && N[1] <= M52 * M && N[2] <= M52 * M &&
                N[3] <= M52 * M && N[4] <= M48 * M,
            "limb exceeds its magnitude bound");
    if (Norm)
      require(!(N[4] == M48 && (N[3] & N[2] & N[1]) == M52 &&
                N[0] >= 0xFFFFEFFFFFC2Full),
              "normalized element is not below p");
  }
#endif
};

} // namespace crypto
} // namespace typecoin

#endif // TYPECOIN_CRYPTO_FIELD_H
