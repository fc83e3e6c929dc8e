//===- crypto/secp256k1.h - The secp256k1 elliptic curve -------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// From-scratch secp256k1 group arithmetic: y^2 = x^3 + 7 over the prime
/// field p = 2^256 - 2^32 - 977. Jacobian-coordinate point arithmetic over
/// 5x52-limb lazily reduced field elements (crypto/field.h), with
/// libsecp256k1's doubling and mixed-addition formulas; affine conversion
/// and SEC1 point serialization (compressed and uncompressed).
///
/// Scalar multiplication is table-driven (ROADMAP item 4c):
///
///  * `multiplyBase` walks a fixed-base comb table of 4-bit windows (one
///    mixed addition per window, zero doublings), built once at startup.
///  * `multiply` uses width-5 wNAF over on-the-fly odd multiples of P.
///  * `doubleMultiply` — the exact shape `ecdsaVerify` computes — is an
///    interleaved Straus/Shamir ladder mixing width-8 wNAF over a
///    precomputed odd-multiples-of-G table with width-5 wNAF over P.
///
/// `multiply` and `doubleMultiply` additionally exploit the GLV
/// endomorphism: secp256k1 has j-invariant 0, so phi(x, y) = (beta*x, y)
/// is an order-3 group automorphism acting as multiplication by lambda
/// (a cube root of 1 mod n). Each 256-bit scalar splits as
/// k = k1 + k2*lambda with |k1|, |k2| ~ 128 bits, and k*P is evaluated
/// as k1*P + k2*phi(P) on a shared ladder — halving the doubling count,
/// with phi applied to table entries for one field multiply each.
///
/// The bit-at-a-time reference ladders are retained as `multiplyNaive` /
/// `doubleMultiplyNaive`; the property sweep in tests/crypto compares the
/// table paths against them over random and edge-case inputs.
///
/// This implementation favors clarity over side-channel resistance; the
/// repo is a systems reproduction, not a hardened wallet.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_CRYPTO_SECP256K1_H
#define TYPECOIN_CRYPTO_SECP256K1_H

#include "crypto/field.h"
#include "crypto/u256.h"

#include <optional>
#include <vector>

namespace typecoin {
namespace crypto {

/// An affine curve point, or the point at infinity.
struct AffinePoint {
  U256 X;
  U256 Y;
  bool Infinity = true;

  static AffinePoint infinity() { return AffinePoint(); }
  static AffinePoint make(const U256 &X, const U256 &Y) {
    AffinePoint P;
    P.X = X;
    P.Y = Y;
    P.Infinity = false;
    return P;
  }

  bool operator==(const AffinePoint &O) const {
    if (Infinity || O.Infinity)
      return Infinity == O.Infinity;
    return X == O.X && Y == O.Y;
  }
};

/// The secp256k1 group: curve constants, point arithmetic, and
/// serialization. A process-wide singleton is available via \ref instance.
class Secp256k1 {
public:
  /// Builds the curve constants and the precomputed tables; code uses
  /// the shared \ref instance.
  Secp256k1();

  /// The ModArith over p. Point arithmetic runs on FieldElement; this
  /// object serves its inversions and Jacobi symbols, and is the tests'
  /// reference arithmetic mod p.
  const ModArith &field() const { return FieldElement::arith(); }
  /// The group-order arithmetic (mod n).
  const ModArith &scalar() const { return Fn; }

  /// Group order n.
  const U256 &order() const { return N; }
  /// n / 2, for low-S signature normalization.
  const U256 &halfOrder() const { return HalfN; }
  /// The standard generator G.
  const AffinePoint &generator() const { return G; }

  /// GLV endomorphism constants (exposed for the property sweep):
  /// lambda^3 = 1 mod n and beta^3 = 1 mod p, with
  /// lambda * (x, y) = (beta * x, y).
  const U256 &endoLambda() const { return Lambda; }
  const U256 &endoBeta() const { return Beta; }

  /// True if \p P is on the curve (or infinity).
  bool isOnCurve(const AffinePoint &P) const;
  /// True if \p X is the x of a curve point: x < p and x^3 + 7 is a
  /// nonzero square mod p, decided by a Jacobi symbol with no square
  /// root. A compressed encoding of \p X under either prefix is then
  /// exactly one that \ref parse accepts.
  bool isCurveX(const U256 &X) const;

  /// Group operations (affine interface; Jacobian internally).
  AffinePoint add(const AffinePoint &P, const AffinePoint &Q) const;
  AffinePoint negate(const AffinePoint &P) const;
  /// Scalar multiplication k*P (width-5 wNAF); k is reduced mod n.
  AffinePoint multiply(const U256 &K, const AffinePoint &P) const;
  /// k*G via the fixed-base comb (or the odd-G wNAF table when the comb
  /// is disabled).
  AffinePoint multiplyBase(const U256 &K) const;
  /// a*G + b*P in one interleaved Straus pass (the ECDSA verification
  /// shape): width-8 wNAF against the precomputed odd-G table, width-5
  /// wNAF against odd multiples of P.
  AffinePoint doubleMultiply(const U256 &A, const U256 &B,
                             const AffinePoint &P) const;
  /// The ECDSA check on a*G + b*P: true when the point is finite and its
  /// x, reduced mod n, equals \p R. Runs the Straus ladder of
  /// \ref doubleMultiply and compares in Jacobian coordinates, as
  /// libsecp256k1's `gej_eq_x` does: x = X/Z^2 lies in [0, p), so
  /// x mod n = R exactly when R*Z^2 = X, or when R + n < p and
  /// (R + n)*Z^2 = X. No field inversion.
  bool doubleMultiplyHasX(const U256 &A, const U256 &B, const AffinePoint &P,
                          const U256 &R) const;

  /// Reference double-and-add ladder; the oracle for the property sweep
  /// and the "before" side of bench_t12.
  AffinePoint multiplyNaive(const U256 &K, const AffinePoint &P) const;
  /// Reference bit-at-a-time Shamir ladder (the pre-table-era
  /// doubleMultiply).
  AffinePoint doubleMultiplyNaive(const U256 &A, const U256 &B,
                                  const AffinePoint &P) const;

  /// SEC1 serialization: 33 bytes (compressed) or 65 (uncompressed).
  Bytes serialize(const AffinePoint &P, bool Compressed = true) const;
  /// SEC1 parse to a point. A compressed encoding is decompressed with
  /// one field square root (p = 3 mod 4, a fixed addition chain), so
  /// only a signature check calls this: `PublicKey` keeps the bytes and
  /// validates them with \ref isCurveX.
  Result<AffinePoint> parse(const Bytes &Data) const;

  /// Process-wide instance (curve constants are fixed; tables are built
  /// exactly once and read-only afterwards, so sharing is thread-safe).
  static const Secp256k1 &instance();

private:
  /// Jacobian point (X/Z^2, Y/Z^3). Magnitudes stay at X <= 4, Y <= 4,
  /// Z <= 1 between operations, the bounds every formula below assumes.
  struct JacobianPoint {
    FieldElement X, Y, Z;
    bool Infinity = true;
  };

  /// Precomputed table entry: an affine point (never infinity), so
  /// additions against it use the cheap mixed formulas. X is at
  /// magnitude <= 4 and Y at magnitude 1, so negating an entry is one
  /// `neg(1)`.
  struct AffineFe {
    FieldElement X, Y;
  };

  /// A scalar decomposed along the lambda endomorphism:
  /// k = (-1)^Neg1 * K1 + (-1)^Neg2 * K2 * lambda (mod n), with K1 and
  /// K2 nonnegative and roughly 128 bits.
  struct SplitScalar {
    U256 K1, K2;
    bool Neg1 = false, Neg2 = false;
  };
  SplitScalar splitLambda(const U256 &K) const;
  /// phi applied to a table entry: (beta*x, y), one field multiply.
  AffineFe endoEntry(const AffineFe &P) const;
  /// One Straus table lookup: add digit D (negated when \p Neg) from
  /// table \p T into \p Acc; no-op for D == 0.
  void strausAdd(JacobianPoint &Acc, int D, bool Neg,
                 const std::vector<AffineFe> &T) const;
  /// As \ref strausAdd, but rescales the (true-affine) entry onto the
  /// iso-curve of the per-call tables by Z2 = IsoZ^2, Z3 = IsoZ^3
  /// first: two extra field multiplies per addition in exchange for
  /// running the whole ladder inversion-free.
  void strausAddScaled(JacobianPoint &Acc, int D, bool Neg,
                       const std::vector<AffineFe> &T, const FieldElement &Z2,
                       const FieldElement &Z3) const;
  /// a*G + b*P on one Straus ladder, left in Jacobian coordinates. A and
  /// B are reduced mod n; P is finite.
  JacobianPoint strausLadder(const U256 &A, const U256 &B,
                             const AffinePoint &P) const;

  /// x^3 + 7, the curve's y^2 at \p X (magnitude 2).
  static FieldElement curveRhs(const FieldElement &X) {
    return X.sqr() * X + FieldElement(7);
  }

  static JacobianPoint toJacobian(const AffinePoint &P);
  static AffinePoint toAffine(const JacobianPoint &P);
  /// libsecp256k1's `gej_double`: 3 multiplies, 4 squarings.
  static JacobianPoint jacDouble(const JacobianPoint &P);
  /// General addition (`gej_add_var`); table set-up and the naive
  /// ladders use it.
  static JacobianPoint jacAdd(const JacobianPoint &P, const JacobianPoint &Q);
  /// Mixed addition P + Q with Q affine (`gej_add_ge_var`): 8 multiplies,
  /// 3 squarings. With \p Zr, also reports the Z ratio Z_out / Z_in;
  /// that requires P finite and P != +-Q (true for the odd-multiple
  /// chains that ask for it).
  static JacobianPoint jacAddMixed(const JacobianPoint &P, const AffineFe &Q,
                                   FieldElement *Zr = nullptr);
  static JacobianPoint jacMultiply(const U256 &K, const JacobianPoint &P);
  static AffineFe negateEntry(const AffineFe &P);

  /// Batch-convert Jacobian points to table entries with a single field
  /// inversion (Montgomery's trick). No input may be infinity.
  static std::vector<AffineFe>
  normalizeBatch(const std::vector<JacobianPoint> &Pts);
  /// Odd multiples {1, 3, 5, ...}*P, Table.size() entries.
  static void oddMultiples(const JacobianPoint &P,
                           std::vector<AffineFe> &Table);
  /// As \ref oddMultiples, but inversion-free: entries are affine on an
  /// isomorphic curve sharing one global denominator \p IsoZ. A ladder
  /// run against them yields the true point after multiplying the final
  /// accumulator's Z by IsoZ. \p P must be finite with Z = 1.
  static void oddMultiplesGlobalZ(const JacobianPoint &P,
                                  std::vector<AffineFe> &Table,
                                  FieldElement &IsoZ);
  void buildTables();

  ModArith Fn;
  U256 N;
  U256 HalfN;
  U256 PMinusN; ///< p - n: an x below it has a second residue x + n < p.
  AffinePoint G;

  U256 Lambda;          ///< Cube root of 1 mod n (scalar action of phi).
  U256 Beta;            ///< Cube root of 1 mod p (x-coordinate action of phi).
  FieldElement BetaFe;  ///< beta as a field element.
  /// Lattice constants for the lambda decomposition (libsecp256k1's
  /// basis): k2 = -(round(k*G1/2^384)*B1 + round(k*G2/2^384)*B2),
  /// k1 = k - k2*lambda. MinusB1/MinusB2 store -b1/-b2 mod n.
  U256 SplitG1, SplitG2, MinusB1, MinusB2;

  static constexpr unsigned CombW = 4; ///< Comb window width in bits.
  std::vector<AffineFe> Comb; ///< [block][digit-1]: d * 2^(W*block) * G.
  std::vector<AffineFe> GOdd; ///< Odd multiples of G for width-8 wNAF.
  std::vector<AffineFe> GLamOdd; ///< phi(GOdd): odd multiples of phi(G).
};

} // namespace crypto
} // namespace typecoin

#endif // TYPECOIN_CRYPTO_SECP256K1_H
