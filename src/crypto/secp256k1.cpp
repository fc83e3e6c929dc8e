//===- crypto/secp256k1.cpp - The secp256k1 elliptic curve ----------------===//

#include "crypto/secp256k1.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace typecoin {
namespace crypto {

static U256 mustHex(const char *Hex) {
  auto V = U256::fromHex(Hex);
  assert(V && "bad builtin constant");
  return *V;
}

static const char *const PHex =
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
static const char *const GxHex =
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798";
static const char *const GyHex =
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";

/// wNAF digit width for the odd-multiples-of-G table (64 points).
static constexpr unsigned GWnafWidth = 8;
/// wNAF digit width for ad-hoc points (8 odd multiples, built per call).
static constexpr unsigned PWnafWidth = 5;
/// A 256-bit scalar yields at most 257 wNAF digits.
static constexpr unsigned MaxWnafLen = 257;

/// GLV endomorphism constants. Lambda is a primitive cube root of 1
/// mod n; beta the matching cube root of 1 mod p, so that
/// lambda * (x, y) = (beta * x, y) on the curve. The lattice basis
/// (b1, b2) and rounding constants (g1, g2) — g_i = round(2^384 * b_i'
/// / n) — are the standard libsecp256k1 decomposition yielding halves
/// of at most ~128 bits.
static const char *const LambdaHex =
    "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72";
static const char *const BetaHex =
    "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee";
static const char *const SplitG1Hex =
    "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031";
static const char *const SplitG2Hex =
    "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71";
static const char *const MinusB1Hex =
    "00000000000000000000000000000000e4437ed6010e88286f547fa90abfe4c3";
static const char *const MinusB2Hex =
    "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c";

/// round(K * G / 2^384): bits 384.. of the 512-bit product, plus the
/// rounding bit 383. Both inputs are < 2^256, so the result fits well
/// inside 128 bits.
static U256 mulShift384(const U256 &K, const U256 &G) {
  U512 T = mulWide(K, G);
  U256 Out;
  Out.Limbs[0] = T.Limbs[6];
  Out.Limbs[1] = T.Limbs[7];
  if (T.Limbs[5] >> 63)
    Out.addInPlace(U256::one());
  return Out;
}

/// Width-w non-adjacent form: rewrites K as sum(D[i] * 2^i) with every
/// nonzero D[i] odd and |D[i]| < 2^(w-1). Returns the digit count.
/// Adding back |D| <= 2^(w-1) during the rewrite cannot wrap because
/// K < n and n is far below 2^256 - 2^(w-1).
static unsigned wnafDigits(U256 K, unsigned W, int16_t *Out) {
  unsigned Len = 0;
  const uint64_t Mask = (1ull << W) - 1;
  const int Half = 1 << (W - 1), Full = 1 << W;
  while (!K.isZero()) {
    int D = 0;
    if (K.bit(0)) {
      D = static_cast<int>(K.Limbs[0] & Mask);
      if (D >= Half)
        D -= Full;
      if (D > 0)
        K.subInPlace(U256(static_cast<uint64_t>(D)));
      else
        K.addInPlace(U256(static_cast<uint64_t>(-D)));
    }
    Out[Len++] = static_cast<int16_t>(D);
    K.shr1();
  }
  return Len;
}

/// Window of \p W bits of \p K starting at bit \p Off (little-endian).
static unsigned windowAt(const U256 &K, unsigned Off, unsigned W) {
  unsigned Limb = Off / 64, Shift = Off % 64;
  uint64_t V = K.Limbs[Limb] >> Shift;
  if (Shift + W > 64 && Limb < 3)
    V |= K.Limbs[Limb + 1] << (64 - Shift);
  return static_cast<unsigned>(V & ((1ull << W) - 1));
}

static unsigned combWindowFromEnv() {
  const char *Env = std::getenv("TYPECOIN_ECMULT_WINDOW");
  long W = Env ? std::atol(Env) : 4;
  return static_cast<unsigned>(std::clamp(W, 0l, 8l));
}

Secp256k1::Secp256k1(int CombWindowOverride)
    : Fp(mustHex(PHex)),
      Fn(mustHex(
          "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")),
      N(Fn.modulus()) {
  HalfN = N;
  HalfN.shr1();
  G = AffinePoint::make(mustHex(GxHex), mustHex(GyHex));
  SevenMont = Fp.toMont(U256(7));
  assert(isOnCurve(G) && "generator must lie on the curve");
  Lambda = mustHex(LambdaHex);
  Beta = mustHex(BetaHex);
  BetaMont = Fp.toMont(Beta);
  SplitG1 = mustHex(SplitG1Hex);
  SplitG2 = mustHex(SplitG2Hex);
  MinusB1 = mustHex(MinusB1Hex);
  MinusB2 = mustHex(MinusB2Hex);
  CombW = CombWindowOverride < 0
              ? combWindowFromEnv()
              : static_cast<unsigned>(std::min(CombWindowOverride, 8));
  buildTables();
}

const Secp256k1 &Secp256k1::instance() {
  static const Secp256k1 Curve;
  return Curve;
}

bool Secp256k1::isOnCurve(const AffinePoint &P) const {
  if (P.Infinity)
    return true;
  if (P.X >= Fp.modulus() || P.Y >= Fp.modulus())
    return false;
  U256 X = Fp.toMont(P.X), Y = Fp.toMont(P.Y);
  U256 Lhs = Fp.montSqr(Y);
  U256 Rhs = Fp.montAdd(Fp.montMul(Fp.montSqr(X), X), SevenMont);
  return Lhs == Rhs;
}

bool Secp256k1::isCurveX(const U256 &X) const {
  // x^3 + 7 is never 0 mod p (the group has odd order, so no point has
  // y = 0), so this accepts exactly the x whose root parse finds.
  return X < Fp.modulus() && Fp.jacobi(curveRhs(X)) == 1;
}

Secp256k1::JacobianPoint Secp256k1::toJacobian(const AffinePoint &P) const {
  if (P.Infinity)
    return JacobianPoint{U256::zero(), U256::zero(), U256::zero()};
  return JacobianPoint{Fp.toMont(P.X), Fp.toMont(P.Y), Fp.montOne()};
}

AffinePoint Secp256k1::toAffine(const JacobianPoint &P) const {
  if (P.Z.isZero())
    return AffinePoint::infinity();
  U256 Z = Fp.fromMont(P.Z);
  U256 ZInv = Fp.toMont(Fp.inverse(Z));
  U256 ZInv2 = Fp.montSqr(ZInv);
  U256 ZInv3 = Fp.montMul(ZInv2, ZInv);
  return AffinePoint::make(Fp.fromMont(Fp.montMul(P.X, ZInv2)),
                           Fp.fromMont(Fp.montMul(P.Y, ZInv3)));
}

Secp256k1::JacobianPoint
Secp256k1::jacDouble(const JacobianPoint &P) const {
  if (P.Z.isZero() || P.Y.isZero())
    return JacobianPoint{U256::zero(), U256::zero(), U256::zero()};
  // dbl-2009-l formulas for a = 0.
  U256 A = Fp.montSqr(P.X);                  // X^2
  U256 B = Fp.montSqr(P.Y);                  // Y^2
  U256 C = Fp.montSqr(B);                    // B^2
  U256 XpB = Fp.montAdd(P.X, B);
  U256 D = Fp.montSub(Fp.montSub(Fp.montSqr(XpB), A), C);
  D = Fp.montAdd(D, D);                      // 2*((X+B)^2 - A - C)
  U256 E = Fp.montAdd(Fp.montAdd(A, A), A);  // 3*A
  U256 F = Fp.montSqr(E);
  U256 X3 = Fp.montSub(F, Fp.montAdd(D, D));
  U256 C8 = Fp.montAdd(C, C);
  C8 = Fp.montAdd(C8, C8);
  C8 = Fp.montAdd(C8, C8);
  U256 Y3 = Fp.montSub(Fp.montMul(E, Fp.montSub(D, X3)), C8);
  U256 YZ = Fp.montMul(P.Y, P.Z);
  U256 Z3 = Fp.montAdd(YZ, YZ);
  return JacobianPoint{X3, Y3, Z3};
}

Secp256k1::JacobianPoint
Secp256k1::jacAdd(const JacobianPoint &P, const JacobianPoint &Q) const {
  if (P.Z.isZero())
    return Q;
  if (Q.Z.isZero())
    return P;
  U256 Z1Z1 = Fp.montSqr(P.Z);
  U256 Z2Z2 = Fp.montSqr(Q.Z);
  U256 U1 = Fp.montMul(P.X, Z2Z2);
  U256 U2 = Fp.montMul(Q.X, Z1Z1);
  U256 S1 = Fp.montMul(P.Y, Fp.montMul(Z2Z2, Q.Z));
  U256 S2 = Fp.montMul(Q.Y, Fp.montMul(Z1Z1, P.Z));
  if (U1 == U2) {
    if (S1 == S2)
      return jacDouble(P);
    return JacobianPoint{U256::zero(), U256::zero(), U256::zero()};
  }
  U256 H = Fp.montSub(U2, U1);
  U256 R = Fp.montSub(S2, S1);
  U256 H2 = Fp.montSqr(H);
  U256 H3 = Fp.montMul(H2, H);
  U256 U1H2 = Fp.montMul(U1, H2);
  U256 X3 = Fp.montSub(Fp.montSub(Fp.montSqr(R), H3),
                       Fp.montAdd(U1H2, U1H2));
  U256 Y3 =
      Fp.montSub(Fp.montMul(R, Fp.montSub(U1H2, X3)), Fp.montMul(S1, H3));
  U256 Z3 = Fp.montMul(Fp.montMul(P.Z, Q.Z), H);
  return JacobianPoint{X3, Y3, Z3};
}

Secp256k1::JacobianPoint
Secp256k1::jacAddMixed(const JacobianPoint &P, const MontAffine &Q) const {
  if (P.Z.isZero())
    return JacobianPoint{Q.X, Q.Y, Fp.montOne()};
  // madd-2007-bl: Q has Z = 1, so U1 = X1, S1 = Y1.
  U256 Z1Z1 = Fp.montSqr(P.Z);
  U256 U2 = Fp.montMul(Q.X, Z1Z1);
  U256 S2 = Fp.montMul(Q.Y, Fp.montMul(Z1Z1, P.Z));
  if (P.X == U2) {
    if (P.Y == S2)
      return jacDouble(P);
    return JacobianPoint{U256::zero(), U256::zero(), U256::zero()};
  }
  U256 H = Fp.montSub(U2, P.X);
  U256 R = Fp.montSub(S2, P.Y);
  U256 H2 = Fp.montSqr(H);
  U256 H3 = Fp.montMul(H2, H);
  U256 U1H2 = Fp.montMul(P.X, H2);
  U256 X3 = Fp.montSub(Fp.montSub(Fp.montSqr(R), H3),
                       Fp.montAdd(U1H2, U1H2));
  U256 Y3 =
      Fp.montSub(Fp.montMul(R, Fp.montSub(U1H2, X3)), Fp.montMul(P.Y, H3));
  U256 Z3 = Fp.montMul(P.Z, H);
  return JacobianPoint{X3, Y3, Z3};
}

Secp256k1::JacobianPoint
Secp256k1::jacAddMixedZr(const JacobianPoint &P, const MontAffine &Q,
                         U256 &Zr) const {
  // Same madd-2007-bl flow as jacAddMixed, exposing the Z ratio H so
  // the global-Z table construction can normalize without inverting.
  // The degenerate branches of jacAddMixed (infinity, doubling) have no
  // well-defined ratio; callers guarantee they cannot occur.
  U256 Z1Z1 = Fp.montSqr(P.Z);
  U256 U2 = Fp.montMul(Q.X, Z1Z1);
  U256 S2 = Fp.montMul(Q.Y, Fp.montMul(Z1Z1, P.Z));
  assert(!P.Z.isZero() && P.X != U2 && "odd-multiple chain degenerated");
  U256 H = Fp.montSub(U2, P.X);
  U256 R = Fp.montSub(S2, P.Y);
  U256 H2 = Fp.montSqr(H);
  U256 H3 = Fp.montMul(H2, H);
  U256 U1H2 = Fp.montMul(P.X, H2);
  U256 X3 = Fp.montSub(Fp.montSub(Fp.montSqr(R), H3),
                       Fp.montAdd(U1H2, U1H2));
  U256 Y3 =
      Fp.montSub(Fp.montMul(R, Fp.montSub(U1H2, X3)), Fp.montMul(P.Y, H3));
  U256 Z3 = Fp.montMul(P.Z, H);
  Zr = H;
  return JacobianPoint{X3, Y3, Z3};
}

Secp256k1::JacobianPoint
Secp256k1::jacMultiply(const U256 &K, const JacobianPoint &P) const {
  JacobianPoint Acc{U256::zero(), U256::zero(), U256::zero()};
  unsigned Bits = K.bitLength();
  for (int I = static_cast<int>(Bits) - 1; I >= 0; --I) {
    Acc = jacDouble(Acc);
    if (K.bit(static_cast<unsigned>(I)))
      Acc = jacAdd(Acc, P);
  }
  return Acc;
}

Secp256k1::MontAffine Secp256k1::negateEntry(const MontAffine &P) const {
  return MontAffine{P.X, Fp.montSub(U256::zero(), P.Y)};
}

Secp256k1::MontAffine Secp256k1::endoEntry(const MontAffine &P) const {
  return MontAffine{Fp.montMul(BetaMont, P.X), P.Y};
}

Secp256k1::SplitScalar Secp256k1::splitLambda(const U256 &K) const {
  // Round K against the dual lattice basis, then take the remainder:
  // k2 = -(c1*b1 + c2*b2), k1 = k - k2*lambda. The basis is chosen so
  // both components have magnitude ~sqrt(n); components above n/2 are
  // stored negated with a sign flag so the wNAF ladders see ~128-bit
  // nonnegative scalars.
  U256 C1 = Fn.mul(mulShift384(K, SplitG1), MinusB1);
  U256 C2 = Fn.mul(mulShift384(K, SplitG2), MinusB2);
  SplitScalar S;
  S.K2 = Fn.add(C1, C2);
  S.K1 = Fn.sub(K, Fn.mul(S.K2, Lambda));
  if (S.K1 > HalfN) {
    S.K1 = Fn.neg(S.K1);
    S.Neg1 = true;
  }
  if (S.K2 > HalfN) {
    S.K2 = Fn.neg(S.K2);
    S.Neg2 = true;
  }
  return S;
}

void Secp256k1::strausAdd(JacobianPoint &Acc, int D, bool Neg,
                          const std::vector<MontAffine> &T) const {
  if (D == 0)
    return;
  bool Minus = (D < 0) != Neg;
  const MontAffine &E = T[static_cast<unsigned>(D < 0 ? -D : D) >> 1];
  Acc = jacAddMixed(Acc, Minus ? negateEntry(E) : E);
}

void Secp256k1::strausAddScaled(JacobianPoint &Acc, int D, bool Neg,
                                const std::vector<MontAffine> &T,
                                const U256 &Z2, const U256 &Z3) const {
  if (D == 0)
    return;
  bool Minus = (D < 0) != Neg;
  const MontAffine &E = T[static_cast<unsigned>(D < 0 ? -D : D) >> 1];
  MontAffine S{Fp.montMul(E.X, Z2), Fp.montMul(E.Y, Z3)};
  Acc = jacAddMixed(Acc, Minus ? negateEntry(S) : S);
}

std::vector<Secp256k1::MontAffine>
Secp256k1::normalizeBatch(const std::vector<JacobianPoint> &Pts) const {
  // Montgomery's trick: one inversion for the whole batch via running
  // prefix products of the Z coordinates.
  size_t Count = Pts.size();
  std::vector<U256> Prefix(Count);
  U256 Run = Fp.montOne();
  for (size_t I = 0; I < Count; ++I) {
    assert(!Pts[I].Z.isZero() && "cannot normalize the point at infinity");
    Run = Fp.montMul(Run, Pts[I].Z);
    Prefix[I] = Run;
  }
  U256 Inv = Fp.toMont(Fp.inverse(Fp.fromMont(Run)));
  std::vector<MontAffine> Out(Count);
  for (size_t I = Count; I-- > 0;) {
    U256 ZInv = I == 0 ? Inv : Fp.montMul(Inv, Prefix[I - 1]);
    Inv = Fp.montMul(Inv, Pts[I].Z);
    U256 ZInv2 = Fp.montSqr(ZInv);
    U256 ZInv3 = Fp.montMul(ZInv2, ZInv);
    Out[I] = MontAffine{Fp.montMul(Pts[I].X, ZInv2),
                        Fp.montMul(Pts[I].Y, ZInv3)};
  }
  return Out;
}

void Secp256k1::oddMultiples(const JacobianPoint &P,
                             std::vector<MontAffine> &Table) const {
  // {1, 3, 5, ...}*P. P has prime order n, so no small odd multiple is
  // infinity and the batch normalization below is total.
  size_t Count = Table.size();
  std::vector<JacobianPoint> J(Count);
  J[0] = P;
  JacobianPoint Twice = jacDouble(P);
  for (size_t I = 1; I < Count; ++I)
    J[I] = jacAdd(J[I - 1], Twice);
  Table = normalizeBatch(J);
}

void Secp256k1::oddMultiplesGlobalZ(const JacobianPoint &P,
                                    std::vector<MontAffine> &Table,
                                    U256 &IsoZ) const {
  // Work on the curve isomorphic by u = Z(2P): there 2P is affine and P
  // lifts by u^2/u^3, so the odd-multiple chain runs on mixed additions
  // whose Z ratios we record. A backward pass of ratio products then
  // rescales every entry to the last entry's denominator — Montgomery's
  // trick without the inversion. True coordinates are recovered by
  // folding IsoZ = Z_last * u into the caller's final Z.
  size_t Count = Table.size();
  JacobianPoint D = jacDouble(P);
  MontAffine D2{D.X, D.Y};
  U256 U2 = Fp.montSqr(D.Z);
  std::vector<JacobianPoint> J(Count);
  std::vector<U256> Zr(Count);
  J[0] = JacobianPoint{Fp.montMul(P.X, U2),
                       Fp.montMul(P.Y, Fp.montMul(U2, D.Z)), P.Z};
  for (size_t I = 1; I < Count; ++I)
    J[I] = jacAddMixedZr(J[I - 1], D2, Zr[I]);
  Table[Count - 1] = MontAffine{J[Count - 1].X, J[Count - 1].Y};
  U256 C = Fp.montOne();
  for (size_t I = Count - 1; I-- > 0;) {
    C = Fp.montMul(C, Zr[I + 1]);
    U256 C2 = Fp.montSqr(C);
    Table[I] = MontAffine{Fp.montMul(J[I].X, C2),
                          Fp.montMul(J[I].Y, Fp.montMul(C2, C))};
  }
  IsoZ = Fp.montMul(J[Count - 1].Z, D.Z);
}

void Secp256k1::buildTables() {
  JacobianPoint JG = toJacobian(G);
  GOdd.resize(1u << (GWnafWidth - 2)); // Odd multiples 1..2^(w-1)-1.
  oddMultiples(JG, GOdd);
  GLamOdd.reserve(GOdd.size());
  for (const MontAffine &E : GOdd)
    GLamOdd.push_back(endoEntry(E));

  if (CombW == 0)
    return;
  // Comb[b * Mask + (d-1)] = d * 2^(CombW * b) * G for digit d in
  // [1, 2^CombW - 1]. All entries are d' * G with 0 < d' < n, never
  // infinity.
  unsigned Mask = (1u << CombW) - 1;
  unsigned Blocks = (256 + CombW - 1) / CombW;
  std::vector<JacobianPoint> T;
  T.reserve(static_cast<size_t>(Blocks) * Mask);
  JacobianPoint Base = JG; // 2^(CombW * b) * G for the current block.
  for (unsigned B = 0; B < Blocks; ++B) {
    JacobianPoint Cur = Base;
    for (unsigned D = 1; D <= Mask; ++D) {
      T.push_back(Cur);
      if (D < Mask)
        Cur = jacAdd(Cur, Base);
    }
    for (unsigned I = 0; I < CombW; ++I)
      Base = jacDouble(Base);
  }
  Comb = normalizeBatch(T);
}

AffinePoint Secp256k1::add(const AffinePoint &P, const AffinePoint &Q) const {
  return toAffine(jacAdd(toJacobian(P), toJacobian(Q)));
}

AffinePoint Secp256k1::negate(const AffinePoint &P) const {
  if (P.Infinity)
    return P;
  return AffinePoint::make(P.X, Fp.neg(P.Y));
}

AffinePoint Secp256k1::multiply(const U256 &K, const AffinePoint &P) const {
  U256 KRed = K >= N ? Fn.reduce(K) : K;
  if (KRed.isZero() || P.Infinity)
    return AffinePoint::infinity();
  // GLV: k*P = k1*P + k2*phi(P) on one ~128-doubling Straus ladder,
  // with the per-call table on a shared-denominator iso-curve so the
  // whole call performs a single inversion (the final toAffine).
  std::vector<MontAffine> Odd(1u << (PWnafWidth - 2));
  U256 IsoZ;
  oddMultiplesGlobalZ(toJacobian(P), Odd, IsoZ);
  std::vector<MontAffine> OddLam;
  OddLam.reserve(Odd.size());
  for (const MontAffine &E : Odd)
    OddLam.push_back(endoEntry(E));
  SplitScalar S = splitLambda(KRed);
  int16_t D1[MaxWnafLen], D2[MaxWnafLen];
  unsigned L1 = wnafDigits(S.K1, PWnafWidth, D1);
  unsigned L2 = wnafDigits(S.K2, PWnafWidth, D2);
  JacobianPoint Acc{U256::zero(), U256::zero(), U256::zero()};
  for (unsigned I = std::max(L1, L2); I-- > 0;) {
    Acc = jacDouble(Acc);
    if (I < L1)
      strausAdd(Acc, D1[I], S.Neg1, Odd);
    if (I < L2)
      strausAdd(Acc, D2[I], S.Neg2, OddLam);
  }
  Acc.Z = Fp.montMul(Acc.Z, IsoZ); // Leave the iso-curve (0 stays 0).
  return toAffine(Acc);
}

AffinePoint Secp256k1::multiplyBase(const U256 &K) const {
  U256 KRed = K >= N ? Fn.reduce(K) : K;
  if (KRed.isZero())
    return AffinePoint::infinity();
  if (CombW != 0) {
    // One mixed addition per nonzero window; no doublings at all.
    unsigned Mask = (1u << CombW) - 1;
    JacobianPoint Acc{U256::zero(), U256::zero(), U256::zero()};
    for (unsigned Off = 0, B = 0; Off < 256; Off += CombW, ++B) {
      unsigned Digit = windowAt(KRed, Off, CombW);
      if (Digit != 0)
        Acc = jacAddMixed(Acc, Comb[static_cast<size_t>(B) * Mask + Digit - 1]);
    }
    return toAffine(Acc);
  }
  int16_t D[MaxWnafLen];
  unsigned Len = wnafDigits(KRed, GWnafWidth, D);
  JacobianPoint Acc{U256::zero(), U256::zero(), U256::zero()};
  for (unsigned I = Len; I-- > 0;) {
    Acc = jacDouble(Acc);
    if (D[I] > 0)
      Acc = jacAddMixed(Acc, GOdd[static_cast<unsigned>(D[I]) >> 1]);
    else if (D[I] < 0)
      Acc = jacAddMixed(Acc, negateEntry(GOdd[static_cast<unsigned>(-D[I]) >> 1]));
  }
  return toAffine(Acc);
}

AffinePoint Secp256k1::doubleMultiply(const U256 &A, const U256 &B,
                                      const AffinePoint &P) const {
  U256 ARed = A >= N ? Fn.reduce(A) : A;
  U256 BRed = B >= N ? Fn.reduce(B) : B;
  if (P.Infinity || BRed.isZero())
    return multiplyBase(ARed);
  if (ARed.isZero())
    return multiply(BRed, P);
  // Straus over four GLV halves on one ~128-doubling ladder: the G
  // halves read the wide precomputed GOdd/phi(GOdd) tables (width 8),
  // the P halves a small per-call table and its phi image (width 5).
  // The ladder runs on the per-call table's iso-curve (inversion-free
  // construction); G entries are rescaled onto it at lookup time.
  std::vector<MontAffine> POdd(1u << (PWnafWidth - 2));
  U256 IsoZ;
  oddMultiplesGlobalZ(toJacobian(P), POdd, IsoZ);
  std::vector<MontAffine> POddLam;
  POddLam.reserve(POdd.size());
  for (const MontAffine &E : POdd)
    POddLam.push_back(endoEntry(E));
  U256 IsoZ2 = Fp.montSqr(IsoZ);
  U256 IsoZ3 = Fp.montMul(IsoZ2, IsoZ);
  SplitScalar SA = splitLambda(ARed);
  SplitScalar SB = splitLambda(BRed);
  int16_t DA1[MaxWnafLen], DA2[MaxWnafLen], DB1[MaxWnafLen], DB2[MaxWnafLen];
  unsigned LA1 = wnafDigits(SA.K1, GWnafWidth, DA1);
  unsigned LA2 = wnafDigits(SA.K2, GWnafWidth, DA2);
  unsigned LB1 = wnafDigits(SB.K1, PWnafWidth, DB1);
  unsigned LB2 = wnafDigits(SB.K2, PWnafWidth, DB2);
  JacobianPoint Acc{U256::zero(), U256::zero(), U256::zero()};
  for (unsigned I = std::max(std::max(LA1, LA2), std::max(LB1, LB2));
       I-- > 0;) {
    Acc = jacDouble(Acc);
    if (I < LA1)
      strausAddScaled(Acc, DA1[I], SA.Neg1, GOdd, IsoZ2, IsoZ3);
    if (I < LA2)
      strausAddScaled(Acc, DA2[I], SA.Neg2, GLamOdd, IsoZ2, IsoZ3);
    if (I < LB1)
      strausAdd(Acc, DB1[I], SB.Neg1, POdd);
    if (I < LB2)
      strausAdd(Acc, DB2[I], SB.Neg2, POddLam);
  }
  Acc.Z = Fp.montMul(Acc.Z, IsoZ); // Leave the iso-curve (0 stays 0).
  return toAffine(Acc);
}

AffinePoint Secp256k1::multiplyNaive(const U256 &K,
                                     const AffinePoint &P) const {
  U256 KRed = K >= N ? Fn.reduce(K) : K;
  return toAffine(jacMultiply(KRed, toJacobian(P)));
}

AffinePoint Secp256k1::doubleMultiplyNaive(const U256 &A, const U256 &B,
                                           const AffinePoint &P) const {
  // Shamir's trick: interleave both scalar ladders bit by bit.
  JacobianPoint JG = toJacobian(G);
  JacobianPoint JP = toJacobian(P);
  JacobianPoint Both = jacAdd(JG, JP);
  JacobianPoint Acc{U256::zero(), U256::zero(), U256::zero()};
  unsigned Bits = std::max(A.bitLength(), B.bitLength());
  for (int I = static_cast<int>(Bits) - 1; I >= 0; --I) {
    Acc = jacDouble(Acc);
    bool BitA = A.bit(static_cast<unsigned>(I));
    bool BitB = B.bit(static_cast<unsigned>(I));
    if (BitA && BitB)
      Acc = jacAdd(Acc, Both);
    else if (BitA)
      Acc = jacAdd(Acc, JG);
    else if (BitB)
      Acc = jacAdd(Acc, JP);
  }
  return toAffine(Acc);
}

Bytes Secp256k1::serialize(const AffinePoint &P, bool Compressed) const {
  assert(!P.Infinity && "cannot serialize the point at infinity");
  auto X = P.X.toBytesBE();
  Bytes Out;
  if (Compressed) {
    Out.push_back(P.Y.bit(0) ? 0x03 : 0x02);
    Out.insert(Out.end(), X.begin(), X.end());
    return Out;
  }
  auto Y = P.Y.toBytesBE();
  Out.push_back(0x04);
  Out.insert(Out.end(), X.begin(), X.end());
  Out.insert(Out.end(), Y.begin(), Y.end());
  return Out;
}

/// A^((p+1)/4) on field-internal values: the square root of A when one
/// exists (p = 3 mod 4). The caller checks the result squares back to A.
/// (p+1)/4 = 2^254 - 2^30 - 244 is, in binary, runs of 223, 22 and 2
/// one-bits; libsecp256k1's fixed addition chain builds A^(2^k - 1) for
/// k = 2, 3, 6, 9, 11, 22, 44, 88, 176, 220, 223 and slides the runs
/// into place: 253 squarings and 13 multiplies, where the generic
/// square-and-multiply ModArith::pow spends 254 and 247.
static U256 sqrtCandidate(const ModArith &Fp, const U256 &A) {
  auto SqrN = [&Fp](U256 V, int N) {
    while (N-- > 0)
      V = Fp.montSqr(V);
    return V;
  };
  U256 X2 = Fp.montMul(Fp.montSqr(A), A);
  U256 X3 = Fp.montMul(Fp.montSqr(X2), A);
  U256 X6 = Fp.montMul(SqrN(X3, 3), X3);
  U256 X9 = Fp.montMul(SqrN(X6, 3), X3);
  U256 X11 = Fp.montMul(SqrN(X9, 2), X2);
  U256 X22 = Fp.montMul(SqrN(X11, 11), X11);
  U256 X44 = Fp.montMul(SqrN(X22, 22), X22);
  U256 X88 = Fp.montMul(SqrN(X44, 44), X44);
  U256 X176 = Fp.montMul(SqrN(X88, 88), X88);
  U256 X220 = Fp.montMul(SqrN(X176, 44), X44);
  U256 X223 = Fp.montMul(SqrN(X220, 3), X3);
  U256 T = Fp.montMul(SqrN(X223, 23), X22);
  T = Fp.montMul(SqrN(T, 6), X2);
  return SqrN(T, 2);
}

Result<AffinePoint> Secp256k1::parse(const Bytes &Data) const {
  if (Data.size() == 65 && Data[0] == 0x04) {
    std::array<uint8_t, 32> XB, YB;
    std::copy(Data.begin() + 1, Data.begin() + 33, XB.begin());
    std::copy(Data.begin() + 33, Data.end(), YB.begin());
    AffinePoint P = AffinePoint::make(U256::fromBytesBE(XB),
                                      U256::fromBytesBE(YB));
    if (!isOnCurve(P))
      return makeError("point is not on secp256k1");
    return P;
  }
  if (Data.size() == 33 && (Data[0] == 0x02 || Data[0] == 0x03)) {
    std::array<uint8_t, 32> XB;
    std::copy(Data.begin() + 1, Data.end(), XB.begin());
    U256 X = U256::fromBytesBE(XB);
    if (X >= Fp.modulus())
      return makeError("x coordinate out of range");
    // y^2 = x^3 + 7; p = 3 mod 4, so sqrt(a) = a^((p+1)/4).
    U256 Rhs = curveRhs(X);
    U256 Y = Fp.fromMont(sqrtCandidate(Fp, Fp.toMont(Rhs)));
    if (Fp.mul(Y, Y) != Rhs)
      return makeError("x coordinate has no square root (not on curve)");
    bool WantOdd = Data[0] == 0x03;
    if (Y.bit(0) != WantOdd)
      Y = Fp.neg(Y);
    return AffinePoint::make(X, Y);
  }
  return makeError("malformed SEC1 point encoding");
}

} // namespace crypto
} // namespace typecoin
