//===- crypto/secp256k1.cpp - The secp256k1 elliptic curve ----------------===//

#include "crypto/secp256k1.h"

#include <algorithm>
#include <cassert>

namespace typecoin {
namespace crypto {

static U256 mustHex(const char *Hex) {
  auto V = U256::fromHex(Hex);
  assert(V && "bad builtin constant");
  return *V;
}

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

Secp256k1::Secp256k1()
    : Fn(mustHex(
          "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")),
      N(Fn.modulus()) {
  HalfN = N;
  HalfN.shr1();
  PMinusN = FieldElement::modulus();
  PMinusN.subInPlace(N);
  G = AffinePoint::make(mustHex(GxHex), mustHex(GyHex));
  assert(isOnCurve(G) && "generator must lie on the curve");
  Lambda = mustHex(LambdaHex);
  Beta = mustHex(BetaHex);
  BetaFe = FieldElement::fromU256(Beta);
  SplitG1 = mustHex(SplitG1Hex);
  SplitG2 = mustHex(SplitG2Hex);
  MinusB1 = mustHex(MinusB1Hex);
  MinusB2 = mustHex(MinusB2Hex);
  buildTables();
}

const Secp256k1 &Secp256k1::instance() {
  static const Secp256k1 Curve;
  return Curve;
}

bool Secp256k1::isOnCurve(const AffinePoint &P) const {
  if (P.Infinity)
    return true;
  const U256 &Prime = FieldElement::modulus();
  if (P.X >= Prime || P.Y >= Prime)
    return false;
  return FieldElement::fromU256(P.Y).sqr() ==
         curveRhs(FieldElement::fromU256(P.X));
}

bool Secp256k1::isCurveX(const U256 &X) const {
  // x^3 + 7 is never 0 mod p (the group has odd order, so no point has
  // y = 0), so this accepts exactly the x whose root parse finds.
  return X < FieldElement::modulus() &&
         curveRhs(FieldElement::fromU256(X)).jacobi() == 1;
}

Secp256k1::JacobianPoint Secp256k1::toJacobian(const AffinePoint &P) {
  if (P.Infinity)
    return JacobianPoint();
  return JacobianPoint{FieldElement::fromU256(P.X),
                       FieldElement::fromU256(P.Y), FieldElement(1), false};
}

AffinePoint Secp256k1::toAffine(const JacobianPoint &P) {
  if (P.Infinity)
    return AffinePoint::infinity();
  FieldElement ZInv = P.Z.inverse();
  FieldElement ZInv2 = ZInv.sqr();
  return AffinePoint::make((P.X * ZInv2).toU256(),
                           (P.Y * (ZInv2 * ZInv)).toU256());
}

Secp256k1::JacobianPoint Secp256k1::jacDouble(const JacobianPoint &P) {
  if (P.Infinity)
    return P;
  // libsecp256k1's gej_double: with L = (3/2)X^2, S = Y^2, T = -X*S,
  // X3 = L^2 + 2T, Y3 = -(L(X3 + T) + S^2), Z3 = Y*Z. (Z3 = 2YZ in
  // dbl-2009-l; this representative differs by 2 in Z, the same point.)
  // Magnitudes in brackets.
  JacobianPoint R;
  R.Infinity = false;
  R.Z = P.Z * P.Y;                               // [1]
  FieldElement S = P.Y.sqr();                    // [1]
  FieldElement L = P.X.sqr().mulInt(3).half();   // [2]
  FieldElement T = S.neg(1) * P.X;               // [1]
  R.X = L.sqr() + T + T;                         // [3]
  T += R.X;                                      // [4]
  R.Y = (T * L + S.sqr()).neg(2);                // [3]
  return R;
}

Secp256k1::JacobianPoint Secp256k1::jacAdd(const JacobianPoint &P,
                                           const JacobianPoint &Q) {
  if (P.Infinity)
    return Q;
  if (Q.Infinity)
    return P;
  // libsecp256k1's gej_add_var, with H = U2 - U1 and I = S1 - S2.
  FieldElement Z22 = Q.Z.sqr();
  FieldElement Z12 = P.Z.sqr();
  FieldElement U1 = P.X * Z22;
  FieldElement U2 = Q.X * Z12;
  FieldElement S1 = P.Y * Z22 * Q.Z;
  FieldElement S2 = Q.Y * Z12 * P.Z;
  FieldElement H = U1.neg(1) + U2;               // [3]
  FieldElement I = S2.neg(1) + S1;               // [3]
  if (H.isZero())
    return I.isZero() ? jacDouble(P) : JacobianPoint();
  JacobianPoint R;
  R.Infinity = false;
  R.Z = P.Z * (H * Q.Z);
  FieldElement H2 = H.sqr().neg(1);              // [2] -H^2
  FieldElement H3 = H2 * H;                      // [1] -H^3
  FieldElement T = U1 * H2;                      // [1] -U1*H^2
  R.X = I.sqr() + H3 + T + T;                    // [4]
  T += R.X;                                      // [5]
  R.Y = T * I + H3 * S1;                         // [2]
  return R;
}

Secp256k1::JacobianPoint Secp256k1::jacAddMixed(const JacobianPoint &P,
                                                const AffineFe &Q,
                                                FieldElement *Zr) {
  if (P.Infinity) {
    assert(!Zr && "no Z ratio from infinity");
    return JacobianPoint{Q.X, Q.Y, FieldElement(1), false};
  }
  // libsecp256k1's gej_add_ge_var: Q has Z = 1, so U1 = X1, S1 = Y1;
  // H = U2 - U1 and I = S1 - S2.
  FieldElement Z12 = P.Z.sqr();
  FieldElement U2 = Q.X * Z12;
  FieldElement S2 = Q.Y * Z12 * P.Z;
  FieldElement H = P.X.neg(4) + U2;              // [6]
  FieldElement I = S2.neg(1) + P.Y;              // [6]
  if (H.isZero()) {
    assert(!Zr && "odd-multiple chain degenerated");
    return I.isZero() ? jacDouble(P) : JacobianPoint();
  }
  if (Zr)
    *Zr = H;
  JacobianPoint R;
  R.Infinity = false;
  R.Z = P.Z * H;
  FieldElement H2 = H.sqr().neg(1);              // [2] -H^2
  FieldElement H3 = H2 * H;                      // [1] -H^3
  FieldElement T = P.X * H2;                     // [1] -U1*H^2
  R.X = I.sqr() + H3 + T + T;                    // [4]
  T += R.X;                                      // [5]
  R.Y = T * I + H3 * P.Y;                        // [2]
  return R;
}

Secp256k1::JacobianPoint Secp256k1::jacMultiply(const U256 &K,
                                                const JacobianPoint &P) {
  JacobianPoint Acc;
  unsigned Bits = K.bitLength();
  for (int I = static_cast<int>(Bits) - 1; I >= 0; --I) {
    Acc = jacDouble(Acc);
    if (K.bit(static_cast<unsigned>(I)))
      Acc = jacAdd(Acc, P);
  }
  return Acc;
}

Secp256k1::AffineFe Secp256k1::negateEntry(const AffineFe &P) {
  return AffineFe{P.X, P.Y.neg(1)};
}

Secp256k1::AffineFe Secp256k1::endoEntry(const AffineFe &P) const {
  return AffineFe{BetaFe * P.X, P.Y};
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
                          const std::vector<AffineFe> &T) const {
  if (D == 0)
    return;
  bool Minus = (D < 0) != Neg;
  const AffineFe &E = T[static_cast<unsigned>(D < 0 ? -D : D) >> 1];
  Acc = jacAddMixed(Acc, Minus ? negateEntry(E) : E);
}

void Secp256k1::strausAddScaled(JacobianPoint &Acc, int D, bool Neg,
                                const std::vector<AffineFe> &T,
                                const FieldElement &Z2,
                                const FieldElement &Z3) const {
  if (D == 0)
    return;
  bool Minus = (D < 0) != Neg;
  const AffineFe &E = T[static_cast<unsigned>(D < 0 ? -D : D) >> 1];
  AffineFe S{E.X * Z2, E.Y * Z3};
  Acc = jacAddMixed(Acc, Minus ? negateEntry(S) : S);
}

std::vector<Secp256k1::AffineFe>
Secp256k1::normalizeBatch(const std::vector<JacobianPoint> &Pts) {
  // Montgomery's trick: one inversion for the whole batch via running
  // prefix products of the Z coordinates.
  size_t Count = Pts.size();
  std::vector<FieldElement> Prefix(Count);
  FieldElement Run(1);
  for (size_t I = 0; I < Count; ++I) {
    assert(!Pts[I].Infinity && "cannot normalize the point at infinity");
    Run = Run * Pts[I].Z;
    Prefix[I] = Run;
  }
  FieldElement Inv = Run.inverse();
  std::vector<AffineFe> Out(Count);
  for (size_t I = Count; I-- > 0;) {
    FieldElement ZInv = I == 0 ? Inv : Inv * Prefix[I - 1];
    Inv = Inv * Pts[I].Z;
    FieldElement ZInv2 = ZInv.sqr();
    Out[I] = AffineFe{Pts[I].X * ZInv2, Pts[I].Y * (ZInv2 * ZInv)};
  }
  return Out;
}

void Secp256k1::oddMultiples(const JacobianPoint &P,
                             std::vector<AffineFe> &Table) {
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
                                    std::vector<AffineFe> &Table,
                                    FieldElement &IsoZ) {
  // Work on the curve isomorphic by u = Z(2P): there 2P is affine and P
  // lifts by u^2/u^3, so the odd-multiple chain runs on mixed additions
  // whose Z ratios we record. A backward pass of ratio products then
  // rescales every entry to the last entry's denominator — Montgomery's
  // trick without the inversion. True coordinates are recovered by
  // folding IsoZ = Z_last * u into the caller's final Z.
  size_t Count = Table.size();
  JacobianPoint D = jacDouble(P);
  AffineFe D2{D.X, D.Y};
  FieldElement U2 = D.Z.sqr();
  std::vector<JacobianPoint> J(Count);
  std::vector<FieldElement> Zr(Count);
  J[0] = JacobianPoint{P.X * U2, P.Y * (U2 * D.Z), P.Z, false};
  for (size_t I = 1; I < Count; ++I)
    J[I] = jacAddMixed(J[I - 1], D2, &Zr[I]);
  Table[Count - 1] = AffineFe{J[Count - 1].X, J[Count - 1].Y};
  Table[Count - 1].Y.normalize(); // Magnitude 1, for negateEntry.
  FieldElement C(1);
  for (size_t I = Count - 1; I-- > 0;) {
    C = C * Zr[I + 1];
    FieldElement C2 = C.sqr();
    Table[I] = AffineFe{J[I].X * C2, J[I].Y * (C2 * C)};
  }
  IsoZ = J[Count - 1].Z * D.Z;
}

void Secp256k1::buildTables() {
  JacobianPoint JG = toJacobian(G);
  GOdd.resize(1u << (GWnafWidth - 2)); // Odd multiples 1..2^(w-1)-1.
  oddMultiples(JG, GOdd);
  GLamOdd.reserve(GOdd.size());
  for (const AffineFe &E : GOdd)
    GLamOdd.push_back(endoEntry(E));

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
  return AffinePoint::make(P.X, FieldElement::fromU256(P.Y).neg(1).toU256());
}

AffinePoint Secp256k1::multiply(const U256 &K, const AffinePoint &P) const {
  U256 KRed = K >= N ? Fn.reduce(K) : K;
  if (KRed.isZero() || P.Infinity)
    return AffinePoint::infinity();
  // GLV: k*P = k1*P + k2*phi(P) on one ~128-doubling Straus ladder,
  // with the per-call table on a shared-denominator iso-curve so the
  // whole call performs a single inversion (the final toAffine).
  std::vector<AffineFe> Odd(1u << (PWnafWidth - 2));
  FieldElement IsoZ;
  oddMultiplesGlobalZ(toJacobian(P), Odd, IsoZ);
  std::vector<AffineFe> OddLam;
  OddLam.reserve(Odd.size());
  for (const AffineFe &E : Odd)
    OddLam.push_back(endoEntry(E));
  SplitScalar S = splitLambda(KRed);
  int16_t D1[MaxWnafLen], D2[MaxWnafLen];
  unsigned L1 = wnafDigits(S.K1, PWnafWidth, D1);
  unsigned L2 = wnafDigits(S.K2, PWnafWidth, D2);
  JacobianPoint Acc;
  for (unsigned I = std::max(L1, L2); I-- > 0;) {
    Acc = jacDouble(Acc);
    if (I < L1)
      strausAdd(Acc, D1[I], S.Neg1, Odd);
    if (I < L2)
      strausAdd(Acc, D2[I], S.Neg2, OddLam);
  }
  Acc.Z = Acc.Z * IsoZ; // Leave the iso-curve.
  return toAffine(Acc);
}

AffinePoint Secp256k1::multiplyBase(const U256 &K) const {
  U256 KRed = K >= N ? Fn.reduce(K) : K;
  if (KRed.isZero())
    return AffinePoint::infinity();
  // One mixed addition per nonzero window; no doublings at all.
  unsigned Mask = (1u << CombW) - 1;
  JacobianPoint Acc;
  for (unsigned Off = 0, B = 0; Off < 256; Off += CombW, ++B) {
    unsigned Digit = windowAt(KRed, Off, CombW);
    if (Digit != 0)
      Acc = jacAddMixed(Acc, Comb[static_cast<size_t>(B) * Mask + Digit - 1]);
  }
  return toAffine(Acc);
}

Secp256k1::JacobianPoint Secp256k1::strausLadder(const U256 &A, const U256 &B,
                                                 const AffinePoint &P) const {
  // Straus over four GLV halves on one ~128-doubling ladder: the G
  // halves read the wide precomputed GOdd/phi(GOdd) tables (width 8),
  // the P halves a small per-call table and its phi image (width 5).
  // The ladder runs on the per-call table's iso-curve (inversion-free
  // construction); G entries are rescaled onto it at lookup time.
  std::vector<AffineFe> POdd(1u << (PWnafWidth - 2));
  FieldElement IsoZ;
  oddMultiplesGlobalZ(toJacobian(P), POdd, IsoZ);
  std::vector<AffineFe> POddLam;
  POddLam.reserve(POdd.size());
  for (const AffineFe &E : POdd)
    POddLam.push_back(endoEntry(E));
  FieldElement IsoZ2 = IsoZ.sqr();
  FieldElement IsoZ3 = IsoZ2 * IsoZ;
  SplitScalar SA = splitLambda(A);
  SplitScalar SB = splitLambda(B);
  int16_t DA1[MaxWnafLen], DA2[MaxWnafLen], DB1[MaxWnafLen], DB2[MaxWnafLen];
  unsigned LA1 = wnafDigits(SA.K1, GWnafWidth, DA1);
  unsigned LA2 = wnafDigits(SA.K2, GWnafWidth, DA2);
  unsigned LB1 = wnafDigits(SB.K1, PWnafWidth, DB1);
  unsigned LB2 = wnafDigits(SB.K2, PWnafWidth, DB2);
  JacobianPoint Acc;
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
  Acc.Z = Acc.Z * IsoZ; // Leave the iso-curve.
  return Acc;
}

AffinePoint Secp256k1::doubleMultiply(const U256 &A, const U256 &B,
                                      const AffinePoint &P) const {
  U256 ARed = A >= N ? Fn.reduce(A) : A;
  U256 BRed = B >= N ? Fn.reduce(B) : B;
  if (P.Infinity || BRed.isZero())
    return multiplyBase(ARed);
  return toAffine(strausLadder(ARed, BRed, P));
}

bool Secp256k1::doubleMultiplyHasX(const U256 &A, const U256 &B,
                                   const AffinePoint &P, const U256 &R) const {
  if (R >= N)
    return false;
  U256 ARed = A >= N ? Fn.reduce(A) : A;
  U256 BRed = B >= N ? Fn.reduce(B) : B;
  if (P.Infinity || BRed.isZero()) {
    AffinePoint Q = multiplyBase(ARed);
    return !Q.Infinity && Fn.reduce(Q.X) == R;
  }
  JacobianPoint Q = strausLadder(ARed, BRed, P);
  if (Q.Infinity)
    return false;
  FieldElement Z2 = Q.Z.sqr();
  if (FieldElement::fromU256(R) * Z2 == Q.X)
    return true;
  if (R >= PMinusN)
    return false;
  U256 RPlusN = R;
  RPlusN.addInPlace(N);
  return FieldElement::fromU256(RPlusN) * Z2 == Q.X;
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
  JacobianPoint Acc;
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
    if (X >= FieldElement::modulus())
      return makeError("x coordinate out of range");
    // y^2 = x^3 + 7; p = 3 mod 4, so sqrt(a) = a^((p+1)/4).
    std::optional<FieldElement> Y = curveRhs(FieldElement::fromU256(X)).sqrt();
    if (!Y)
      return makeError("x coordinate has no square root (not on curve)");
    Y->normalize();
    bool WantOdd = Data[0] == 0x03;
    if (Y->isOdd() != WantOdd)
      Y = Y->neg(1);
    return AffinePoint::make(X, Y->toU256());
  }
  return makeError("malformed SEC1 point encoding");
}

} // namespace crypto
} // namespace typecoin
