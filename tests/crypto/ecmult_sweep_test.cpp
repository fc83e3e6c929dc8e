//===- tests/crypto/ecmult_sweep_test.cpp - Table vs naive scalar mult ----===//
//
// Property sweep for the table-driven scalar-multiplication paths
// (ROADMAP item 4c): wNAF `multiply`, comb `multiplyBase`, and the
// Straus `doubleMultiply` must agree bit-for-bit with the reference
// double-and-add ladders on random scalars/points and on every edge
// operand (0, 1, n-1, values >= n, the point at infinity). The sweep
// size defaults to 128 cases and grows to 1000 when TYPECOIN_SWEEP_FULL
// is set (the sanitize CI job sets it, so the full sweep runs under
// ASan/UBSan).
//
//===----------------------------------------------------------------------===//

#include "crypto/secp256k1.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace typecoin {
namespace crypto {
namespace {

size_t sweepSize() {
  return std::getenv("TYPECOIN_SWEEP_FULL") ? 1000 : 128;
}

U256 randomU256(Rng &R) {
  U256 Out;
  for (int I = 0; I < 4; ++I)
    Out.Limbs[I] = R.next();
  return Out;
}

/// Slow reference modular multiply: double-and-add over additions only,
/// independent of both the Montgomery reducer and the 5x52 field.
U256 shiftAddMul(const ModArith &F, const U256 &A, const U256 &B) {
  U256 Acc = U256::zero();
  for (int I = 255; I >= 0; --I) {
    Acc = F.add(Acc, Acc);
    if (B.bit(static_cast<unsigned>(I)))
      Acc = F.add(Acc, A);
  }
  return Acc;
}

TEST(EcmultSweep, FieldMulMatchesShiftAdd) {
  const Secp256k1 &C = Secp256k1::instance();
  Rng R(0xf1e1d);
  for (size_t I = 0; I < 64; ++I) {
    U256 A = C.field().reduce(randomU256(R));
    U256 B = C.field().reduce(randomU256(R));
    FieldElement Fa = FieldElement::fromU256(A);
    FieldElement Fb = FieldElement::fromU256(B);
    EXPECT_EQ((Fa * Fb).toU256(), shiftAddMul(C.field(), A, B));
    EXPECT_EQ(Fa.sqr().toU256(), shiftAddMul(C.field(), A, A));
    U256 As = C.scalar().reduce(A);
    U256 Bs = C.scalar().reduce(B);
    EXPECT_EQ(C.scalar().mul(As, Bs), shiftAddMul(C.scalar(), As, Bs));
  }
}

TEST(EcmultSweep, RandomScalarsMatchNaive) {
  const Secp256k1 &C = Secp256k1::instance();
  Rng R(0x5eed5eed);
  size_t Cases = sweepSize();
  for (size_t I = 0; I < Cases; ++I) {
    U256 K = C.scalar().reduce(randomU256(R));
    U256 A = C.scalar().reduce(randomU256(R));
    AffinePoint P = C.multiplyBase(C.scalar().reduce(randomU256(R)));
    ASSERT_FALSE(P.Infinity);
    EXPECT_EQ(C.multiply(K, P), C.multiplyNaive(K, P)) << "case " << I;
    EXPECT_EQ(C.multiplyBase(K), C.multiplyNaive(K, C.generator()))
        << "case " << I;
    EXPECT_EQ(C.doubleMultiply(A, K, P), C.doubleMultiplyNaive(A, K, P))
        << "case " << I;
  }
}

TEST(EcmultSweep, EdgeScalars) {
  const Secp256k1 &C = Secp256k1::instance();
  U256 NMinus1 = C.order();
  NMinus1.subInPlace(U256::one());
  U256 NPlus1 = C.order();
  NPlus1.addInPlace(U256::one());
  U256 HighBit;
  HighBit.Limbs[3] = 1ull << 63;
  const U256 Edges[] = {U256::zero(), U256::one(),   U256(2),
                        NMinus1,      C.order(),     NPlus1,
                        HighBit,      C.halfOrder()};
  Rng R(0xedce);
  AffinePoint P = C.multiplyBase(C.scalar().reduce(randomU256(R)));
  for (const U256 &K : Edges) {
    EXPECT_EQ(C.multiply(K, P), C.multiplyNaive(K, P)) << K.toHex();
    EXPECT_EQ(C.multiplyBase(K), C.multiplyNaive(K, C.generator()))
        << K.toHex();
    for (const U256 &A : Edges)
      EXPECT_EQ(C.doubleMultiply(A, K, P),
                C.add(C.multiplyNaive(A, C.generator()), C.multiplyNaive(K, P)))
          << A.toHex() << " / " << K.toHex();
  }
  // k*n = infinity; (n-1)*P = -P.
  EXPECT_TRUE(C.multiply(C.order(), P).Infinity);
  EXPECT_EQ(C.multiply(NMinus1, P), C.negate(P));
}

TEST(EcmultSweep, InfinityOperands) {
  const Secp256k1 &C = Secp256k1::instance();
  AffinePoint Inf = AffinePoint::infinity();
  Rng R(0x1f1f);
  U256 A = C.scalar().reduce(randomU256(R));
  U256 B = C.scalar().reduce(randomU256(R));
  EXPECT_TRUE(C.multiply(A, Inf).Infinity);
  EXPECT_TRUE(C.multiplyNaive(A, Inf).Infinity);
  EXPECT_EQ(C.doubleMultiply(A, B, Inf), C.multiplyBase(A));
  EXPECT_EQ(C.doubleMultiply(U256::zero(), B, Inf), Inf);
  EXPECT_TRUE(C.multiply(U256::zero(), Inf).Infinity);
}

TEST(EcmultSweep, EndomorphismConstants) {
  // The GLV split leans on lambda/beta being matching cube roots of 1:
  // lambda^3 = 1 mod n, beta^3 = 1 mod p (both nontrivial), and
  // lambda*(x, y) = (beta*x, y) as group elements.
  const Secp256k1 &C = Secp256k1::instance();
  const U256 &L = C.endoLambda();
  const U256 &B = C.endoBeta();
  EXPECT_NE(L, U256::one());
  EXPECT_NE(B, U256::one());
  EXPECT_EQ(C.scalar().mul(C.scalar().mul(L, L), L), U256::one());
  EXPECT_EQ(C.field().mul(C.field().mul(B, B), B), U256::one());
  Rng R(0x61f);
  for (int I = 0; I < 8; ++I) {
    AffinePoint P = C.multiplyBase(C.scalar().reduce(randomU256(R)));
    AffinePoint Phi = AffinePoint::make(C.field().mul(B, P.X), P.Y);
    EXPECT_TRUE(C.isOnCurve(Phi));
    EXPECT_EQ(C.multiplyNaive(L, P), Phi);
  }
}

} // namespace
} // namespace crypto
} // namespace typecoin
