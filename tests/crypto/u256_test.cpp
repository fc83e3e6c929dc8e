//===- tests/crypto/u256_test.cpp - 256-bit integers & modular math -------===//

#include "crypto/u256.h"

#include "support/rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

const char *const PHex =
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
const char *const NHex =
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141";

U256 fromHexOrDie(const std::string &Hex) {
  auto V = U256::fromHex(Hex);
  EXPECT_TRUE(V.hasValue()) << Hex;
  return *V;
}

U256 randomU256(Rng &Rand) {
  U256 Out;
  for (auto &Limb : Out.Limbs)
    Limb = Rand.next();
  return Out;
}

TEST(U256, HexRoundTrip) {
  U256 V = fromHexOrDie(
      "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  EXPECT_EQ(V.toHex(),
            "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256, BytesRoundTrip) {
  Rng Rand(42);
  for (int I = 0; I < 100; ++I) {
    U256 V = randomU256(Rand);
    EXPECT_EQ(U256::fromBytesBE(V.toBytesBE()), V);
  }
}

TEST(U256, CompareOrdering) {
  U256 A(5), B(7);
  EXPECT_LT(A, B);
  EXPECT_GT(B, A);
  EXPECT_EQ(A, U256(5));
  U256 HighBit;
  HighBit.Limbs[3] = 1;
  EXPECT_GT(HighBit, U256(UINT64_MAX));
}

TEST(U256, AddSubInverse) {
  Rng Rand(7);
  for (int I = 0; I < 200; ++I) {
    U256 A = randomU256(Rand), B = randomU256(Rand);
    U256 Sum = A;
    uint64_t Carry = Sum.addInPlace(B);
    U256 Back = Sum;
    uint64_t Borrow = Back.subInPlace(B);
    EXPECT_EQ(Back, A);
    EXPECT_EQ(Carry, Borrow); // Overflow happens iff it wraps back.
  }
}

TEST(U256, ShiftsAndBits) {
  U256 V(1);
  for (unsigned I = 0; I < 255; ++I) {
    EXPECT_TRUE(V.bit(I));
    EXPECT_EQ(V.bitLength(), I + 1);
    V.shl1();
  }
  EXPECT_EQ(V.bitLength(), 256u);
  V.shr1();
  EXPECT_EQ(V.bitLength(), 255u);
}

TEST(U256, BitLengthZero) { EXPECT_EQ(U256::zero().bitLength(), 0u); }

TEST(U256, MulWideSmall) {
  U512 P = mulWide(U256(0xffffffffffffffffULL), U256(2));
  EXPECT_EQ(P.Limbs[0], 0xfffffffffffffffeULL);
  EXPECT_EQ(P.Limbs[1], 1u);
  for (int I = 2; I < 8; ++I)
    EXPECT_EQ(P.Limbs[I], 0u);
}

TEST(U256, MulWideCommutes) {
  Rng Rand(11);
  for (int I = 0; I < 100; ++I) {
    U256 A = randomU256(Rand), B = randomU256(Rand);
    U512 P1 = mulWide(A, B), P2 = mulWide(B, A);
    for (int J = 0; J < 8; ++J)
      EXPECT_EQ(P1.Limbs[J], P2.Limbs[J]);
  }
}

TEST(U256, SqrWideMatchesMulWide) {
  // Carry-heavy edges: all-ones limbs, p - 1, n - 1 and a lone top bit;
  // then random values, a quarter of whose limbs are all ones.
  U256 Ones, TopBit;
  for (auto &Limb : Ones.Limbs)
    Limb = UINT64_MAX;
  TopBit.Limbs[3] = 1ull << 63;
  U256 PMinus1 = fromHexOrDie(PHex), NMinus1 = fromHexOrDie(NHex);
  PMinus1.subInPlace(U256::one());
  NMinus1.subInPlace(U256::one());
  std::vector<U256> Cases = {U256::zero(), U256::one(), Ones,
                             PMinus1,      NMinus1,     TopBit};
  Rng Rand(41);
  for (int I = 0; I < 1000; ++I) {
    U256 A;
    for (auto &Limb : A.Limbs)
      Limb = Rand.nextBelow(4) == 0 ? UINT64_MAX : Rand.next();
    Cases.push_back(A);
  }
  for (const U256 &A : Cases) {
    U512 Sqr = sqrWide(A), Mul = mulWide(A, A);
    for (int J = 0; J < 8; ++J)
      ASSERT_EQ(Sqr.Limbs[J], Mul.Limbs[J]) << A.toHex() << " limb " << J;
  }
}

class ModArithTest : public ::testing::TestWithParam<const char *> {
protected:
  ModArithTest() : M(fromHexOrDie(GetParam())), Arith(M) {}
  U256 M;
  ModArith Arith;
};

TEST_P(ModArithTest, MulMatchesRepeatedAdd) {
  // a * k (small k) equals a + a + ... + a.
  Rng Rand(13);
  for (int Trial = 0; Trial < 20; ++Trial) {
    U256 A = Arith.reduce(randomU256(Rand));
    uint64_t K = Rand.nextBelow(100) + 1;
    U256 Expect = U256::zero();
    for (uint64_t I = 0; I < K; ++I)
      Expect = Arith.add(Expect, A);
    EXPECT_EQ(Arith.mul(A, U256(K)), Expect);
  }
}

TEST_P(ModArithTest, MontRoundTrip) {
  Rng Rand(17);
  for (int I = 0; I < 100; ++I) {
    U256 A = Arith.reduce(randomU256(Rand));
    EXPECT_EQ(Arith.fromMont(Arith.toMont(A)), A);
  }
}

TEST_P(ModArithTest, MulAssociativeCommutative) {
  Rng Rand(19);
  for (int I = 0; I < 50; ++I) {
    U256 A = Arith.reduce(randomU256(Rand));
    U256 B = Arith.reduce(randomU256(Rand));
    U256 C = Arith.reduce(randomU256(Rand));
    EXPECT_EQ(Arith.mul(A, B), Arith.mul(B, A));
    EXPECT_EQ(Arith.mul(Arith.mul(A, B), C), Arith.mul(A, Arith.mul(B, C)));
  }
}

TEST_P(ModArithTest, DistributesOverAdd) {
  Rng Rand(23);
  for (int I = 0; I < 50; ++I) {
    U256 A = Arith.reduce(randomU256(Rand));
    U256 B = Arith.reduce(randomU256(Rand));
    U256 C = Arith.reduce(randomU256(Rand));
    EXPECT_EQ(Arith.mul(A, Arith.add(B, C)),
              Arith.add(Arith.mul(A, B), Arith.mul(A, C)));
  }
}

TEST_P(ModArithTest, InverseIsInverse) {
  Rng Rand(29);
  for (int I = 0; I < 30; ++I) {
    U256 A = Arith.reduce(randomU256(Rand));
    if (A.isZero())
      continue;
    EXPECT_EQ(Arith.mul(A, Arith.inverse(A)), U256::one());
  }
}

TEST_P(ModArithTest, NegIsAdditiveInverse) {
  Rng Rand(31);
  for (int I = 0; I < 50; ++I) {
    U256 A = Arith.reduce(randomU256(Rand));
    EXPECT_TRUE(Arith.add(A, Arith.neg(A)).isZero());
  }
}

TEST_P(ModArithTest, FermatLittleTheorem) {
  // a^(M-1) = 1 for prime M and nonzero a.
  Rng Rand(37);
  U256 Exp = M;
  Exp.subInPlace(U256::one());
  for (int I = 0; I < 10; ++I) {
    U256 A = Arith.reduce(randomU256(Rand));
    if (A.isZero())
      continue;
    EXPECT_EQ(Arith.pow(A, Exp), U256::one());
  }
}

TEST_P(ModArithTest, JacobiMatchesEulerCriterion) {
  // For prime M, (a / M) = a^((M-1)/2): 1 for a nonzero square, M - 1
  // for a non-square, 0 for a = 0. Both outcomes must be exercised.
  U256 Exp = M;
  Exp.subInPlace(U256::one());
  U256 MinusOne = Exp;
  Exp.shr1();
  Rng Rand(43);
  std::vector<U256> Cases = {U256::zero(), U256::one(), U256(2), M,
                             MinusOne};
  for (int I = 0; I < 300; ++I)
    Cases.push_back(Arith.reduce(randomU256(Rand)));
  int Squares = 0, NonSquares = 0;
  for (const U256 &A : Cases) {
    U256 Euler = Arith.pow(Arith.reduce(A), Exp);
    int Want = Euler.isZero() ? 0 : Euler == U256::one() ? 1 : -1;
    ASSERT_EQ(Arith.jacobi(A), Want) << A.toHex();
    ++(Want == 1 ? Squares : NonSquares);
  }
  EXPECT_GT(Squares, 100);
  EXPECT_GT(NonSquares, 100);
}

TEST(ModArith, JacobiOfCompositeModulus) {
  // M = 2^256 - 1 = 3 * 5 * 17 * 257 * ...: the symbol is 0 when a
  // shares a factor with M, and otherwise multiplicative in a without
  // marking squares. M = 7 mod 8 makes (2 / M) = 1.
  U256 M;
  for (auto &Limb : M.Limbs)
    Limb = UINT64_MAX;
  ModArith Arith(M);
  for (uint64_t Shared : {3, 5, 15, 17, 257})
    EXPECT_EQ(Arith.jacobi(U256(Shared)), 0) << Shared;
  EXPECT_EQ(Arith.jacobi(U256(2)), 1);
  EXPECT_EQ(Arith.jacobi(U256(4)), 1);
  // (7 / M) = -(M / 7) by reciprocity (both 3 mod 4), and M = 2^256 - 1
  // = 2 - 1 = 1 mod 7, so (7 / M) = -1.
  EXPECT_EQ(Arith.jacobi(U256(7)), -1);
  EXPECT_EQ(Arith.jacobi(U256(14)), -1);
}

TEST_P(ModArithTest, PowZeroExponent) {
  EXPECT_EQ(Arith.pow(U256(12345), U256::zero()), U256::one());
}

INSTANTIATE_TEST_SUITE_P(Secp256k1Moduli, ModArithTest,
                         ::testing::Values(PHex, NHex));

} // namespace
