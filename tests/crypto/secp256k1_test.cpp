//===- tests/crypto/secp256k1_test.cpp - Curve group laws -----------------===//

#include "crypto/secp256k1.h"

#include "crypto/keys.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

const Secp256k1 &curve() { return Secp256k1::instance(); }

U256 randomScalar(Rng &Rand) {
  U256 Out;
  for (auto &Limb : Out.Limbs)
    Limb = Rand.next();
  return curve().scalar().reduce(Out);
}

Bytes compressed(uint8_t Prefix, const U256 &X) {
  auto XB = X.toBytesBE();
  Bytes Enc(33);
  Enc[0] = Prefix;
  std::copy(XB.begin(), XB.end(), Enc.begin() + 1);
  return Enc;
}

/// The decompression reference: a root of x^3 + 7 by the generic
/// exponentiation pow(x^3 + 7, (p+1)/4), or nullopt when there is none.
std::optional<U256> referenceRoot(const U256 &X) {
  const ModArith &Fp = curve().field();
  U256 Rhs = Fp.add(Fp.mul(Fp.mul(X, X), X), U256(7));
  U256 Exp = Fp.modulus();
  Exp.addInPlace(U256::one());
  Exp.shr1();
  Exp.shr1();
  U256 Y = Fp.pow(Rhs, Exp);
  if (Fp.mul(Y, Y) != Rhs)
    return std::nullopt;
  return Y;
}

TEST(Secp256k1, GeneratorOnCurve) {
  EXPECT_TRUE(curve().isOnCurve(curve().generator()));
}

TEST(Secp256k1, KnownDoubleG) {
  // 2G has a widely published x coordinate.
  AffinePoint TwoG = curve().multiplyBase(U256(2));
  EXPECT_EQ(TwoG.X.toHex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_TRUE(curve().isOnCurve(TwoG));
}

TEST(Secp256k1, OrderTimesGIsInfinity) {
  EXPECT_TRUE(curve().multiply(curve().order(), curve().generator()).Infinity);
}

TEST(Secp256k1, OrderMinusOneGIsNegG) {
  U256 NMinus1 = curve().order();
  NMinus1.subInPlace(U256::one());
  AffinePoint P = curve().multiplyBase(NMinus1);
  EXPECT_EQ(P, curve().negate(curve().generator()));
}

TEST(Secp256k1, AddCommutes) {
  Rng Rand(101);
  for (int I = 0; I < 10; ++I) {
    AffinePoint P = curve().multiplyBase(randomScalar(Rand));
    AffinePoint Q = curve().multiplyBase(randomScalar(Rand));
    EXPECT_EQ(curve().add(P, Q), curve().add(Q, P));
  }
}

TEST(Secp256k1, AddAssociates) {
  Rng Rand(103);
  for (int I = 0; I < 5; ++I) {
    AffinePoint P = curve().multiplyBase(randomScalar(Rand));
    AffinePoint Q = curve().multiplyBase(randomScalar(Rand));
    AffinePoint R = curve().multiplyBase(randomScalar(Rand));
    EXPECT_EQ(curve().add(curve().add(P, Q), R),
              curve().add(P, curve().add(Q, R)));
  }
}

TEST(Secp256k1, IdentityLaws) {
  Rng Rand(107);
  AffinePoint P = curve().multiplyBase(randomScalar(Rand));
  AffinePoint Inf = AffinePoint::infinity();
  EXPECT_EQ(curve().add(P, Inf), P);
  EXPECT_EQ(curve().add(Inf, P), P);
  EXPECT_TRUE(curve().add(P, curve().negate(P)).Infinity);
}

TEST(Secp256k1, ScalarMulLinearity) {
  // (k1 + k2) G == k1 G + k2 G.
  Rng Rand(109);
  for (int I = 0; I < 10; ++I) {
    U256 K1 = randomScalar(Rand), K2 = randomScalar(Rand);
    U256 Sum = curve().scalar().add(K1, K2);
    AffinePoint Lhs = curve().multiplyBase(Sum);
    AffinePoint Rhs =
        curve().add(curve().multiplyBase(K1), curve().multiplyBase(K2));
    EXPECT_EQ(Lhs, Rhs);
  }
}

TEST(Secp256k1, MultiplyDistributesOverPoint) {
  // k (P + Q) == kP + kQ.
  Rng Rand(113);
  U256 K = randomScalar(Rand);
  AffinePoint P = curve().multiplyBase(randomScalar(Rand));
  AffinePoint Q = curve().multiplyBase(randomScalar(Rand));
  EXPECT_EQ(curve().multiply(K, curve().add(P, Q)),
            curve().add(curve().multiply(K, P), curve().multiply(K, Q)));
}

TEST(Secp256k1, DoubleMultiplyMatchesSeparate) {
  Rng Rand(127);
  for (int I = 0; I < 10; ++I) {
    U256 A = randomScalar(Rand), B = randomScalar(Rand);
    AffinePoint P = curve().multiplyBase(randomScalar(Rand));
    AffinePoint Expect =
        curve().add(curve().multiplyBase(A), curve().multiply(B, P));
    EXPECT_EQ(curve().doubleMultiply(A, B, P), Expect);
  }
}

TEST(Secp256k1, SerializeParseCompressed) {
  Rng Rand(131);
  for (int I = 0; I < 20; ++I) {
    AffinePoint P = curve().multiplyBase(randomScalar(Rand));
    Bytes Enc = curve().serialize(P, /*Compressed=*/true);
    ASSERT_EQ(Enc.size(), 33u);
    auto Back = curve().parse(Enc);
    ASSERT_TRUE(Back.hasValue()) << Back.error().message();
    EXPECT_EQ(*Back, P);
  }
}

TEST(Secp256k1, SerializeParseUncompressed) {
  Rng Rand(137);
  AffinePoint P = curve().multiplyBase(randomScalar(Rand));
  Bytes Enc = curve().serialize(P, /*Compressed=*/false);
  ASSERT_EQ(Enc.size(), 65u);
  auto Back = curve().parse(Enc);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, P);
}

TEST(Secp256k1, ParseRejectsGarbage) {
  EXPECT_FALSE(curve().parse(Bytes{0x05, 0x01}).hasValue());
  Bytes OffCurve(65, 0x01);
  OffCurve[0] = 0x04;
  EXPECT_FALSE(curve().parse(OffCurve).hasValue());
}

TEST(Secp256k1, ParseRejectsXNotOnCurve) {
  // x = 5: 5^3 + 7 = 132 is not a square mod p, so neither prefix
  // decompresses.
  for (uint8_t Prefix : {0x02, 0x03})
    EXPECT_FALSE(curve().parse(compressed(Prefix, U256(5))).hasValue());
}

TEST(Secp256k1, DecompressMatchesPowReference) {
  // parse's fixed square-root chain and PublicKey::parse's Jacobi check
  // against the generic exponentiation, over random x under both
  // prefixes: a key is accepted exactly when x^3 + 7 has a root; then
  // parse decodes to that root of the asked parity, and the key keeps
  // the input bytes and decompresses to the same point.
  const ModArith &Fp = curve().field();
  Rng Rand(139);
  int Accepted = 0, Rejected = 0;
  for (int I = 0; I < 2000; ++I) {
    U256 X;
    for (auto &Limb : X.Limbs)
      Limb = Rand.next();
    X = Fp.reduce(X);
    std::optional<U256> Y = referenceRoot(X);
    ++(Y ? Accepted : Rejected);
    for (uint8_t Prefix : {0x02, 0x03}) {
      Bytes Enc = compressed(Prefix, X);
      auto R = curve().parse(Enc);
      auto Key = PublicKey::parse(Enc);
      ASSERT_EQ(R.hasValue(), Y.has_value()) << X.toHex();
      ASSERT_EQ(Key.hasValue(), Y.has_value()) << X.toHex();
      if (!Y)
        continue;
      AffinePoint Want = AffinePoint::make(
          X, Y->bit(0) == (Prefix == 0x03) ? *Y : Fp.neg(*Y));
      EXPECT_EQ(*R, Want) << X.toHex();
      EXPECT_EQ(Key->serialize(), Enc) << X.toHex();
      EXPECT_EQ(Key->point(), Want) << X.toHex();
    }
  }
  // About half of all x have a root; both outcomes must be exercised.
  EXPECT_GT(Accepted, 800);
  EXPECT_GT(Rejected, 800);
}

TEST(Secp256k1, DecompressEdges) {
  const ModArith &Fp = curve().field();
  const AffinePoint &G = curve().generator();
  // Each accepted encoding decodes to its point under both parsers, and
  // the key keeps the bytes.
  auto Accepts = [&](const Bytes &Enc, const AffinePoint &Want) {
    auto R = curve().parse(Enc);
    ASSERT_TRUE(R.hasValue()) << toHex(Enc);
    EXPECT_EQ(*R, Want) << toHex(Enc);
    auto Key = PublicKey::parse(Enc);
    ASSERT_TRUE(Key.hasValue()) << toHex(Enc);
    EXPECT_EQ(Key->serialize(), Enc) << toHex(Enc);
    EXPECT_EQ(Key->point(), Want) << toHex(Enc);
  };
  // G's y is even, so 02 selects G and 03 selects -G.
  Accepts(compressed(0x02, G.X), G);
  Accepts(compressed(0x03, G.X), curve().negate(G));
  // beta * Gx is the x of lambda * G, which shares G's (even) y.
  Accepts(compressed(0x02, Fp.mul(curve().endoBeta(), G.X)),
          curve().multiply(curve().endoLambda(), G));

  // x = 0, p - 1 and 5 have no root; x = p and 2^256 - 1 are out of
  // range. Neither parser accepts any of them under either prefix.
  U256 PMinus1 = Fp.modulus();
  PMinus1.subInPlace(U256::one());
  U256 AllOnes;
  for (auto &Limb : AllOnes.Limbs)
    Limb = UINT64_MAX;
  EXPECT_FALSE(referenceRoot(U256::zero()).has_value());
  EXPECT_FALSE(referenceRoot(PMinus1).has_value());
  EXPECT_FALSE(referenceRoot(U256(5)).has_value());
  for (const U256 &X :
       {U256::zero(), PMinus1, Fp.modulus(), AllOnes, U256(5)})
    for (uint8_t Prefix : {0x02, 0x03}) {
      EXPECT_FALSE(curve().parse(compressed(Prefix, X)).hasValue())
          << X.toHex();
      EXPECT_FALSE(PublicKey::parse(compressed(Prefix, X)).hasValue())
          << X.toHex();
    }

  // The hybrid prefixes 06/07 are refused, whether as 65-byte encodings
  // of G or on a 33-byte x.
  Bytes Full = curve().serialize(G, /*Compressed=*/false);
  for (uint8_t Prefix : {0x06, 0x07}) {
    Bytes Hybrid = Full;
    Hybrid[0] = Prefix;
    for (const Bytes &Enc : {Hybrid, compressed(Prefix, G.X)}) {
      EXPECT_FALSE(curve().parse(Enc).hasValue()) << toHex(Enc);
      EXPECT_FALSE(PublicKey::parse(Enc).hasValue()) << toHex(Enc);
    }
  }

  // The 65-byte encoding of G is accepted and stored as 02 || Gx.
  auto Key = PublicKey::parse(Full);
  ASSERT_TRUE(Key.hasValue());
  EXPECT_EQ(Key->serialize(), compressed(0x02, G.X));
  EXPECT_EQ(Key->point(), G);
  EXPECT_EQ(*Key, *PublicKey::parse(compressed(0x02, G.X)));
}

} // namespace
