//===- tests/crypto/verify_oracle_test.cpp - Jacobian r check vs affine ---===//
//
// ecdsaVerify compares r with the Straus ladder's result in Jacobian
// coordinates: it accepts when r*Z^2 = X, or when r + n < p and
// (r + n)*Z^2 = X. The oracle here is the affine reference: the same
// range checks, then doubleMultiply, then x mod n == r. The two must
// agree on every (key, hash, signature) triple:
//
//  * random triples (2000, or 5000 when TYPECOIN_SWEEP_FULL is set):
//    valid signatures, random (r, s), wrong keys and r + 1;
//  * edge cases: r +- 1, a replaced s, the all-zero hash (u1 = 0),
//    P = G and P = -G;
//  * u1*G + u2*P = infinity, which both must reject;
//  * the r-wrap: points R whose x lies in [n, p), so that the signature
//    carries r = x(R) - n and only the (r + n) comparison accepts it.
//
//===----------------------------------------------------------------------===//

#include "crypto/ecdsa.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

const Secp256k1 &curve() { return Secp256k1::instance(); }
const ModArith &fn() { return curve().scalar(); }

size_t sweepSize() {
  return std::getenv("TYPECOIN_SWEEP_FULL") ? 5000 : 2000;
}

U256 randomU256(Rng &R) {
  U256 Out;
  for (auto &Limb : Out.Limbs)
    Limb = R.next();
  return Out;
}

/// A uniform scalar in [1, n).
U256 randomScalar(Rng &R) {
  for (;;) {
    U256 K = fn().reduce(randomU256(R));
    if (!K.isZero())
      return K;
  }
}

Digest32 randomHash(Rng &R) { return randomU256(R).toBytesBE(); }

/// The affine reference verifier.
bool referenceVerify(const AffinePoint &Key, const Digest32 &Hash,
                     const Signature &Sig) {
  if (Key.Infinity || !curve().isOnCurve(Key))
    return false;
  const U256 &N = curve().order();
  if (Sig.R.isZero() || Sig.R >= N || Sig.S.isZero() || Sig.S >= N)
    return false;
  U256 Z = fn().reduce(U256::fromBytesBE(Hash));
  U256 W = fn().inverse(Sig.S);
  AffinePoint P = curve().doubleMultiply(fn().mul(Z, W), fn().mul(Sig.R, W),
                                         Key);
  return !P.Infinity && fn().reduce(P.X) == Sig.R;
}

/// ecdsaVerify's verdict, after checking that the reference agrees.
bool verified(const AffinePoint &Key, const Digest32 &Hash,
              const Signature &Sig) {
  bool Got = ecdsaVerify(Key, Hash, Sig);
  EXPECT_EQ(Got, referenceVerify(Key, Hash, Sig))
      << "r=" << Sig.R.toHex() << " s=" << Sig.S.toHex()
      << " key.x=" << Key.X.toHex();
  return Got;
}

U256 plus(U256 V, uint64_t K) {
  V.addInPlace(U256(K));
  return V;
}

TEST(VerifyOracle, RandomTriplesMatchAffineReference) {
  Rng R(0x0eac1e);
  size_t Cases = sweepSize(), Accepted = 0;
  for (size_t I = 0; I < Cases; ++I) {
    U256 D = randomScalar(R);
    AffinePoint Key = curve().multiplyBase(D);
    Digest32 Hash = randomHash(R);
    Signature Sig = ecdsaSign(D, Hash);
    switch (I % 4) {
    case 0: // Valid.
      EXPECT_TRUE(verified(Key, Hash, Sig)) << "case " << I;
      break;
    case 1: // Random (r, s).
      Sig = Signature{randomScalar(R), randomScalar(R)};
      break;
    case 2: // Another key.
      Key = curve().multiplyBase(randomScalar(R));
      break;
    case 3: // r + 1.
      Sig.R = fn().add(Sig.R, U256::one());
      break;
    }
    Accepted += verified(Key, Hash, Sig);
  }
  // Every valid case accepts; a forgery among the rest would be news.
  EXPECT_EQ(Accepted, (Cases + 3) / 4);
}

TEST(VerifyOracle, EdgeCases) {
  Rng R(0xed6e);
  U256 NMinus1 = curve().order();
  NMinus1.subInPlace(U256::one());
  // P = G, P = -G and a random key.
  for (const U256 &D : {U256::one(), NMinus1, randomScalar(R)}) {
    AffinePoint Key = curve().multiplyBase(D);
    for (const Digest32 &Hash : {randomHash(R), Digest32{}}) {
      Signature Sig = ecdsaSign(D, Hash);
      EXPECT_TRUE(verified(Key, Hash, Sig)) << D.toHex();
      // The high-S twin is algebraically valid too.
      EXPECT_TRUE(verified(Key, Hash, Signature{Sig.R, fn().neg(Sig.S)}));
      // r +- 1.
      EXPECT_FALSE(verified(Key, Hash,
                            Signature{fn().add(Sig.R, U256::one()), Sig.S}));
      EXPECT_FALSE(verified(Key, Hash,
                            Signature{fn().sub(Sig.R, U256::one()), Sig.S}));
      // A replaced s.
      EXPECT_FALSE(verified(Key, Hash,
                            Signature{Sig.R, fn().add(Sig.S, U256::one())}));
      EXPECT_FALSE(verified(Key, Hash, Signature{Sig.R, randomScalar(R)}));
      // r or s out of range.
      EXPECT_FALSE(verified(Key, Hash, Signature{Sig.R, U256()}));
      EXPECT_FALSE(verified(Key, Hash, Signature{curve().order(), Sig.S}));
      // The same signature under the negated key. With u1 = 0 (the zero
      // hash) the point is u2*P, and -P yields its negation, which has
      // the same x: then the signature verifies under both keys.
      EXPECT_EQ(verified(curve().negate(Key), Hash, Sig), Hash == Digest32{});
    }
  }
}

TEST(VerifyOracle, RejectsPointAtInfinity) {
  // With P = -(z/r)*G, u1*G + u2*P = (z/s)*G - (r/s)(z/r)*G = infinity,
  // for any s. Both verifiers must reject rather than read an x.
  Rng R(0x1f1f);
  for (int I = 0; I < 16; ++I) {
    Digest32 Hash = randomHash(R);
    U256 Z = fn().reduce(U256::fromBytesBE(Hash));
    ASSERT_FALSE(Z.isZero());
    Signature Sig{randomScalar(R), randomScalar(R)};
    AffinePoint Key =
        curve().multiplyBase(fn().neg(fn().mul(Z, fn().inverse(Sig.R))));
    U256 W = fn().inverse(Sig.S);
    ASSERT_TRUE(curve()
                    .doubleMultiply(fn().mul(Z, W), fn().mul(Sig.R, W), Key)
                    .Infinity);
    EXPECT_FALSE(verified(Key, Hash, Sig));
  }
}

TEST(VerifyOracle, RWrapsAroundN) {
  // For R with x(R) in [n, p), a signature names r = x(R) - n. Pick
  // u1 = z/s and u2 = r/s, and solve for the key that puts the ladder
  // on R: P = u2^-1 * (R - u1*G). Then r verifies, and r + 1 must not.
  Rng R(0x3a9);
  const U256 &N = curve().order();
  int Points = 0;
  bool SawNPlus2 = false;
  for (uint64_t K = 1; Points < 5; ++K) {
    U256 X = plus(N, K);
    if (!curve().isCurveX(X))
      continue;
    ++Points;
    SawNPlus2 |= K == 2;
    Bytes Enc(33);
    Enc[0] = R.nextBool(0.5) ? 0x03 : 0x02;
    auto XB = X.toBytesBE();
    std::copy(XB.begin(), XB.end(), Enc.begin() + 1);
    AffinePoint RPoint = *curve().parse(Enc);
    U256 Rv = U256(K); // x(R) - n.
    Digest32 Hash = randomHash(R);
    U256 Z = fn().reduce(U256::fromBytesBE(Hash));
    U256 S = randomScalar(R);
    U256 W = fn().inverse(S);
    U256 U1 = fn().mul(Z, W), U2 = fn().mul(Rv, W);
    AffinePoint Key = curve().multiply(
        fn().inverse(U2),
        curve().add(RPoint, curve().negate(curve().multiplyBase(U1))));
    ASSERT_EQ(curve().doubleMultiply(U1, U2, Key), RPoint) << X.toHex();
    EXPECT_TRUE(verified(Key, Hash, Signature{Rv, S})) << X.toHex();
    EXPECT_FALSE(verified(Key, Hash, Signature{plus(Rv, 1), S})) << X.toHex();
    // x(R) itself is not a residue mod n, so it never verifies.
    EXPECT_FALSE(verified(Key, Hash, Signature{X, S})) << X.toHex();
  }
  EXPECT_TRUE(SawNPlus2);
}

} // namespace
