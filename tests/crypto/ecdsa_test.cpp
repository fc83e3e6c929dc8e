//===- tests/crypto/ecdsa_test.cpp - ECDSA sign/verify --------------------===//

#include "crypto/ecdsa.h"

#include "crypto/keys.h"
#include "support/rng.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return PrivateKey::generate(Rand);
}

Digest32 hashOf(const std::string &Msg) { return sha256(bytesOfString(Msg)); }

TEST(Ecdsa, SignVerifyRoundTrip) {
  PrivateKey Key = keyFromSeed(1);
  Digest32 H = hashOf("affine commitment");
  Signature Sig = Key.sign(H);
  EXPECT_TRUE(Key.publicKey().verify(H, Sig));
}

TEST(Ecdsa, RejectsWrongMessage) {
  PrivateKey Key = keyFromSeed(2);
  Signature Sig = Key.sign(hashOf("message one"));
  EXPECT_FALSE(Key.publicKey().verify(hashOf("message two"), Sig));
}

TEST(Ecdsa, RejectsWrongKey) {
  PrivateKey KeyA = keyFromSeed(3), KeyB = keyFromSeed(4);
  Digest32 H = hashOf("who signed this?");
  Signature Sig = KeyA.sign(H);
  EXPECT_FALSE(KeyB.publicKey().verify(H, Sig));
}

TEST(Ecdsa, DeterministicSignatures) {
  // RFC 6979: the same key+hash gives the same (r, s) every time.
  PrivateKey Key = keyFromSeed(5);
  Digest32 H = hashOf("deterministic");
  Signature S1 = Key.sign(H), S2 = Key.sign(H);
  EXPECT_EQ(S1.R, S2.R);
  EXPECT_EQ(S1.S, S2.S);
}

TEST(Ecdsa, DistinctMessagesDistinctNonces) {
  PrivateKey Key = keyFromSeed(6);
  U256 N1 = rfc6979Nonce(Key.scalar(), hashOf("a"));
  U256 N2 = rfc6979Nonce(Key.scalar(), hashOf("b"));
  EXPECT_NE(N1, N2);
}

TEST(Ecdsa, LowSNormalization) {
  const Secp256k1 &Curve = Secp256k1::instance();
  Rng Rand(7);
  for (int I = 0; I < 20; ++I) {
    PrivateKey Key = PrivateKey::generate(Rand);
    Digest32 H = hashOf("msg " + std::to_string(I));
    Signature Sig = Key.sign(H);
    EXPECT_LE(Sig.S, Curve.halfOrder());
  }
}

TEST(Ecdsa, HighSVariantStillAlgebraicallyValid) {
  // (r, n - s) verifies under raw ECDSA; Bitcoin policy prefers low-S but
  // the math accepts both.
  const Secp256k1 &Curve = Secp256k1::instance();
  PrivateKey Key = keyFromSeed(8);
  Digest32 H = hashOf("malleable");
  Signature Sig = Key.sign(H);
  Signature High{Sig.R, Curve.scalar().neg(Sig.S)};
  EXPECT_TRUE(Key.publicKey().verify(H, High));
}

TEST(Ecdsa, RejectsZeroAndOverflowScalars) {
  PrivateKey Key = keyFromSeed(9);
  Digest32 H = hashOf("bounds");
  Signature Sig = Key.sign(H);
  EXPECT_FALSE(Key.publicKey().verify(H, Signature{U256::zero(), Sig.S}));
  EXPECT_FALSE(Key.publicKey().verify(H, Signature{Sig.R, U256::zero()}));
  EXPECT_FALSE(Key.publicKey().verify(
      H, Signature{Secp256k1::instance().order(), Sig.S}));
}

TEST(Ecdsa, DerRoundTrip) {
  Rng Rand(10);
  for (int I = 0; I < 50; ++I) {
    PrivateKey Key = PrivateKey::generate(Rand);
    Digest32 H = hashOf("der " + std::to_string(I));
    Signature Sig = Key.sign(H);
    Bytes Der = Sig.toDER();
    auto Back = Signature::fromDER(Der);
    ASSERT_TRUE(Back.hasValue()) << Back.error().message();
    EXPECT_EQ(Back->R, Sig.R);
    EXPECT_EQ(Back->S, Sig.S);
  }
}

TEST(Ecdsa, DerRejectsMalformed) {
  PrivateKey Key = keyFromSeed(11);
  Bytes Der = Key.sign(hashOf("x")).toDER();

  Bytes BadTag = Der;
  BadTag[0] = 0x31;
  EXPECT_FALSE(Signature::fromDER(BadTag).hasValue());

  Bytes Truncated(Der.begin(), Der.end() - 1);
  EXPECT_FALSE(Signature::fromDER(Truncated).hasValue());

  Bytes Padded = Der;
  Padded.push_back(0x00);
  EXPECT_FALSE(Signature::fromDER(Padded).hasValue());

  // Non-minimal integer: widen r with a leading zero.
  EXPECT_FALSE(Signature::fromDER(Bytes{0x30, 0x08, 0x02, 0x02, 0x00, 0x01,
                                        0x02, 0x02, 0x00, 0x01})
                   .hasValue());
}

TEST(Keys, PrivateKeyRange) {
  EXPECT_FALSE(PrivateKey::fromScalar(U256::zero()).hasValue());
  EXPECT_FALSE(
      PrivateKey::fromScalar(Secp256k1::instance().order()).hasValue());
  EXPECT_TRUE(PrivateKey::fromScalar(U256::one()).hasValue());
}

TEST(Keys, PrivKeyOneGivesGenerator) {
  auto Key = PrivateKey::fromScalar(U256::one());
  ASSERT_TRUE(Key.hasValue());
  EXPECT_EQ(Key->publicKey().point(), Secp256k1::instance().generator());
}

TEST(Keys, PublicKeySerializeParse) {
  Rng Rand(12);
  for (int I = 0; I < 20; ++I) {
    PrivateKey Key = PrivateKey::generate(Rand);
    Bytes Ser = Key.publicKey().serialize();
    ASSERT_EQ(Ser.size(), 33u);
    auto Back = PublicKey::parse(Ser);
    ASSERT_TRUE(Back.hasValue());
    EXPECT_EQ(*Back, Key.publicKey());
  }
}

TEST(Keys, InvalidKeyHasNoBytes) {
  // The default key (an open output's hole), infinity and a point off
  // the curve are all the invalid key: no bytes, no point, and no
  // signature verifies under it.
  PublicKey None;
  EXPECT_FALSE(None.isValid());
  EXPECT_TRUE(None.serialize().empty());
  EXPECT_EQ(None.id().Hash, hash160(Bytes()));
  EXPECT_TRUE(None.point().Infinity);
  const AffinePoint &G = Secp256k1::instance().generator();
  EXPECT_EQ(PublicKey(AffinePoint::infinity()), None);
  EXPECT_EQ(PublicKey(AffinePoint::make(G.X, G.X)), None);
  PrivateKey Key = keyFromSeed(9);
  Digest32 H = hashOf("hole");
  EXPECT_FALSE(None.verify(H, Key.sign(H)));
  EXPECT_TRUE(PublicKey(G).isValid());
}

TEST(Keys, KeyIdIsStable) {
  PrivateKey Key = keyFromSeed(13);
  EXPECT_EQ(Key.id(), Key.publicKey().id());
  EXPECT_EQ(Key.id().toHex().size(), 40u);
}

} // namespace
