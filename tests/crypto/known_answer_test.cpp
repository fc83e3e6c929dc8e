//===- tests/crypto/known_answer_test.cpp - Pinned keys and signatures ----===//
//
// Known answers for the curve's public surface. The ecmult sweep checks
// the table paths against the naive ladders, but both sides run on the
// same field type and point formulas, so a formula fault shared by both
// would pass it, and would pass every sign/verify round trip too. The
// pins were computed once, on the 4x64-limb field with the dbl-2009-l
// and madd-2007-bl point formulas, and are kept as bytes: a fault in
// any later field or formula, shared by both sides of the sweep or not,
// changes a pinned byte. They cover:
//
//  * compressed public keys of private keys 1, 2, 3, n - 1 and of four
//    keys drawn by PrivateKey::generate at fixed seeds;
//  * each key's DER signature over sha256("typecoin") and over the
//    all-zero hash (whose verification runs with u1 = 0);
//  * multiply and doubleMultiply on two fixed inputs each, pinned as
//    uncompressed points so both coordinates are checked.
//
//===----------------------------------------------------------------------===//

#include "crypto/ecdsa.h"
#include "crypto/keys.h"
#include "support/rng.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

struct KeyPin {
  const char *Scalar;
  const char *PublicKey;
  const char *SigTypecoin; ///< DER over sha256("typecoin").
  const char *SigZero;     ///< DER over the all-zero hash.
};

const KeyPin Pins[] = {
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
     "304402206fb5df040c333342f8f21fd03e49bdb421cd585b87a140d5de4f2a0cffdb64a1"
     "02200827bc0fad44e99f85fda82796f731d7dadbcea0cc8cf8618e4aa6f9c1d4ec49",
     "3045022100a0b37f8fba683cc68f6574cd43b39f0343a50008bf6ccea9d13231d9e7e2e1"
     "e4022011edc8d307254296264aebfc3dc76cd8b668373a072fd64665b50000e9fcce52"},
    {"0000000000000000000000000000000000000000000000000000000000000002",
     "02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
     "3045022100dc73248c2b2a7d620744969783ae708eb3024201656a5d92a8317168e6c954"
     "910220482cc4be1805bd6fd1b4fdfa6554259be102f147a213b0e238bc8ac1c3713341",
     "304402203fdeb205601c7501de0436c322579c131efd2f45bb1106f6711c906b3ace405d"
     "0220022801050bee091ac1b8e4a20c9190730346c3c459f54a0fa5c28a520f94db1f"},
    {"0000000000000000000000000000000000000000000000000000000000000003",
     "02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
     "3045022100809db8cd6cda1207fb6e976a40b542606249ac610a87fd25de56f84c9b90fe"
     "d9022078d2c3fa637f3557b524d11b0880a6f1d53a35607ba4f81de25a5d5caac1c17c",
     "3045022100e95058f48325b8b37415edd898822fcfc83d8fdc5e257d3c370c0304c42dd5"
     "f202206836450f27b3ccd9d0e86629627b28b61fcdaeab49d9099f4170ccd3b3258e81"},
    {"fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
     "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
     "304402204d678daac246e232db9b187248a895ba7b54a82c1cd34ce28bb919231d8ce7a5"
     "0220175292cec03ba2a6a4eb22ddfa705597adfd662de4a54f2d86a3ac086f21bd48",
     "3045022100919026f3e239ea52cf530eb6d345dc2b56ef0928f1e9ad20d8f360284dc650"
     "48022014395e7137e2204f15b69239010f3c34fbb3c858a29b0d106b1fa65bc0047263"},
    // PrivateKey::generate at seeds 101, 202, 303 and 404.
    {"dfb06248f87b63a88d2dfe5d32776db0c93c8ec8fff46ecc05bfd51f21ed53e3",
     "03e914f0114ac1f38b152a3a5ea01bd55db69aa28f8eda57f5b79542268a306f4c",
     "3045022100c6fdb73718adafd881bdbbfbe709f860ce2d5d2a59eb0f4050261c25521769"
     "a502203abdbfbb6bee077ecd3db5b070422acbea21cbb3192ceaf59dda43856933ef86",
     "304402202986d151b916d032debde227c8f9af420582a3cbf148cf501036f97f6486ae61"
     "02203d1e80e96e6da6a72d5ed1a608ee8aa94a42f56f2bf1c71a6f112588c073a38c"},
    {"f2293c5578589cc3fac2e4fb0d5dea2db074aa23148b45e1c5d901a7670f0b7a",
     "025548b38ebe9334b51c8c5225ed091b3fc2b90524e09aa5e9bc60cc2c6ff8aaed",
     "3045022100a66203bc1aae9d5e522a9cfd8e7ce7d0b9ff49371447e63f5ee367b04f75b4"
     "8702202612741d1c2693bee41aaecf0b0deb48c529a0cb12c35f2f2cf2bcd7f515d4be",
     "3045022100cffe4a7e7cd3854bfb12bd3c50a6e92d426c2aa8f96a6186fbd44f3f37ee4b"
     "6202207bcc18e8049ffcef3205445a935ed841ee4486f2a60beff1f8b7408ec575e8d2"},
    {"c184453ef36cc4e667564cfb635288fa2c423dd6ee4043bd007c8e6a96ce58bb",
     "0305cc5f0f60c7b30e0e0c7b837f55ed150fd3bf1221baf46bf7d36968383ca255",
     "3045022100ba0105403926ce16c9867b138d63682e61c2449e32364ee32f53cae2a62399"
     "b602200368bbdcb4fd0d6d21ad5d42ea90a29cf09dab3461971cc75fca3f844d4032b0",
     "30440220482cfceec39703c4d3e425c1f1cb61ee62cbbf4f7bafdd17001abeabbcb5d3cf"
     "02207a47ba64cee81825299c3b06c43768b4c2cca34a2bb3fc6b5b39bf2b424bd110"},
    {"df75b02118912a04eafc6577f8ba2f4fac61306669a14c91c5bd0292ef1a7ea0",
     "02e6b73e6eb3bc76a14e029ab0ddc27f8fd42bd4998f737bb0d9daa9235ffa4fc6",
     "3045022100cf1b4c2756222674b21ab3ccb2992f28216bb5458f021a0312ebba848461e8"
     "800220554d806f22e70f5e4a45deef1b9d5fb2110fd5706c25a8ca9537dfe5ee412375",
     "3045022100bd1cfb8552897667829e2092d47e872eb92a06c723437ae505af075798c208"
     "9902206e0db2613bed94c13baaa2a389987d382c5f523ecf9c6c5b9668fb47f909c392"},
};

const uint64_t GenerateSeeds[] = {101, 202, 303, 404};

U256 hexU256(const char *Hex) {
  auto V = U256::fromHex(Hex);
  EXPECT_TRUE(V.hasValue()) << Hex;
  return V ? *V : U256();
}

AffinePoint hexPoint(const char *Hex) {
  auto Raw = fromHex(Hex);
  EXPECT_TRUE(Raw.hasValue()) << Hex;
  auto P = Secp256k1::instance().parse(Raw ? *Raw : Bytes());
  EXPECT_TRUE(P.hasValue()) << Hex;
  return P ? *P : AffinePoint::infinity();
}

std::string uncompressedHex(const AffinePoint &P) {
  return toHex(Secp256k1::instance().serialize(P, /*Compressed=*/false));
}

std::vector<PrivateKey> pinnedKeys() {
  std::vector<PrivateKey> Keys;
  for (size_t I = 0; I < 4; ++I)
    Keys.push_back(*PrivateKey::fromScalar(hexU256(Pins[I].Scalar)));
  for (uint64_t Seed : GenerateSeeds) {
    Rng Rand(Seed);
    Keys.push_back(PrivateKey::generate(Rand));
  }
  return Keys;
}

TEST(KnownAnswer, PublicKeys) {
  std::vector<PrivateKey> Keys = pinnedKeys();
  ASSERT_EQ(Keys.size(), std::size(Pins));
  for (size_t I = 0; I < Keys.size(); ++I) {
    EXPECT_EQ(Keys[I].scalar().toHex(), Pins[I].Scalar) << "key " << I;
    EXPECT_EQ(toHex(Keys[I].publicKey().serialize()), Pins[I].PublicKey)
        << "key " << I;
  }
}

TEST(KnownAnswer, Signatures) {
  std::vector<PrivateKey> Keys = pinnedKeys();
  ASSERT_EQ(Keys.size(), std::size(Pins));
  Digest32 Typecoin = sha256(bytesOfString("typecoin"));
  Digest32 Zero{};
  for (size_t I = 0; I < Keys.size(); ++I) {
    for (auto [Hash, Want] : {std::pair{Typecoin, Pins[I].SigTypecoin},
                              std::pair{Zero, Pins[I].SigZero}}) {
      Signature Sig = Keys[I].sign(Hash);
      EXPECT_EQ(toHex(Sig.toDER()), Want) << "key " << I;
      // The pinned bytes verify under the pinned key.
      auto Key = PublicKey::parse(*fromHex(Pins[I].PublicKey));
      ASSERT_TRUE(Key.hasValue());
      auto Pinned = Signature::fromDER(*fromHex(Want));
      ASSERT_TRUE(Pinned.hasValue());
      EXPECT_TRUE(Key->verify(Hash, *Pinned)) << "key " << I;
    }
  }
}

TEST(KnownAnswer, ScalarMultiplication) {
  const Secp256k1 &C = Secp256k1::instance();
  // K1 = sha256(""), K2 = n - 2; P1 = 2G, P2 = the seed-202 key.
  U256 K1 =
      hexU256("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  U256 K2 =
      hexU256("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd036413f");
  AffinePoint P1 =
      hexPoint("02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  AffinePoint P2 =
      hexPoint("025548b38ebe9334b51c8c5225ed091b3fc2b90524e09aa5e9bc60cc2c6ff8aaed");
  EXPECT_EQ(uncompressedHex(C.multiply(K1, P1)),
            "04753f36df392a7384edf89d448980e10cf4a159c4f32d1120e1bdf92373b9e412"
            "2c9ac5fe698693878e5f2124ee9762c1997d6c69f8dc6cef2280abf7957d6251");
  EXPECT_EQ(uncompressedHex(C.multiply(K2, P2)),
            "047f2cc77eae3e6bdcb39ee44b4f8fed7d6476dc566649d41386c4f0ef81c842d3"
            "c29f66925108afa3514182f4f433935f85fcb4a8c7a63df2b25c1aa92a26fb5f");
  EXPECT_EQ(uncompressedHex(C.doubleMultiply(K1, K2, P1)),
            "04e9f706a5c86f60251de46523e06554a250f7436c80b3be55c0c0a7fd3af0be34"
            "142b0346704f550a430ad48b3b98ce752cec99ee62c500f4be72774e8d0e987f");
  EXPECT_EQ(uncompressedHex(C.doubleMultiply(K2, K1, P2)),
            "04e3e6c2a95cbcc6e279cedc46616271da350a0c38ffd9996fcee4c702c7664f1f"
            "6c1e037833aebdb2921776d3c0e541557e5f16d03335f8ad404b6c0c6ceb38fa");
}

} // namespace
