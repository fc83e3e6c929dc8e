//===- crypto/keys.cpp - Key pairs, addresses, HASH160 ---------------------===//

#include "crypto/keys.h"

#include "crypto/base58.h"

namespace typecoin {
namespace crypto {

Digest20 hash160(const Bytes &Data) {
  Digest32 First = sha256(Data);
  return ripemd160(First.data(), First.size());
}

std::string KeyId::toAddress() const {
  Bytes Payload;
  Payload.reserve(1 + Hash.size());
  Payload.push_back(0x00);
  Payload.insert(Payload.end(), Hash.begin(), Hash.end());
  return base58CheckEncode(Payload);
}

Result<KeyId> KeyId::fromAddress(const std::string &Address) {
  TC_UNWRAP(Payload, base58CheckDecode(Address));
  if (Payload.size() != 21 || Payload[0] != 0x00)
    return makeError("not a version-0 P2PKH address");
  KeyId Out;
  std::copy(Payload.begin() + 1, Payload.end(), Out.Hash.begin());
  return Out;
}

PublicKey::PublicKey(const AffinePoint &Point) {
  const Secp256k1 &Curve = Secp256k1::instance();
  if (Point.Infinity || !Curve.isOnCurve(Point))
    return;
  Bytes Compressed = Curve.serialize(Point, /*Compressed=*/true);
  std::copy(Compressed.begin(), Compressed.end(), Enc.begin());
}

AffinePoint PublicKey::point() const {
  if (!isValid())
    return AffinePoint::infinity();
  // parse accepted these bytes (or they came from a curve point), so
  // decompression cannot fail.
  return *Secp256k1::instance().parse(serialize());
}

Result<PublicKey> PublicKey::parse(const Bytes &Data) {
  const Secp256k1 &Curve = Secp256k1::instance();
  if (Data.size() == 65 && Data[0] == 0x04) {
    TC_UNWRAP(Point, Curve.parse(Data)); // Checked on the curve.
    return PublicKey(Point);
  }
  if (Data.size() != 33 || (Data[0] != 0x02 && Data[0] != 0x03))
    return makeError("malformed SEC1 point encoding");
  std::array<uint8_t, 32> XB{};
  std::copy(Data.begin() + 1, Data.end(), XB.begin());
  if (!Curve.isCurveX(U256::fromBytesBE(XB)))
    return makeError("x coordinate is not on secp256k1");
  PublicKey Key;
  std::copy(Data.begin(), Data.end(), Key.Enc.begin());
  return Key;
}

Result<PrivateKey> PrivateKey::fromScalar(const U256 &Scalar) {
  const Secp256k1 &Curve = Secp256k1::instance();
  if (Scalar.isZero() || Scalar >= Curve.order())
    return makeError("private key scalar out of range [1, n)");
  PublicKey Pub(Curve.multiplyBase(Scalar));
  return PrivateKey(Scalar, Pub);
}

PrivateKey PrivateKey::generate(Rng &Rand) {
  for (;;) {
    U256 Scalar;
    for (auto &Limb : Scalar.Limbs)
      Limb = Rand.next();
    auto Key = fromScalar(Scalar);
    if (Key)
      return Key.takeValue();
  }
}

} // namespace crypto
} // namespace typecoin
