//===- crypto/keys.h - Key pairs, addresses, HASH160 ------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Key-pair management: private keys (secp256k1 scalars), public keys,
/// HASH160 public-key hashes, and Base58Check addresses. The paper
/// identifies Typecoin principals with hashes of public keys (Section 4),
/// so `KeyId` doubles as the runtime representation of a principal
/// literal K.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_CRYPTO_KEYS_H
#define TYPECOIN_CRYPTO_KEYS_H

#include "crypto/ecdsa.h"
#include "crypto/ripemd160.h"
#include "crypto/secp256k1.h"
#include "support/rng.h"

namespace typecoin {
namespace crypto {

/// HASH160(x) = RIPEMD160(SHA256(x)).
Digest20 hash160(const Bytes &Data);

/// A 20-byte public-key hash; Bitcoin's address payload and Typecoin's
/// principal literal.
struct KeyId {
  Digest20 Hash{};

  bool operator==(const KeyId &O) const { return Hash == O.Hash; }
  bool operator!=(const KeyId &O) const { return Hash != O.Hash; }
  bool operator<(const KeyId &O) const { return Hash < O.Hash; }

  std::string toHex() const { return typecoin::toHex(Hash); }

  /// Base58Check address with version byte 0x00 (Bitcoin mainnet P2PKH).
  std::string toAddress() const;
  static Result<KeyId> fromAddress(const std::string &Address);
};

/// A secp256k1 public key, held as its 33-byte SEC1-compressed
/// encoding. Every reader of a key but a signature check wants those
/// bytes (the principal K is their HASH160; the wire and the store carry
/// them), so a key is only decompressed, one field square root, when
/// \ref point or \ref verify asks for the curve point. Copying a key
/// allocates nothing.
class PublicKey {
public:
  /// The invalid key: it serializes to no bytes (an open output's hole).
  PublicKey() = default;
  /// The key of \p Point; infinity or a point off the curve gives the
  /// invalid key.
  explicit PublicKey(const AffinePoint &Point);

  /// The curve point, decompressed (one square root); infinity for the
  /// invalid key.
  AffinePoint point() const;
  bool isValid() const { return Enc[0] != 0; }

  /// SEC1-compressed 33-byte encoding; empty for the invalid key.
  Bytes serialize() const {
    return isValid() ? Bytes(Enc.begin(), Enc.end()) : Bytes();
  }
  /// Accepts a compressed key whose x is on the curve (a Jacobi symbol,
  /// no square root: \ref Secp256k1::isCurveX), or an uncompressed key
  /// on the curve, which is stored compressed.
  static Result<PublicKey> parse(const Bytes &Data);

  /// HASH160 of the compressed encoding; the owning principal.
  KeyId id() const { return KeyId{hash160(serialize())}; }

  bool verify(const Digest32 &Hash, const Signature &Sig) const {
    return ecdsaVerify(point(), Hash, Sig);
  }

  bool operator==(const PublicKey &O) const { return Enc == O.Enc; }

private:
  /// Prefix 02/03 and the big-endian x; all zero for the invalid key.
  std::array<uint8_t, 33> Enc{};
};

/// A secp256k1 private key with its derived public key.
class PrivateKey {
public:
  /// Construct from a scalar; fails if out of [1, n).
  static Result<PrivateKey> fromScalar(const U256 &Scalar);

  /// Generate from a deterministic RNG (tests and simulations).
  static PrivateKey generate(Rng &Rand);

  const U256 &scalar() const { return Scalar; }
  const PublicKey &publicKey() const { return Pub; }
  KeyId id() const { return Pub.id(); }

  Signature sign(const Digest32 &Hash) const {
    return ecdsaSign(Scalar, Hash);
  }

private:
  PrivateKey(const U256 &Scalar, const PublicKey &Pub)
      : Scalar(Scalar), Pub(Pub) {}

  U256 Scalar;
  PublicKey Pub;
};

} // namespace crypto
} // namespace typecoin

#endif // TYPECOIN_CRYPTO_KEYS_H
