//===- crypto/ecdsa.cpp - ECDSA over secp256k1 -----------------------------===//

#include "crypto/ecdsa.h"

#include "crypto/hmac.h"

#include <cassert>

namespace typecoin {
namespace crypto {

/// Minimal big-endian integer encoding for DER: strip leading zeros, then
/// prepend 0x00 if the top bit is set.
static Bytes derInteger(const U256 &V) {
  auto BE = V.toBytesBE();
  size_t Start = 0;
  while (Start < 31 && BE[Start] == 0)
    ++Start;
  Bytes Out;
  if (BE[Start] & 0x80)
    Out.push_back(0x00);
  Out.insert(Out.end(), BE.begin() + Start, BE.end());
  return Out;
}

Bytes Signature::toDER() const {
  Bytes RB = derInteger(R), SB = derInteger(S);
  Bytes Out;
  Out.push_back(0x30);
  Out.push_back(static_cast<uint8_t>(4 + RB.size() + SB.size()));
  Out.push_back(0x02);
  Out.push_back(static_cast<uint8_t>(RB.size()));
  Out.insert(Out.end(), RB.begin(), RB.end());
  Out.push_back(0x02);
  Out.push_back(static_cast<uint8_t>(SB.size()));
  Out.insert(Out.end(), SB.begin(), SB.end());
  return Out;
}

static Result<U256> parseDerInteger(const Bytes &Data, size_t &Pos) {
  if (Pos + 2 > Data.size() || Data[Pos] != 0x02)
    return makeError("DER: expected INTEGER tag");
  size_t Len = Data[Pos + 1];
  Pos += 2;
  if (Len == 0 || Pos + Len > Data.size())
    return makeError("DER: bad INTEGER length");
  if (Data[Pos] == 0x00 && Len > 1 && !(Data[Pos + 1] & 0x80))
    return makeError("DER: non-minimal INTEGER");
  if (Data[Pos] & 0x80)
    return makeError("DER: negative INTEGER");
  size_t Skip = 0;
  if (Data[Pos] == 0x00)
    Skip = 1;
  if (Len - Skip > 32)
    return makeError("DER: INTEGER too large");
  std::array<uint8_t, 32> BE{};
  std::copy(Data.begin() + Pos + Skip, Data.begin() + Pos + Len,
            BE.begin() + (32 - (Len - Skip)));
  Pos += Len;
  return U256::fromBytesBE(BE);
}

Result<Signature> Signature::fromDER(const Bytes &Data) {
  if (Data.size() < 8 || Data[0] != 0x30)
    return makeError("DER: expected SEQUENCE");
  if (Data[1] != Data.size() - 2)
    return makeError("DER: bad SEQUENCE length");
  size_t Pos = 2;
  TC_UNWRAP(R, parseDerInteger(Data, Pos));
  TC_UNWRAP(S, parseDerInteger(Data, Pos));
  if (Pos != Data.size())
    return makeError("DER: trailing bytes");
  return Signature{R, S};
}

U256 rfc6979Nonce(const U256 &PrivKey, const Digest32 &Hash) {
  const Secp256k1 &Curve = Secp256k1::instance();
  const U256 &N = Curve.order();

  // bits2octets: reduce the hash mod n, re-encode as 32 bytes.
  U256 Z = U256::fromBytesBE(Hash);
  if (Z >= N)
    Z.subInPlace(N);
  auto ZOctets = Z.toBytesBE();
  auto XOctets = PrivKey.toBytesBE();

  Bytes V(32, 0x01);
  Bytes K(32, 0x00);

  auto Step = [&](uint8_t Sep, bool IncludeData) {
    Bytes Msg = V;
    Msg.push_back(Sep);
    if (IncludeData) {
      Msg.insert(Msg.end(), XOctets.begin(), XOctets.end());
      Msg.insert(Msg.end(), ZOctets.begin(), ZOctets.end());
    }
    Digest32 KD = hmacSha256(K.data(), K.size(), Msg.data(), Msg.size());
    K.assign(KD.begin(), KD.end());
    Digest32 VD = hmacSha256(K.data(), K.size(), V.data(), V.size());
    V.assign(VD.begin(), VD.end());
  };

  Step(0x00, true);
  Step(0x01, true);

  for (;;) {
    Digest32 VD = hmacSha256(K.data(), K.size(), V.data(), V.size());
    V.assign(VD.begin(), VD.end());
    std::array<uint8_t, 32> Cand;
    std::copy(V.begin(), V.end(), Cand.begin());
    U256 Nonce = U256::fromBytesBE(Cand);
    if (!Nonce.isZero() && Nonce < N)
      return Nonce;
    Step(0x00, false);
  }
}

Signature ecdsaSign(const U256 &PrivKey, const Digest32 &Hash) {
  const Secp256k1 &Curve = Secp256k1::instance();
  const ModArith &Fn = Curve.scalar();
  assert(!PrivKey.isZero() && PrivKey < Curve.order() &&
         "private key out of range");

  U256 Z = Fn.reduce(U256::fromBytesBE(Hash));
  U256 K = rfc6979Nonce(PrivKey, Hash);

  for (;;) {
    AffinePoint RP = Curve.multiplyBase(K);
    U256 R = Fn.reduce(RP.X);
    if (!R.isZero()) {
      U256 S = Fn.mul(Fn.inverse(K), Fn.add(Z, Fn.mul(R, PrivKey)));
      if (!S.isZero()) {
        // Low-S normalization (Bitcoin consensus-preferred form).
        if (S > Curve.halfOrder())
          S = Fn.neg(S);
        return Signature{R, S};
      }
    }
    // Astronomically unlikely; re-derive a fresh nonce deterministically.
    K = Fn.add(K, U256::one());
  }
}

bool ecdsaVerify(const AffinePoint &PubKey, const Digest32 &Hash,
                 const Signature &Sig) {
  const Secp256k1 &Curve = Secp256k1::instance();
  const ModArith &Fn = Curve.scalar();
  if (PubKey.Infinity || !Curve.isOnCurve(PubKey))
    return false;
  if (Sig.R.isZero() || Sig.R >= Curve.order() || Sig.S.isZero() ||
      Sig.S >= Curve.order())
    return false;

  U256 Z = Fn.reduce(U256::fromBytesBE(Hash));
  U256 W = Fn.inverse(Sig.S);
  U256 U1 = Fn.mul(Z, W);
  U256 U2 = Fn.mul(Sig.R, W);
  // Accept when u1*G + u2*P is finite and its x mod n is r, compared in
  // Jacobian coordinates with no field inversion.
  return Curve.doubleMultiplyHasX(U1, U2, PubKey, Sig.R);
}

} // namespace crypto
} // namespace typecoin
