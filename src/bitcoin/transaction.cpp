//===- bitcoin/transaction.cpp - Bitcoin transactions ----------------------===//

#include "bitcoin/transaction.h"

#include "bitcoin/sigcache.h"
#include "crypto/ecdsa.h"
#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>

namespace typecoin {
namespace bitcoin {

static void serializeTo(const Transaction &Tx, Writer &W) {
  W.writeU32(static_cast<uint32_t>(Tx.Version));
  W.writeCompactSize(Tx.Inputs.size());
  for (const TxIn &In : Tx.Inputs) {
    W.writeBytes(In.Prevout.Tx.Hash);
    W.writeU32(In.Prevout.Index);
    W.writeVarBytes(In.ScriptSig.bytes());
    W.writeU32(In.Sequence);
  }
  W.writeCompactSize(Tx.Outputs.size());
  for (const TxOut &Out : Tx.Outputs) {
    W.writeU64(static_cast<uint64_t>(Out.Value));
    W.writeVarBytes(Out.ScriptPubKey.bytes());
  }
  W.writeU32(Tx.LockTime);
}

Bytes Transaction::serialize() const {
  Writer W;
  serializeTo(*this, W);
  return W.takeBuffer();
}

Result<Transaction> Transaction::deserializeFrom(Reader &R) {
  Transaction Tx;
  TC_UNWRAP(Version, R.readU32());
  Tx.Version = static_cast<int32_t>(Version);
  TC_UNWRAP(NIn, R.readCompactSize());
  if (NIn > 100000)
    return makeError("transaction: implausible input count");
  for (uint64_t I = 0; I < NIn; ++I) {
    TxIn In;
    TC_UNWRAP(Hash, R.readArray<32>());
    In.Prevout.Tx.Hash = Hash;
    TC_UNWRAP(Index, R.readU32());
    In.Prevout.Index = Index;
    TC_UNWRAP(Sig, R.readVarBytes());
    In.ScriptSig = Script(std::move(Sig));
    TC_UNWRAP(Seq, R.readU32());
    In.Sequence = Seq;
    Tx.Inputs.push_back(std::move(In));
  }
  TC_UNWRAP(NOut, R.readCompactSize());
  if (NOut > 100000)
    return makeError("transaction: implausible output count");
  for (uint64_t I = 0; I < NOut; ++I) {
    TxOut Out;
    TC_UNWRAP(Value, R.readU64());
    Out.Value = static_cast<Amount>(Value);
    TC_UNWRAP(Spk, R.readVarBytes());
    Out.ScriptPubKey = Script(std::move(Spk));
    Tx.Outputs.push_back(std::move(Out));
  }
  TC_UNWRAP(LockTime, R.readU32());
  Tx.LockTime = LockTime;
  return Tx;
}

Result<Transaction> Transaction::deserialize(const Bytes &Data) {
  Reader R(Data);
  TC_UNWRAP(Tx, deserializeFrom(R));
  TC_TRY(R.expectEnd());
  return Tx;
}

TxId Transaction::txid() const {
  // Digest-work counter: txids actually hashed, as opposed to served
  // from the memo. The audit recompute below is not counted.
  static obs::Counter &Computed = obs::counter("bitcoin.txid.computed");
  std::lock_guard<std::mutex> L(Cache.Mu);
  if (!Cache.HasId) {
    Cache.Id = TxId{crypto::sha256d(serialize())};
    Cache.HasId = true;
    Computed.inc();
  }
#ifdef TYPECOIN_AUDIT
  if (Cache.Id != TxId{crypto::sha256d(serialize())}) {
    std::fprintf(stderr, "typecoin audit: stale txid cache: transaction "
                         "mutated without invalidateCaches()\n");
    std::abort();
  }
#endif
  return Cache.Id;
}

void Transaction::invalidateCaches() {
  std::lock_guard<std::mutex> L(Cache.Mu);
  Cache.HasId = false;
  Cache.SigHashes.clear();
}

static Result<crypto::Digest32> computeSignatureHash(const Transaction &Tx,
                                                     size_t InputIndex,
                                                     const Script &ScriptCode,
                                                     uint8_t HashType) {
  if (InputIndex >= Tx.Inputs.size())
    return makeError("signatureHash: input index out of range");

  uint8_t BaseType = HashType & 0x1f;
  bool AnyoneCanPay = HashType & SIGHASH_ANYONECANPAY;

  Transaction Copy = Tx;
  // Blank all input scripts; the signed input carries the script code.
  for (TxIn &In : Copy.Inputs)
    In.ScriptSig = Script();
  Copy.Inputs[InputIndex].ScriptSig = ScriptCode;

  if (BaseType == SIGHASH_NONE) {
    // Sign no outputs; other inputs' sequences are not committed.
    Copy.Outputs.clear();
    for (size_t I = 0; I < Copy.Inputs.size(); ++I)
      if (I != InputIndex)
        Copy.Inputs[I].Sequence = 0;
  } else if (BaseType == SIGHASH_SINGLE) {
    if (InputIndex >= Copy.Outputs.size())
      return makeError("signatureHash: SIGHASH_SINGLE with no matching "
                       "output");
    Copy.Outputs.resize(InputIndex + 1);
    for (size_t I = 0; I < InputIndex; ++I) {
      Copy.Outputs[I].Value = -1;
      Copy.Outputs[I].ScriptPubKey = Script();
    }
    for (size_t I = 0; I < Copy.Inputs.size(); ++I)
      if (I != InputIndex)
        Copy.Inputs[I].Sequence = 0;
  }

  if (AnyoneCanPay) {
    TxIn Keep = Copy.Inputs[InputIndex];
    Copy.Inputs.clear();
    Copy.Inputs.push_back(std::move(Keep));
  }

  Writer W;
  serializeTo(Copy, W);
  W.writeU32(HashType);
  return crypto::sha256d(W.buffer());
}

Result<crypto::Digest32> signatureHash(const Transaction &Tx,
                                       size_t InputIndex,
                                       const Script &ScriptCode,
                                       uint8_t HashType) {
  {
    std::lock_guard<std::mutex> L(Tx.Cache.Mu);
    for (const Transaction::SigHashMemo &M : Tx.Cache.SigHashes)
      if (M.Input == InputIndex && M.HashType == HashType &&
          M.ScriptCode == ScriptCode.bytes()) {
#ifdef TYPECOIN_AUDIT
        auto Recomputed =
            computeSignatureHash(Tx, InputIndex, ScriptCode, HashType);
        if (!Recomputed || *Recomputed != M.Digest) {
          std::fprintf(stderr, "typecoin audit: stale sighash cache: "
                               "transaction mutated without "
                               "invalidateCaches()\n");
          std::abort();
        }
#endif
        return M.Digest;
      }
  }
  TC_UNWRAP(Digest, computeSignatureHash(Tx, InputIndex, ScriptCode, HashType));
  // Digest-work counter: sighashes that missed the memo and were hashed.
  static obs::Counter &Computed = obs::counter("bitcoin.sighash.computed");
  Computed.inc();
  std::lock_guard<std::mutex> L(Tx.Cache.Mu);
  // A concurrent caller may have raced us to the same memo; a duplicate
  // entry is harmless (first match wins, values are equal).
  Tx.Cache.SigHashes.push_back(
      Transaction::SigHashMemo{InputIndex, HashType, ScriptCode.bytes(),
                               Digest});
  return Digest;
}

bool TransactionSignatureChecker::checkSignature(const Bytes &SigWithType,
                                                 const Bytes &PubKey) const {
  if (SigWithType.empty())
    return false;
  uint8_t HashType = SigWithType.back();
  Bytes Der(SigWithType.begin(), SigWithType.end() - 1);
  auto Sig = crypto::Signature::fromDER(Der);
  if (!Sig)
    return false;
  auto Hash = signatureHash(Tx, InputIndex, ScriptCode, HashType);
  if (!Hash)
    return false;
  // One ECDSA verification per distinct (sighash, key, signature) triple
  // per process: a signature verified at mempool accept is a set lookup
  // at block connect, revalidate, and reorg replay. The key commits to
  // the exact public-key bytes, and only a key that decoded and verified
  // is ever added, so a hit needs no decode; a miss decodes the key to
  // its curve point directly (for a compressed key, one square root,
  // which also rejects an x off the curve) and verifies.
  SignatureCache &SC = SignatureCache::instance();
  SignatureCache::Key Key = SC.makeKey(*Hash, PubKey, Der);
  if (SC.contains(Key))
    return true;
  auto Point = crypto::Secp256k1::instance().parse(PubKey);
  if (!Point || !crypto::ecdsaVerify(*Point, *Hash, *Sig))
    return false;
  SC.add(Key);
  return true;
}

} // namespace bitcoin
} // namespace typecoin
