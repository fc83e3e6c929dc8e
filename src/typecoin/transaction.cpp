//===- typecoin/transaction.cpp - Typecoin transactions ----------------------===//

#include "typecoin/transaction.h"

namespace typecoin {
namespace tc {

Transaction::Transaction() : Grant(logic::pOne()), Proof(logic::mOne()) {}

void writeCore(Writer &W, const Transaction &T) {
  T.LocalBasis.serialize(W);
  logic::writeProp(W, T.Grant);
  W.writeCompactSize(T.Inputs.size());
  for (const Input &In : T.Inputs) {
    W.writeString(In.SourceTxid);
    W.writeU32(In.SourceIndex);
    logic::writeProp(W, In.Type);
    W.writeU64(static_cast<uint64_t>(In.Amount));
  }
  W.writeCompactSize(T.Outputs.size());
  for (const Output &Out : T.Outputs) {
    logic::writeProp(W, Out.Type);
    W.writeU64(static_cast<uint64_t>(Out.Amount));
    W.writeVarBytes(Out.Owner.serialize());
  }
}

static void writeWhole(Writer &W, const Transaction &T) {
  writeCore(W, T);
  logic::writeProof(W, T.Proof);
  W.writeCompactSize(T.Fallbacks.size());
  for (const Transaction &F : T.Fallbacks)
    writeWhole(W, F);
}

Bytes Transaction::serialize() const {
  Writer W;
  writeWhole(W, *this);
  return W.takeBuffer();
}

static Result<Transaction> readWhole(Reader &R, int Depth) {
  if (Depth > 4)
    return makeError("typecoin: fallback nesting too deep");
  Transaction T;
  TC_UNWRAP(Basis, logic::Basis::deserialize(R));
  T.LocalBasis = std::move(Basis);
  TC_UNWRAP(Grant, logic::readProp(R));
  T.Grant = Grant;
  TC_UNWRAP(NIn, R.readCompactSize());
  if (NIn > 10000)
    return makeError("typecoin: implausible input count");
  for (uint64_t I = 0; I < NIn; ++I) {
    Input In;
    TC_UNWRAP(Txid, R.readString());
    In.SourceTxid = Txid;
    TC_UNWRAP(Index, R.readU32());
    In.SourceIndex = Index;
    TC_UNWRAP(Type, logic::readProp(R));
    In.Type = Type;
    TC_UNWRAP(Amount, R.readU64());
    In.Amount = static_cast<bitcoin::Amount>(Amount);
    T.Inputs.push_back(std::move(In));
  }
  TC_UNWRAP(NOut, R.readCompactSize());
  if (NOut > 10000)
    return makeError("typecoin: implausible output count");
  for (uint64_t I = 0; I < NOut; ++I) {
    Output Out;
    TC_UNWRAP(Type, logic::readProp(R));
    Out.Type = Type;
    TC_UNWRAP(Amount, R.readU64());
    Out.Amount = static_cast<bitcoin::Amount>(Amount);
    // Exactly the compressed key, so the owner re-serializes to the
    // bytes it came from.
    TC_UNWRAP(KeyBytes, R.readVarBytes());
    if (KeyBytes.size() != 33)
      return makeError("typecoin: owner key is not 33-byte compressed");
    TC_UNWRAP(Key, crypto::PublicKey::parse(KeyBytes));
    Out.Owner = Key;
    T.Outputs.push_back(std::move(Out));
  }
  TC_UNWRAP(Proof, logic::readProof(R));
  T.Proof = Proof;
  TC_UNWRAP(NFallback, R.readCompactSize());
  if (NFallback > 16)
    return makeError("typecoin: implausible fallback count");
  for (uint64_t I = 0; I < NFallback; ++I) {
    TC_UNWRAP(F, readWhole(R, Depth + 1));
    T.Fallbacks.push_back(std::move(F));
  }
  return T;
}

Result<Transaction> Transaction::deserialize(const Bytes &Data) {
  Reader R(Data);
  TC_UNWRAP(T, readWhole(R, 0));
  TC_TRY(R.expectEnd());
  return T;
}

crypto::Digest32 Transaction::hash() const {
  return crypto::sha256d(serialize());
}

logic::PropPtr Transaction::inputTensor() const {
  std::vector<logic::PropPtr> Types;
  Types.reserve(Inputs.size());
  for (const Input &In : Inputs)
    Types.push_back(In.Type);
  return logic::pTensorAll(Types);
}

logic::PropPtr Transaction::outputTensor() const {
  std::vector<logic::PropPtr> Types;
  Types.reserve(Outputs.size());
  for (const Output &Out : Outputs)
    Types.push_back(Out.Type);
  return logic::pTensorAll(Types);
}

logic::PropPtr Transaction::receiptTensor() const {
  std::vector<logic::PropPtr> Receipts;
  Receipts.reserve(Outputs.size());
  for (const Output &Out : Outputs)
    Receipts.push_back(logic::pReceipt(
        Out.Type, static_cast<uint64_t>(Out.Amount), Out.ownerTerm()));
  return logic::pTensorAll(Receipts);
}

logic::PropPtr Transaction::obligation(const logic::CondPtr &Phi) const {
  logic::PropPtr CAR = logic::pTensor(
      Grant, logic::pTensor(inputTensor(), receiptTensor()));
  return logic::pLolli(CAR, logic::pIf(Phi, outputTensor()));
}

crypto::Digest32 affineAssertDigest(const Transaction &T,
                                    const logic::PropPtr &A) {
  Writer W;
  W.writeString("typecoin-assert-affine");
  logic::writeProp(W, A);
  writeCore(W, T);
  return crypto::sha256d(W.buffer());
}

crypto::Digest32 persistentAssertDigest(const logic::PropPtr &A) {
  Writer W;
  W.writeString("typecoin-assert-persistent");
  logic::writeProp(W, A);
  return crypto::sha256d(W.buffer());
}

Bytes makeAffirmationBlob(const crypto::PrivateKey &Key,
                          const crypto::Digest32 &Digest) {
  Writer W;
  W.writeVarBytes(Key.publicKey().serialize());
  W.writeVarBytes(Key.sign(Digest).toDER());
  return W.takeBuffer();
}

Status verifyAffirmationBlob(const std::string &KHash,
                             const crypto::Digest32 &Digest,
                             const Bytes &Blob) {
  Reader R(Blob);
  TC_UNWRAP(PubKeyBytes, R.readVarBytes());
  TC_UNWRAP(SigBytes, R.readVarBytes());
  TC_TRY(R.expectEnd());
  // Decode straight to the curve point: the signature check needs it,
  // so the key is decompressed once here and never Jacobi-checked.
  TC_UNWRAP(Point, crypto::Secp256k1::instance().parse(PubKeyBytes));
  if (crypto::PublicKey(Point).id().toHex() != KHash)
    return makeError("affirmation: public key does not hash to the "
                     "claimed principal " +
                     KHash.substr(0, 8));
  TC_UNWRAP(Sig, crypto::Signature::fromDER(SigBytes));
  if (!crypto::ecdsaVerify(Point, Digest, Sig))
    return makeError("affirmation: invalid signature for principal " +
                     KHash.substr(0, 8));
  return Status::success();
}

logic::ProofPtr makeAssert(const crypto::PrivateKey &Key,
                           const Transaction &T, const logic::PropPtr &A) {
  return logic::mAssert(Key.id().toHex(), A,
                        makeAffirmationBlob(Key, affineAssertDigest(T, A)));
}

logic::ProofPtr makeAssertBang(const crypto::PrivateKey &Key,
                               const logic::PropPtr &A) {
  return logic::mAssertBang(
      Key.id().toHex(), A,
      makeAffirmationBlob(Key, persistentAssertDigest(A)));
}

} // namespace tc
} // namespace typecoin
