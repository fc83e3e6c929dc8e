//===- bitcoin/standard.cpp - Standard script templates --------------------===//

#include "bitcoin/standard.h"

#include <cassert>

namespace typecoin {
namespace bitcoin {

SolvedScript solveScript(const Script &ScriptPubKey) {
  SolvedScript Out;
  auto ElemsOr = ScriptPubKey.decode();
  if (!ElemsOr)
    return Out;
  const auto &E = *ElemsOr;

  // OP_RETURN <push>*
  if (!E.empty() && E[0].Op == OP_RETURN) {
    for (size_t I = 1; I < E.size(); ++I)
      if (!E[I].IsPush)
        return Out;
    Out.Kind = TxOutKind::NullData;
    for (size_t I = 1; I < E.size(); ++I)
      Out.Data.push_back(E[I].Push);
    return Out;
  }

  // <pubkey> OP_CHECKSIG
  if (E.size() == 2 && E[0].IsPush &&
      (E[0].Push.size() == 33 || E[0].Push.size() == 65) &&
      E[1].Op == OP_CHECKSIG) {
    Out.Kind = TxOutKind::PubKey;
    Out.Data.push_back(E[0].Push);
    return Out;
  }

  // OP_DUP OP_HASH160 <20 bytes> OP_EQUALVERIFY OP_CHECKSIG
  if (E.size() == 5 && E[0].Op == OP_DUP && E[1].Op == OP_HASH160 &&
      E[2].IsPush && E[2].Push.size() == 20 && E[3].Op == OP_EQUALVERIFY &&
      E[4].Op == OP_CHECKSIG) {
    Out.Kind = TxOutKind::PubKeyHash;
    Out.Data.push_back(E[2].Push);
    return Out;
  }

  // m <key>+ n OP_CHECKMULTISIG with 1 <= m <= n <= 3 (BIP 11).
  if (E.size() >= 4 && E.back().Op == OP_CHECKMULTISIG) {
    const auto &MOp = E[0];
    const auto &NOp = E[E.size() - 2];
    if (MOp.Op >= OP_1 && MOp.Op <= OP_16 && NOp.Op >= OP_1 &&
        NOp.Op <= OP_16) {
      int M = MOp.Op - OP_1 + 1;
      int N = NOp.Op - OP_1 + 1;
      if (M >= 1 && M <= N && N <= 3 &&
          E.size() == static_cast<size_t>(N) + 3) {
        std::vector<Bytes> Keys;
        for (int I = 0; I < N; ++I) {
          const auto &KeyElem = E[static_cast<size_t>(I) + 1];
          // BIP 11 key slots are 33 or 65 bytes; Typecoin metadata uses
          // well-formed 33-byte non-keys, which still match here.
          if (!KeyElem.IsPush ||
              (KeyElem.Push.size() != 33 && KeyElem.Push.size() != 65))
            return Out;
          Keys.push_back(KeyElem.Push);
        }
        Out.Kind = TxOutKind::MultiSig;
        Out.Data = std::move(Keys);
        Out.Required = M;
        return Out;
      }
    }
  }

  return Out;
}

Script makeP2PKH(const crypto::KeyId &Key) {
  Script S;
  S.op(OP_DUP).op(OP_HASH160).push(Key.Hash).op(OP_EQUALVERIFY).op(
      OP_CHECKSIG);
  return S;
}

Script makeP2PK(const crypto::PublicKey &Key) {
  Script S;
  S.push(Key.serialize()).op(OP_CHECKSIG);
  return S;
}

Script makeMultiSig(int M, const std::vector<Bytes> &Keys) {
  assert(M >= 1 && static_cast<size_t>(M) <= Keys.size() &&
         Keys.size() <= 3 && "multisig shape out of BIP 11 range");
  Script S;
  S.op(static_cast<Opcode>(OP_1 + M - 1));
  for (const Bytes &Key : Keys)
    S.push(Key);
  S.op(static_cast<Opcode>(OP_1 + static_cast<int>(Keys.size()) - 1));
  S.op(OP_CHECKMULTISIG);
  return S;
}

Script makeNullData(const Bytes &Data) {
  Script S;
  S.op(OP_RETURN).push(Data);
  return S;
}

std::vector<PolicyViolation> policyViolations(const Transaction &Tx) {
  std::vector<PolicyViolation> Out;
  // Locate and describe one violation; only the violating path pays for
  // the message.
  auto Add = [&Out](const char *Code, const char *Where, size_t I,
                    const std::string &What) {
    Out.push_back({Code, Where, I,
                   Where ? std::string(Where) + " " + std::to_string(I) +
                               " " + What
                         : What});
  };
  if (Tx.serialize().size() > MaxStandardTxBytes)
    Add("tx-oversize", nullptr, 0,
        "transaction exceeds " + std::to_string(MaxStandardTxBytes) +
            " bytes");
  size_t NullDataCount = 0;
  for (size_t I = 0; I < Tx.Outputs.size(); ++I) {
    const TxOut &O = Tx.Outputs[I];
    SolvedScript Solved = solveScript(O.ScriptPubKey);
    if (Solved.Kind == TxOutKind::NonStandard)
      Add("script-nonstandard", "output", I, "has a non-standard script");
    else if (Solved.Kind == TxOutKind::NullData)
      ++NullDataCount;
    else if (O.Value < DustThreshold)
      Add("output-dust", "output", I,
          "is dust (" + std::to_string(O.Value) + " < " +
              std::to_string(DustThreshold) + ")");
  }
  if (NullDataCount > 1)
    Add("script-nulldata-count", nullptr, 0,
        std::to_string(NullDataCount) +
            " OP_RETURN outputs (the policy allows one)");
  for (size_t I = 0; I < Tx.Inputs.size(); ++I) {
    auto Elems = Tx.Inputs[I].ScriptSig.decode();
    if (!Elems) {
      Add("script-sig-malformed", "input", I, "has a malformed scriptSig");
      continue;
    }
    if (Tx.isCoinbase())
      continue;
    for (const auto &E : *Elems)
      if (!E.IsPush && !(E.Op >= OP_1 && E.Op <= OP_16) &&
          E.Op != OP_1NEGATE && E.Op != OP_0) {
        Add("script-sig-not-push", "input", I, "scriptSig is not push-only");
        break;
      }
  }
  return Out;
}

Status checkStandard(const Transaction &Tx) {
  std::vector<PolicyViolation> Violations = policyViolations(Tx);
  if (!Violations.empty())
    return makeError("standardness: " + Violations.front().Message);
  return Status::success();
}

/// Find a private key in \p Keys whose id/pubkey matches \p Want
/// (either a 20-byte hash160 or a serialized pubkey).
static const crypto::PrivateKey *
findKey(const std::vector<crypto::PrivateKey> &Keys, const Bytes &Want) {
  for (const auto &Key : Keys) {
    if (Want.size() == 20) {
      auto Id = Key.id();
      if (std::equal(Want.begin(), Want.end(), Id.Hash.begin()))
        return &Key;
    } else if (Key.publicKey().serialize() == Want) {
      return &Key;
    }
  }
  return nullptr;
}

Result<Script> signInput(const Transaction &Tx, size_t InputIndex,
                         const Script &ScriptPubKey,
                         const std::vector<crypto::PrivateKey> &Keys,
                         uint8_t HashType) {
  SolvedScript Solved = solveScript(ScriptPubKey);
  TC_UNWRAP(Hash, signatureHash(Tx, InputIndex, ScriptPubKey, HashType));

  auto MakeSig = [&](const crypto::PrivateKey &Key) {
    Bytes Sig = Key.sign(Hash).toDER();
    Sig.push_back(HashType);
    return Sig;
  };

  switch (Solved.Kind) {
  case TxOutKind::PubKey: {
    const crypto::PrivateKey *Key = findKey(Keys, Solved.Data[0]);
    if (!Key)
      return makeError("signInput: no key for P2PK output");
    Script S;
    S.push(MakeSig(*Key));
    return S;
  }
  case TxOutKind::PubKeyHash: {
    const crypto::PrivateKey *Key = findKey(Keys, Solved.Data[0]);
    if (!Key)
      return makeError("signInput: no key for P2PKH output");
    Script S;
    S.push(MakeSig(*Key));
    S.push(Key->publicKey().serialize());
    return S;
  }
  case TxOutKind::MultiSig: {
    // Provide signatures for the first Required keys we hold, in key
    // order (OP_CHECKMULTISIG requires order-respecting matching).
    Script S;
    S.op(OP_0); // The CHECKMULTISIG extra-pop dummy.
    int Provided = 0;
    for (const Bytes &KeyBytes : Solved.Data) {
      if (Provided == Solved.Required)
        break;
      const crypto::PrivateKey *Key = findKey(Keys, KeyBytes);
      if (!Key)
        continue;
      S.push(MakeSig(*Key));
      ++Provided;
    }
    if (Provided < Solved.Required)
      return makeError("signInput: hold " + std::to_string(Provided) +
                       " of " + std::to_string(Solved.Required) +
                       " required multisig keys");
    return S;
  }
  case TxOutKind::NullData:
    return makeError("signInput: OP_RETURN outputs are unspendable");
  case TxOutKind::NonStandard:
    return makeError("signInput: cannot sign non-standard script");
  }
  return makeError("signInput: unreachable");
}

} // namespace bitcoin
} // namespace typecoin
