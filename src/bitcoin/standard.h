//===- bitcoin/standard.h - Standard script templates -----------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bitcoin's "standard" script templates and relay policy. The paper
/// (Section 3.3) leans on exactly this machinery: "A very small number of
/// script schemas are deemed to be standard, and most Bitcoin nodes will
/// not forward transactions that use non-standard scripts" — which is why
/// Typecoin embeds its metadata via the standard m-of-n multisig template
/// (BIP 11) in its 1-of-2 form rather than a novel script.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_BITCOIN_STANDARD_H
#define TYPECOIN_BITCOIN_STANDARD_H

#include "bitcoin/transaction.h"
#include "crypto/keys.h"

#include <optional>

namespace typecoin {
namespace bitcoin {

/// The recognized output-script shapes.
enum class TxOutKind {
  NonStandard,
  PubKey,    ///< <pubkey> OP_CHECKSIG
  PubKeyHash,///< OP_DUP OP_HASH160 <h160> OP_EQUALVERIFY OP_CHECKSIG
  MultiSig,  ///< m <pk1>..<pkn> n OP_CHECKMULTISIG (BIP 11, n <= 3)
  NullData,  ///< OP_RETURN <data> (provably unspendable data carrier)
};

/// The result of template-matching a scriptPubKey.
struct SolvedScript {
  TxOutKind Kind = TxOutKind::NonStandard;
  /// PubKey/MultiSig: the raw public keys; PubKeyHash: the 20-byte hash.
  std::vector<Bytes> Data;
  /// MultiSig: required signature count m.
  int Required = 0;
};

/// Template-match \p ScriptPubKey.
SolvedScript solveScript(const Script &ScriptPubKey);

/// Standard script constructors.
Script makeP2PKH(const crypto::KeyId &Key);
Script makeP2PK(const crypto::PublicKey &Key);
/// BIP 11 bare multisig; requires 1 <= M <= Keys.size() <= 3. The "keys"
/// are raw byte strings so the caller may substitute non-key metadata, as
/// Typecoin's 1-of-2 embedding does (paper Section 3.3).
Script makeMultiSig(int M, const std::vector<Bytes> &Keys);
/// OP_RETURN data carrier.
Script makeNullData(const Bytes &Data);

/// Relay size cap for one transaction (bytes).
constexpr size_t MaxStandardTxBytes = 100000;

/// One way a transaction breaks the relay policy.
struct PolicyViolation {
  const char *Code;  ///< Stable rule name, e.g. "script-nonstandard".
  const char *Where; ///< "output", "input", or null for the whole tx.
  size_t Index;      ///< The output or input it concerns.
  std::string Message;
};

/// Every relay-standardness violation of \p Tx, in order: size cap,
/// output scripts and dust (OP_RETURN exempt), the OP_RETURN count,
/// then push-only input scripts. Empty when \p Tx is standard.
std::vector<PolicyViolation> policyViolations(const Transaction &Tx);

/// Relay standardness for a whole transaction: fails with the first of
/// \ref policyViolations.
Status checkStandard(const Transaction &Tx);

/// Sign input \p InputIndex of \p Tx, spending \p Prevout locked by
/// \p ScriptPubKey, producing the appropriate scriptSig. Supports P2PKH,
/// P2PK and multisig (keys in \p Keys must cover the required slots; for
/// metadata slots pass keys you do hold — 1-of-2 needs just one).
Result<Script> signInput(const Transaction &Tx, size_t InputIndex,
                         const Script &ScriptPubKey,
                         const std::vector<crypto::PrivateKey> &Keys,
                         uint8_t HashType = SIGHASH_ALL);

} // namespace bitcoin
} // namespace typecoin

#endif // TYPECOIN_BITCOIN_STANDARD_H
