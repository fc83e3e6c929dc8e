//===- typecoin/transaction.h - Typecoin transactions ------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typecoin transactions (Figure 1): `T = (Sigma, C, inputs, outputs, M)`
/// — a local basis, an affine grant, inputs `txid.n -> A/a` taking typed
/// resources and bitcoins from earlier transaction-outputs, outputs
/// `B/b ->> K` sending typed resources and bitcoins to principals, and a
/// proof term M showing that the transaction balances:
///
///   Sigma_global, Sigma |- M : (C (x) A (x) R) -o if(phi, B)
///
/// Transactions are canonically serialized; their double-SHA256 is the
/// hash embedded into the corresponding Bitcoin transaction (Section 3).
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_TYPECOIN_TRANSACTION_H
#define TYPECOIN_TYPECOIN_TRANSACTION_H

#include "bitcoin/amount.h"
#include "crypto/keys.h"
#include "logic/check.h"

namespace typecoin {
namespace tc {

/// An input `txid.n -> A/a`: spend output \p SourceIndex of the Bitcoin
/// transaction \p SourceTxid, claiming it carries type \p Type and
/// \p Amount satoshi.
struct Input {
  std::string SourceTxid; ///< Display-hex Bitcoin txid.
  uint32_t SourceIndex = 0;
  logic::PropPtr Type;
  bitcoin::Amount Amount = 0;
};

/// An output `B/b ->> K`: resources of type \p Type plus \p Amount
/// satoshi, sent to the principal owning \p Owner.
struct Output {
  logic::PropPtr Type;
  bitcoin::Amount Amount = 0;
  /// The receiving public key. The principal literal K is its HASH160.
  crypto::PublicKey Owner;

  crypto::KeyId ownerId() const { return Owner.id(); }
  lf::TermPtr ownerTerm() const {
    return lf::principal(ownerId().toHex());
  }
};

/// A Typecoin transaction.
struct Transaction {
  logic::Basis LocalBasis;
  /// The affine grant C; defaults to 1 (no granted resources).
  logic::PropPtr Grant;
  std::vector<Input> Inputs;
  std::vector<Output> Outputs;
  logic::ProofPtr Proof;
  /// Fallback transactions (Section 5): used in list order if the
  /// primary is invalid when it reaches the blockchain. Every fallback
  /// must map onto the same Bitcoin transaction.
  std::vector<Transaction> Fallbacks;

  Transaction();

  /// Canonical serialization (deterministic; hashed for embedding).
  Bytes serialize() const;
  static Result<Transaction> deserialize(const Bytes &Data);

  /// Double-SHA256 of the serialization: the embedded metadata.
  crypto::Digest32 hash() const;

  /// The tensor of input types `A` (right-nested; empty = 1).
  logic::PropPtr inputTensor() const;
  /// The tensor of output types `B`.
  logic::PropPtr outputTensor() const;
  /// The tensor of receipts `R = receipt(w_1) (x) ... (x) receipt(w_n)`.
  logic::PropPtr receiptTensor() const;
  /// The full proof obligation `(C (x) A (x) R) -o if(phi, B)` for the
  /// given condition; with `phi = true` callers may also use the bare
  /// `-o B` form (see txcheck).
  logic::PropPtr obligation(const logic::CondPtr &Phi) const;
};

/// Write \p T without its proof and fallbacks: the part of the
/// serialization an affine assert signs and an open transaction's
/// template digest covers.
void writeCore(Writer &W, const Transaction &T);

/// The digest signed by an affine `assert(K, A, sig)`: "sig is a
/// signature by K of A, Sigma', C, inputs, outputs" (Appendix A) — the
/// whole transaction except the proof term, which contains the
/// signatures ("the proof term need not be signed, and indeed cannot
/// be", footnote 7).
crypto::Digest32 affineAssertDigest(const Transaction &T,
                                    const logic::PropPtr &A);

/// The digest signed by a persistent `assert!(K, A, sig)`: A alone.
crypto::Digest32 persistentAssertDigest(const logic::PropPtr &A);

/// The signature blob carried by assert proof terms: the signer's public
/// key (so the verifier can check it hashes to K) plus a DER ECDSA
/// signature of the appropriate digest.
Bytes makeAffirmationBlob(const crypto::PrivateKey &Key,
                          const crypto::Digest32 &Digest);
Status verifyAffirmationBlob(const std::string &KHash,
                             const crypto::Digest32 &Digest,
                             const Bytes &Blob);

/// Convenience: build the assert/assert! proof terms, signing with
/// \p Key (which must hash to the claimed principal).
logic::ProofPtr makeAssert(const crypto::PrivateKey &Key,
                           const Transaction &T, const logic::PropPtr &A);
logic::ProofPtr makeAssertBang(const crypto::PrivateKey &Key,
                               const logic::PropPtr &A);

/// AffirmationVerifier bound to a transaction (for the affine form).
class TxAffirmationVerifier : public logic::AffirmationVerifier {
public:
  explicit TxAffirmationVerifier(const Transaction &T) : T(T) {}

  Status verifyAffine(const std::string &KHash, const logic::PropPtr &A,
                      const Bytes &Sig) const override {
    return verifyAffirmationBlob(KHash, affineAssertDigest(T, A), Sig);
  }
  Status verifyPersistent(const std::string &KHash,
                          const logic::PropPtr &A,
                          const Bytes &Sig) const override {
    return verifyAffirmationBlob(KHash, persistentAssertDigest(A), Sig);
  }

private:
  const Transaction &T;
};

} // namespace tc
} // namespace typecoin

#endif // TYPECOIN_TYPECOIN_TRANSACTION_H
