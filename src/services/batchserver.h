//===- services/batchserver.h - Batch-mode credential server -----*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch mode (Section 3.2): "a trusted third-party maintains a
/// credential server that holds Typecoin resources on behalf of other
/// principals. When principals wish to conduct a batch-mode transaction,
/// they notify the server, which records the transaction but does not
/// submit it to the network." Withdrawals route the resource to its
/// owner's key on-chain; deposits send it to the server's key; validity
/// queries are answered "based on its own records, if it holds the
/// resource, or on the blockchain if it does not."
///
/// Per Section 5, "batch-mode servers must write transactions
/// discharging anything other than true through to the blockchain":
/// \ref recordWriteThrough submits such transactions immediately.
///
/// Off-chain entries here are ownership ledger records over deposited
/// resources (the common credential-passing workload); resource-
/// transforming transactions use the write-through path.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_SERVICES_BATCHSERVER_H
#define TYPECOIN_SERVICES_BATCHSERVER_H

#include "typecoin/builder.h"

namespace typecoin {
namespace services {

/// The batch-mode credential server.
class BatchServer {
public:
  BatchServer(tc::Node &Node, uint64_t WalletSeed)
      : Node(Node), ServerWallet(WalletSeed),
        ServerKey(ServerWallet.newKey()) {}

  /// The server's receiving key (clients deposit to this principal).
  const crypto::PublicKey &serverKey() const {
    return ServerKey.publicKey();
  }
  crypto::KeyId serverId() const { return ServerKey.id(); }
  tc::Wallet &wallet() { return ServerWallet; }

  /// Notice a confirmed deposit: output \p Index of \p Txid must be a
  /// Typecoin output owned by the server's key; it enters the ledger
  /// credited to \p Owner.
  Status registerDeposit(const std::string &Txid, uint32_t Index,
                         const crypto::KeyId &Owner);

  /// Off-chain transfer: reassign a held resource to a new owner. Only
  /// the current owner may transfer (the caller authenticates clients).
  Status transfer(const std::string &Txid, uint32_t Index,
                  const crypto::KeyId &From, const crypto::KeyId &To);

  /// Does the server hold a resource of this type for this principal?
  /// (The validity query of Section 3.2, answered from the records.)
  bool holdsResource(const crypto::KeyId &Owner,
                     const logic::PropPtr &Type) const;

  /// The full validity query of Section 3.2: "the batch-mode server ...
  /// answers based on its own records, if it holds the resource, or on
  /// the blockchain if it does not." Checks that output \p Index of
  /// \p Txid carries \p Type and is unconsumed — first in the ledger,
  /// then against the node's registered Typecoin state.
  Result<bool> verifyResource(const std::string &Txid, uint32_t Index,
                              const logic::PropPtr &Type) const;

  /// One validity query of a batch of claims.
  struct ResourceClaim {
    std::string Txid;
    uint32_t Index = 0;
    logic::PropPtr Type;
  };

  /// Answer a batch of validity queries, fanned across the shared
  /// TYPECOIN_PAR_VERIFY worker pool when it is enabled (each claim only
  /// reads the ledger, chain, and typecoin state). Results align
  /// positionally with \p Claims and are identical to calling
  /// verifyResource per claim. The caller must not mutate the server or
  /// node concurrently.
  std::vector<Result<bool>>
  verifyResources(const std::vector<ResourceClaim> &Claims) const;

  /// Withdraw: submit an on-chain routing transaction sending the held
  /// resource to \p Receiver (which must match the ledger owner). One
  /// Bitcoin transaction regardless of how many off-chain transfers
  /// preceded it — the fee amortization of Section 3.2. Returns the new
  /// Bitcoin txid; the resource leaves the ledger once confirmed.
  Result<std::string> withdraw(const std::string &Txid, uint32_t Index,
                               const crypto::PublicKey &Receiver);

  /// Write-through: a full Typecoin transaction that must go to the
  /// blockchain immediately (any transaction discharging a non-`true`
  /// condition; Section 5). Returns the Bitcoin txid. A transiently
  /// unsubmittable transaction (funding or mempool conflicts during
  /// reorg churn) is not lost: it joins a deferred queue that
  /// \ref retryPending drains with bounded exponential backoff. Only a
  /// rejection by `analysis::lintGate`, run on the bare transaction
  /// before the carrier is built, fails without deferral: the lint
  /// reports an error only where the node's own checks reject on every
  /// retry, so the rejection is permanent.
  Result<std::string> recordWriteThrough(const tc::Transaction &T);

  /// Retry deferred write-throughs whose backoff deadline passed at
  /// \p Now (seconds, block-timestamp clock). Each retry rebuilds the
  /// Bitcoin carrier against the current chain. Returns how many
  /// submissions succeeded.
  size_t retryPending(double Now);

  /// Reload the deferred queue from the node's durable store (the
  /// snapshot's deferred set folded with the WAL). Call after a crash
  /// restart, once the node's store is open; entries re-enter the queue
  /// eligible at the next \ref retryPending. Returns how many were
  /// restored. No-op (0) without a store.
  size_t recoverDeferred();

  /// Write-throughs waiting in the deferred queue.
  size_t deferredCount() const { return Deferred.size(); }

  void setRetryPolicy(const tc::RetryPolicy &P) { Retry = P; }

  /// Number of ledger entries.
  size_t ledgerSize() const { return Ledger.size(); }

  /// Total on-chain transactions this server has submitted (the fee
  /// counter for experiment T2).
  size_t onChainTxCount() const { return OnChainTxs; }

private:
  struct Entry {
    logic::PropPtr Type;
    bitcoin::Amount Amount = 0;
    crypto::KeyId Owner;
  };

  struct DeferredWrite {
    tc::Transaction T;
    int Attempts = 0;
    double NextRetryTime = 0;
  };

  Result<std::string> trySubmit(const tc::Transaction &T);
  /// WAL a deferred write-through (durable obligation; Section 5).
  void persistDeferred(const tc::Transaction &T);
  /// WAL the resolution of a deferred write-through.
  void resolveDeferred(const tc::Transaction &T);

  tc::Node &Node;
  tc::Wallet ServerWallet;
  crypto::PrivateKey ServerKey;
  /// Ledger keyed by the anchoring on-chain txout.
  std::map<std::pair<std::string, uint32_t>, Entry> Ledger;
  size_t OnChainTxs = 0;
  std::vector<DeferredWrite> Deferred;
  tc::RetryPolicy Retry;
};

} // namespace services
} // namespace typecoin

#endif // TYPECOIN_SERVICES_BATCHSERVER_H
