//===- bitcoin/mempool.h - The memory pool ----------------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unconfirmed-transaction pool with relay policy. This is where the
/// paper's standardness constraint bites (Section 3.3): "most Bitcoin
/// nodes will not forward transactions that use non-standard scripts.
/// Thus, while non-standard scripts are legal when they appear in
/// blocks, participants cannot get non-standard scripts into a block
/// unless they control a miner." `acceptTransaction` enforces exactly
/// that relay policy; `Blockchain::submitBlock` does not.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_BITCOIN_MEMPOOL_H
#define TYPECOIN_BITCOIN_MEMPOOL_H

#include "bitcoin/chain.h"
#include "bitcoin/standard.h"

#include <map>

namespace typecoin {
namespace bitcoin {

/// Relay policy knobs.
struct MempoolPolicy {
  Amount MinRelayFee = 1000; ///< satoshi per transaction
  bool RequireStandard = true;
};

/// The pool of valid, unconfirmed, standard transactions.
class Mempool {
public:
  explicit Mempool(MempoolPolicy Policy = MempoolPolicy())
      : Policy(Policy) {}

  /// Validate against the chain tip + current pool and admit. Inputs
  /// may come from the confirmed UTXO set or from other pool entries.
  Status acceptTransaction(const Transaction &Tx, const Blockchain &Chain);

  bool contains(const TxId &Id) const { return Pool.count(Id) != 0; }
  size_t size() const { return Pool.size(); }

  /// Transactions in admission order, for block assembly.
  std::vector<Transaction> snapshot() const;

  /// Drop entries confirmed by (or conflicting with) a connected block.
  void removeForBlock(const Block &B);

  /// Drop everything (a crashed node's pool does not survive restart).
  /// Returns how many entries were discarded, and counts them on the
  /// `mempool.clear.dropped` obs counter — a crash or recovery path
  /// never discards transactions silently.
  size_t clear();

  /// Re-admit every entry against \p Chain's current view, dropping
  /// entries a reorganization has invalidated (inputs spent on the new
  /// branch, or already confirmed there). Returns the number evicted.
  size_t revalidate(const Blockchain &Chain);

  /// Fee carried by a pool entry.
  std::optional<Amount> feeOf(const TxId &Id) const;

  /// Fetch a pool entry by txid (compact-block reconstruction resolves
  /// announced short ids against this). Null when absent.
  const Transaction *get(const TxId &Id) const;

private:
  /// Admission logic proper; the public entry point wraps it with obs
  /// accounting (accept counters, size gauge, latency probe).
  Status acceptTransactionImpl(const Transaction &Tx,
                               const Blockchain &Chain);

  struct Entry {
    Transaction Tx;
    Amount Fee = 0;
    uint64_t Sequence = 0; ///< admission order
  };

  MempoolPolicy Policy;
  std::map<TxId, Entry> Pool;
  /// Outpoints consumed by pool transactions (conflict detection).
  std::map<OutPoint, TxId> SpentBy;
  uint64_t NextSequence = 0;
};

} // namespace bitcoin
} // namespace typecoin

#endif // TYPECOIN_BITCOIN_MEMPOOL_H
