//===- bitcoin/mempool.cpp - The memory pool --------------------------------===//

#include "bitcoin/mempool.h"

#include "obs/metrics.h"

#include <algorithm>

namespace typecoin {
namespace bitcoin {

namespace {
struct PoolMetrics {
  obs::Counter &AcceptOk = obs::counter("mempool.accept.ok");
  obs::Counter &AcceptRejected = obs::counter("mempool.accept.rejected");
  obs::Counter &RevalidateEvicted =
      obs::counter("mempool.revalidate.evicted");
  obs::Counter &RevalidateRuns = obs::counter("mempool.revalidate.runs");
  obs::Counter &ClearDropped = obs::counter("mempool.clear.dropped");
  obs::Counter &RemovedConfirmed = obs::counter("mempool.removed.confirmed");
  obs::Counter &RemovedConflict = obs::counter("mempool.removed.conflict");
  obs::Gauge &Size = obs::gauge("mempool.size");
  obs::Histogram &AcceptNs = obs::latencyHistogram("mempool.accept_ns");

  static PoolMetrics &get() {
    static PoolMetrics M;
    return M;
  }
};
} // namespace

Status Mempool::acceptTransaction(const Transaction &Tx,
                                  const Blockchain &Chain) {
  PoolMetrics &M = PoolMetrics::get();
  obs::ScopedTimer Timer(M.AcceptNs);
  Status S = acceptTransactionImpl(Tx, Chain);
  if (S)
    M.AcceptOk.inc();
  else
    M.AcceptRejected.inc();
  M.Size.set(static_cast<int64_t>(Pool.size()));
  return S;
}

Status Mempool::acceptTransactionImpl(const Transaction &Tx,
                                      const Blockchain &Chain) {
  TxId Id = Tx.txid();
  if (Pool.count(Id))
    return Status::success(); // Already known.
  if (Tx.isCoinbase())
    return makeError("mempool: coinbase transactions are not relayable");
  if (Policy.RequireStandard)
    TC_TRY(checkStandard(Tx));

  // Conflict check against other pool spends.
  for (const TxIn &In : Tx.Inputs) {
    auto It = SpentBy.find(In.Prevout);
    if (It != SpentBy.end())
      return makeError("mempool: input " + In.Prevout.toString() +
                       " already spent by pool transaction " +
                       It->second.toHex());
  }

  // Build a view of just the coins Tx names: the confirmed coin, else
  // that output of a pool transaction. Pool-spent outpoints need no
  // removal here — the conflict check above has already rejected them.
  UtxoSet View;
  for (const TxIn &In : Tx.Inputs) {
    if (const Coin *C = Chain.utxo().find(In.Prevout)) {
      View.add(In.Prevout, *C);
      continue;
    }
    auto Parent = Pool.find(In.Prevout.Tx);
    if (Parent != Pool.end() &&
        In.Prevout.Index < Parent->second.Tx.Outputs.size())
      View.add(In.Prevout,
               Coin{Parent->second.Tx.Outputs[In.Prevout.Index],
                    Chain.height() + 1, false});
  }

  TC_UNWRAP(Fee, checkTxInputs(Tx, View, Chain.height() + 1,
                               Chain.params().CoinbaseMaturity));
  if (Fee < Policy.MinRelayFee)
    return makeError("mempool: fee " + std::to_string(Fee) +
                     " below relay minimum " +
                     std::to_string(Policy.MinRelayFee));

  Entry E;
  E.Tx = Tx;
  E.Fee = Fee;
  E.Sequence = NextSequence++;
  for (const TxIn &In : Tx.Inputs)
    SpentBy[In.Prevout] = Id;
  Pool[Id] = std::move(E);
  return Status::success();
}

std::vector<Transaction> Mempool::snapshot() const {
  std::vector<const Entry *> Entries;
  Entries.reserve(Pool.size());
  for (const auto &[Id, E] : Pool)
    Entries.push_back(&E);
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry *A, const Entry *B) {
              return A->Sequence < B->Sequence;
            });
  std::vector<Transaction> Out;
  Out.reserve(Entries.size());
  for (const Entry *E : Entries)
    Out.push_back(E->Tx);
  return Out;
}

void Mempool::removeForBlock(const Block &B) {
  PoolMetrics &M = PoolMetrics::get();
  for (const Transaction &Tx : B.Txs) {
    TxId Id = Tx.txid();
    auto It = Pool.find(Id);
    if (It != Pool.end()) {
      for (const TxIn &In : It->second.Tx.Inputs)
        SpentBy.erase(In.Prevout);
      Pool.erase(It);
      M.RemovedConfirmed.inc();
    }
    // Evict conflicting spends of the same outpoints.
    if (Tx.isCoinbase())
      continue;
    for (const TxIn &In : Tx.Inputs) {
      auto SpentIt = SpentBy.find(In.Prevout);
      if (SpentIt == SpentBy.end())
        continue;
      TxId Conflict = SpentIt->second;
      auto PoolIt = Pool.find(Conflict);
      if (PoolIt != Pool.end()) {
        for (const TxIn &CIn : PoolIt->second.Tx.Inputs)
          SpentBy.erase(CIn.Prevout);
        Pool.erase(PoolIt);
        M.RemovedConflict.inc();
      } else {
        SpentBy.erase(SpentIt);
      }
    }
  }
  M.Size.set(static_cast<int64_t>(Pool.size()));
}

size_t Mempool::clear() {
  size_t Dropped = Pool.size();
  Pool.clear();
  SpentBy.clear();
  PoolMetrics &M = PoolMetrics::get();
  M.ClearDropped.inc(Dropped);
  M.Size.set(0);
  return Dropped;
}

size_t Mempool::revalidate(const Blockchain &Chain) {
  // Re-run admission from scratch in the original admission order so
  // chained pool spends stay admissible when their parents do. The
  // bulk clear is bookkeeping, not a drop — do not let it count
  // against `mempool.clear.dropped`.
  std::vector<Transaction> Entries = snapshot();
  Pool.clear();
  SpentBy.clear();
  PoolMetrics &M = PoolMetrics::get();
  M.RevalidateRuns.inc();
  size_t Evicted = 0;
  for (const Transaction &Tx : Entries) {
    if (Chain.confirmations(Tx.txid()) > 0)
      continue; // Confirmed on the new branch; not an eviction.
    if (!acceptTransactionImpl(Tx, Chain))
      ++Evicted;
  }
  M.RevalidateEvicted.inc(Evicted);
  M.Size.set(static_cast<int64_t>(Pool.size()));
  return Evicted;
}

std::optional<Amount> Mempool::feeOf(const TxId &Id) const {
  auto It = Pool.find(Id);
  if (It == Pool.end())
    return std::nullopt;
  return It->second.Fee;
}

const Transaction *Mempool::get(const TxId &Id) const {
  auto It = Pool.find(Id);
  return It == Pool.end() ? nullptr : &It->second.Tx;
}

} // namespace bitcoin
} // namespace typecoin
