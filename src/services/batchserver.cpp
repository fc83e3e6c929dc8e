//===- services/batchserver.cpp - Batch-mode credential server ----------------===//

#include "services/batchserver.h"

#include "analysis/lint.h"
#include "obs/metrics.h"
#include "store/chainstore.h"
#include "support/threadpool.h"

namespace typecoin {
namespace services {

/// Obs probes for the batch server: ledger/deferred-queue sizes as
/// gauges, write-through outcomes as counters, and submission (flush)
/// latency as a histogram.
namespace {
struct BatchMetrics {
  obs::Gauge &LedgerSize = obs::gauge("batch.ledger.size");
  obs::Gauge &DeferredSize = obs::gauge("batch.deferred.size");
  obs::Counter &WriteOk = obs::counter("batch.writethrough.ok");
  obs::Counter &WriteDeferred = obs::counter("batch.writethrough.deferred");
  obs::Counter &WriteRejected = obs::counter("batch.writethrough.rejected");
  obs::Counter &RetryFlushed = obs::counter("batch.retry.flushed");
  obs::Histogram &SubmitNs = obs::latencyHistogram("batch.submit_ns");

  static BatchMetrics &get() {
    static BatchMetrics M;
    return M;
  }
};
} // namespace

Status BatchServer::registerDeposit(const std::string &Txid, uint32_t Index,
                                    const crypto::KeyId &Owner) {
  // The txout must exist, be confirmed, and be typed.
  TC_UNWRAP(Id, tc::txidFromHex(Txid));
  if (Node.chain().confirmations(Id) < 1)
    return makeError("batch: deposit transaction is unconfirmed");
  logic::PropPtr Type = Node.state().outputType(Txid, Index);
  if (Type->Kind == logic::Prop::Tag::One)
    return makeError("batch: txout carries no Typecoin resource");
  if (Node.state().isConsumed(Txid, Index))
    return makeError("batch: txout already consumed");
  auto Amount = Node.state().outputAmount(Txid, Index);

  // It must actually be locked by the server's key.
  const bitcoin::Transaction *Btc = Node.chain().findTransaction(Id);
  if (!Btc || Index >= Btc->Outputs.size())
    return makeError("batch: txout not found on chain");
  bitcoin::SolvedScript Solved =
      bitcoin::solveScript(Btc->Outputs[Index].ScriptPubKey);
  bool Ours = false;
  auto SelfId = serverId();
  if (Solved.Kind == bitcoin::TxOutKind::PubKeyHash)
    Ours = Solved.Data[0] == Bytes(SelfId.Hash.begin(), SelfId.Hash.end());
  else if (Solved.Kind == bitcoin::TxOutKind::MultiSig)
    for (const Bytes &Key : Solved.Data)
      Ours = Ours || Key == serverKey().serialize();
  if (!Ours)
    return makeError("batch: deposit txout is not locked to the server");

  Entry E;
  E.Type = Type;
  E.Amount = Amount.value_or(0);
  E.Owner = Owner;
  Ledger[{Txid, Index}] = std::move(E);
  BatchMetrics::get().LedgerSize.set(static_cast<int64_t>(Ledger.size()));
  return Status::success();
}

Status BatchServer::transfer(const std::string &Txid, uint32_t Index,
                             const crypto::KeyId &From,
                             const crypto::KeyId &To) {
  auto It = Ledger.find({Txid, Index});
  if (It == Ledger.end())
    return makeError("batch: no such held resource");
  if (!(It->second.Owner == From))
    return makeError("batch: transfer not authorized by the owner");
  It->second.Owner = To;
  return Status::success();
}

bool BatchServer::holdsResource(const crypto::KeyId &Owner,
                                const logic::PropPtr &Type) const {
  for (const auto &[Anchor, E] : Ledger)
    if (E.Owner == Owner && logic::propEqual(E.Type, Type))
      return true;
  return false;
}

Result<bool> BatchServer::verifyResource(const std::string &Txid,
                                         uint32_t Index,
                                         const logic::PropPtr &Type) const {
  // Own records first.
  auto It = Ledger.find({Txid, Index});
  if (It != Ledger.end())
    return logic::propEqual(It->second.Type, Type);

  // Otherwise the blockchain: the txout must exist, be confirmed, carry
  // the claimed registered type, and be unspent.
  TC_UNWRAP(Id, tc::txidFromHex(Txid));
  if (Node.chain().confirmations(Id) < 1)
    return makeError("batch: transaction is not confirmed");
  if (Node.state().isConsumed(Txid, Index))
    return false;
  return logic::propEqual(Node.state().outputType(Txid, Index), Type);
}

std::vector<Result<bool>>
BatchServer::verifyResources(const std::vector<ResourceClaim> &Claims) const {
  static obs::Counter &Queries = obs::counter("batch.verify.count");
  Queries.inc(Claims.size());
  std::vector<Result<bool>> Results(Claims.size(), Result<bool>(false));
  auto One = [&](size_t I) {
    Results[I] =
        verifyResource(Claims[I].Txid, Claims[I].Index, Claims[I].Type);
  };
  ThreadPool *Pool = ThreadPool::shared();
  if (Pool && Claims.size() > 1)
    Pool->parallelFor(Claims.size(), One);
  else
    for (size_t I = 0; I < Claims.size(); ++I)
      One(I);
  return Results;
}

Result<std::string>
BatchServer::withdraw(const std::string &Txid, uint32_t Index,
                      const crypto::PublicKey &Receiver) {
  auto It = Ledger.find({Txid, Index});
  if (It == Ledger.end())
    return makeError("batch: no such held resource");
  if (!(It->second.Owner == Receiver.id()))
    return makeError("batch: receiver is not the recorded owner");

  tc::Transaction T;
  tc::Input In;
  In.SourceTxid = Txid;
  In.SourceIndex = Index;
  In.Type = It->second.Type;
  In.Amount = It->second.Amount;
  T.Inputs.push_back(std::move(In));
  tc::Output Out;
  Out.Type = It->second.Type;
  Out.Amount = It->second.Amount;
  Out.Owner = Receiver;
  T.Outputs.push_back(std::move(Out));
  TC_UNWRAP(Proof, tc::makeRoutingProof(T));
  T.Proof = Proof;

  TC_UNWRAP(P, tc::buildPair(T, ServerWallet, Node.chain()));
  TC_TRY(Node.submitPair(P));
  ++OnChainTxs;
  Ledger.erase(It);
  BatchMetrics::get().LedgerSize.set(static_cast<int64_t>(Ledger.size()));
  return tc::txidHex(P.Btc);
}

void BatchServer::persistDeferred(const tc::Transaction &T) {
  store::ChainStore *S = Node.store();
  if (!S)
    return;
  // A deferred write-through is a durable obligation (Section 5: it
  // must reach the blockchain); journal it so a crash cannot drop it.
  // WAL failure is counted, not fatal — the in-memory queue still
  // drains it if the process survives.
  if (!S->appendWal(store::WalKind::DeferredAdd, toHex(T.hash()),
                    T.serialize())) {
    static obs::Counter &Failed = obs::counter("batch.deferred.wal_failed");
    Failed.inc();
  }
}

void BatchServer::resolveDeferred(const tc::Transaction &T) {
  store::ChainStore *S = Node.store();
  if (!S)
    return;
  if (!S->appendWal(store::WalKind::DeferredDone, toHex(T.hash()),
                    Bytes())) {
    static obs::Counter &Failed = obs::counter("batch.deferred.wal_failed");
    Failed.inc();
  }
}

size_t BatchServer::recoverDeferred() {
  store::ChainStore *S = Node.store();
  if (!S)
    return 0;
  Deferred.clear();
  for (const auto &[Key, Payload] : S->liveDeferred()) {
    (void)Key;
    auto T = tc::Transaction::deserialize(Payload);
    if (!T) {
      static obs::Counter &Bad = obs::counter("batch.deferred.bad_records");
      Bad.inc();
      continue;
    }
    DeferredWrite D;
    D.T = T.takeValue();
    D.Attempts = 0;
    D.NextRetryTime = 0; // Eligible at the next retryPending.
    Deferred.push_back(std::move(D));
  }
  BatchMetrics::get().DeferredSize.set(static_cast<int64_t>(Deferred.size()));
  return Deferred.size();
}

Result<std::string> BatchServer::trySubmit(const tc::Transaction &T) {
  obs::ScopedTimer Timer(BatchMetrics::get().SubmitNs);
  TC_UNWRAP(P, tc::buildPair(T, ServerWallet, Node.chain()));
  TC_TRY(Node.submitPair(P));
  ++OnChainTxs;
  return tc::txidHex(P.Btc);
}

Result<std::string>
BatchServer::recordWriteThrough(const tc::Transaction &T) {
  BatchMetrics &M = BatchMetrics::get();
  // Lint before paying the cost of building and signing the Bitcoin
  // carrier. A lint rejection is permanent — the node's own checks
  // would refuse the transaction on every retry — so it is not worth
  // deferring.
  if (auto S = analysis::lintGate(T); !S) {
    M.WriteRejected.inc();
    return S.takeError();
  }
  auto Txid = trySubmit(T);
  if (Txid) {
    M.WriteOk.inc();
    return Txid;
  }
  // Transient failure (funding races, mempool conflicts a reorg will
  // clear): keep the obligation and retry later. Section 5 requires
  // these transactions to reach the blockchain; dropping one silently
  // would fork the server's view from the chain's.
  DeferredWrite D;
  D.T = T;
  D.Attempts = 1;
  D.NextRetryTime = static_cast<double>(Node.chain().tipTime()) +
                    tc::retryDelay(Retry, 1, toHex(T.hash()));
  persistDeferred(T);
  Deferred.push_back(std::move(D));
  M.WriteDeferred.inc();
  M.DeferredSize.set(static_cast<int64_t>(Deferred.size()));
  return Txid.takeError().withContext("batch: write-through deferred");
}

size_t BatchServer::retryPending(double Now) {
  BatchMetrics &M = BatchMetrics::get();
  static obs::Counter &Attempts = obs::counter("batch.retry.attempts");
  static obs::Counter &Exhausted = obs::counter("batch.retry.exhausted");
  size_t Succeeded = 0;
  for (auto It = Deferred.begin(); It != Deferred.end();) {
    if (Now < It->NextRetryTime || It->Attempts >= Retry.MaxAttempts) {
      ++It;
      continue;
    }
    Attempts.inc();
    if (trySubmit(It->T)) {
      resolveDeferred(It->T);
      It = Deferred.erase(It);
      ++Succeeded;
      continue;
    }
    ++It->Attempts;
    if (It->Attempts >= Retry.MaxAttempts)
      Exhausted.inc();
    It->NextRetryTime = Now + tc::retryDelay(Retry, It->Attempts,
                                             toHex(It->T.hash()));
    ++It;
  }
  M.RetryFlushed.inc(Succeeded);
  M.DeferredSize.set(static_cast<int64_t>(Deferred.size()));
  return Succeeded;
}

} // namespace services
} // namespace typecoin
