//===- typecoin/audit.cpp - Runtime invariant auditor -------------------------===//

#include "typecoin/audit.h"

#include <map>
#include <set>

namespace typecoin {
namespace tc {

using bitcoin::Amount;
using bitcoin::Block;
using bitcoin::Blockchain;
using bitcoin::Coin;
using bitcoin::OutPoint;
using bitcoin::TxId;
using bitcoin::UtxoSet;

Status auditChain(const Blockchain &Chain) {
  const int Height = Chain.height();

  // 1. Active-chain linkage: contiguous heights, parent hashes agree.
  std::vector<const Block *> Active;
  Active.reserve(static_cast<size_t>(Height) + 1);
  for (int H = 0; H <= Height; ++H) {
    auto Hash = Chain.blockHashAt(H);
    if (!Hash)
      return makeError("audit: no active block at height " +
                       std::to_string(H));
    const Block *B = Chain.blockByHash(*Hash);
    if (!B)
      return makeError("audit: active hash at height " + std::to_string(H) +
                       " has no stored block");
    if (H > 0 && B->Header.Prev != *Chain.blockHashAt(H - 1))
      return makeError("audit: active block at height " +
                       std::to_string(H) +
                       " does not link to its predecessor");
    Active.push_back(B);
  }
  if (Chain.tipHash() != *Chain.blockHashAt(Height))
    return makeError("audit: tip hash disagrees with the active chain");

  // 2. Replay the active chain from genesis: UTXO soundness and value
  // conservation. UtxoSet::applyTransaction fails on any double spend.
  UtxoSet Replay;
  for (int H = 0; H <= Height; ++H) {
    const Block *B = Active[static_cast<size_t>(H)];
    Amount Fees = 0;
    for (size_t I = 0; I < B->Txs.size(); ++I) {
      const bitcoin::Transaction &Tx = B->Txs[I];
      std::string Where = "audit: height " + std::to_string(H) + " tx " +
                          std::to_string(I);
      if (Tx.isCoinbase() != (I == 0))
        return makeError(Where + ": coinbase in the wrong slot");
      if (!Tx.isCoinbase()) {
        Amount In = 0;
        for (const bitcoin::TxIn &TxInput : Tx.Inputs) {
          const Coin *C = Replay.find(TxInput.Prevout);
          if (!C)
            return makeError(Where + ": input " +
                             TxInput.Prevout.toString() +
                             " spends a missing or already-spent txout");
          In += C->Out.Value;
        }
        Amount Out = Tx.totalOutput();
        if (In < Out)
          return makeError(Where + ": outputs exceed inputs (value "
                                   "conservation violated)");
        Fees += In - Out;
      }
      auto Undo = Replay.applyTransaction(Tx, H);
      if (!Undo)
        return Undo.takeError().withContext(Where);
    }
    if (H > 0 &&
        B->Txs[0].totalOutput() > Chain.params().Subsidy + Fees)
      return makeError("audit: height " + std::to_string(H) +
                       ": coinbase pays more than subsidy plus fees");

    // 3. Index consistency for this block's transactions.
    for (size_t I = 0; I < B->Txs.size(); ++I) {
      TxId Id = B->Txs[I].txid();
      auto Loc = Chain.locate(Id);
      if (!Loc || Loc->Height != H || Loc->IndexInBlock != I)
        return makeError("audit: tx index misplaces height " +
                         std::to_string(H) + " tx " + std::to_string(I));
      int Confs = Chain.confirmations(Id);
      if (Confs != Height - H + 1)
        return makeError("audit: confirmation count wrong for height " +
                         std::to_string(H));
    }
  }

  // 4. The replayed UTXO set must equal the incremental one exactly.
  const UtxoSet &Live = Chain.utxo();
  if (Replay.size() != Live.size())
    return makeError("audit: UTXO set has " + std::to_string(Live.size()) +
                     " entries; replay produced " +
                     std::to_string(Replay.size()));
  for (const auto &[Point, C] : Live.entries()) {
    const Coin *R = Replay.find(Point);
    if (!R)
      return makeError("audit: UTXO entry " + Point.toString() +
                       " is not justified by the active chain");
    if (R->Out.Value != C.Out.Value ||
        !(R->Out.ScriptPubKey == C.Out.ScriptPubKey) ||
        R->Height != C.Height || R->IsCoinbase != C.IsCoinbase)
      return makeError("audit: UTXO entry " + Point.toString() +
                       " differs from its replayed value");
    if (C.Height > Height)
      return makeError("audit: UTXO entry " + Point.toString() +
                       " has height beyond the tip");
  }
  return Status::success();
}

Status auditMempool(const bitcoin::Mempool &Pool, const Blockchain &Chain) {
  std::vector<bitcoin::Transaction> Txs = Pool.snapshot();
  std::set<OutPoint> Spent;
  std::set<TxId> InPool;
  for (const bitcoin::Transaction &Tx : Txs)
    InPool.insert(Tx.txid());

  for (size_t I = 0; I < Txs.size(); ++I) {
    const bitcoin::Transaction &Tx = Txs[I];
    std::string Where = "audit: mempool tx " + std::to_string(I);
    if (Chain.locate(Tx.txid()))
      return makeError(Where + " is already confirmed on the best chain");
    if (Tx.isCoinbase())
      return makeError(Where + " is a coinbase");
    for (const bitcoin::TxIn &In : Tx.Inputs) {
      if (!Spent.insert(In.Prevout).second)
        return makeError(Where + ": txout " + In.Prevout.toString() +
                         " is spent by two pool transactions");
      if (!Chain.utxo().contains(In.Prevout) &&
          !InPool.count(In.Prevout.Tx))
        return makeError(Where + ": input " + In.Prevout.toString() +
                         " is neither confirmed-unspent nor in-pool");
    }
  }
  return Status::success();
}

Status auditState(const State &S) {
  std::set<std::pair<std::string, uint32_t>> SeenInputs;
  for (const std::string &Txid : S.registeredTxids()) {
    const Transaction *T = S.find(Txid);
    if (!T)
      return makeError("audit: registered txid " + Txid.substr(0, 8) +
                       " has no body");
    for (const Input &In : T->Inputs) {
      auto Key = std::make_pair(In.SourceTxid, In.SourceIndex);
      if (!SeenInputs.insert(Key).second)
        return makeError("audit: txout " + In.SourceTxid + ":" +
                         std::to_string(In.SourceIndex) +
                         " is consumed by two registered transactions "
                         "(affine violation)");
      if (!S.isConsumed(In.SourceTxid, In.SourceIndex))
        return makeError("audit: input " + In.SourceTxid + ":" +
                         std::to_string(In.SourceIndex) +
                         " of a registered transaction is not marked "
                         "consumed");
    }
  }
  return Status::success();
}

void installChainAuditor(Blockchain &Chain) {
  Chain.setAuditHook(
      [](const Blockchain &C) { return auditChain(C); });
}

} // namespace tc
} // namespace typecoin
