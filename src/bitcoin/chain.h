//===- bitcoin/chain.h - Block validation and the best chain ----*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The blockchain: a tree of validated blocks with most-work ("longest
/// branch") selection, reorganization with undo data, full transaction
/// validation against the UTXO set, and the queries Typecoin needs —
/// confirmation counts (Section 2, item 6: "once a transaction has
/// several subsequent blocks (usually taken as five), it may be
/// considered irreversible"), block timestamps for `before(t)`, and
/// spent-ness of txouts for `spent(txid.n)` (Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_BITCOIN_CHAIN_H
#define TYPECOIN_BITCOIN_CHAIN_H

#include "bitcoin/block.h"
#include "bitcoin/pow.h"
#include "bitcoin/utxo.h"
#include "crypto/keys.h"

#include <functional>
#include <map>
#include <optional>
#include <vector>

namespace typecoin {
namespace bitcoin {

/// Consensus parameters for a chain instance.
struct ChainParams {
  uint32_t GenesisBits = RegtestBits;
  double TargetSpacingSeconds = 600.0;
  int RetargetInterval = 2016;
  Amount Subsidy = BlockSubsidy;
  /// Blocks before a coinbase output may be spent (Bitcoin uses 100;
  /// tests shrink this).
  int CoinbaseMaturity = 100;
  /// If true, difficulty is retargeted; tests usually keep it fixed.
  bool Retargeting = false;
};

/// Where a confirmed transaction sits.
struct TxLocation {
  BlockHash InBlock;
  int Height = 0;
  uint32_t BlockTime = 0;
  size_t IndexInBlock = 0;
};

/// The validated block tree plus the state of its best branch.
class Blockchain {
public:
  explicit Blockchain(ChainParams Params);

  const ChainParams &params() const { return Params; }
  const Block &genesis() const { return Genesis; }

  /// Validate and store a block, extending or reorganizing the best
  /// chain as needed. Fails if the parent is unknown, the proof of work
  /// is invalid, or (when the block would join the best chain) its
  /// transactions do not validate. A valid block on an inferior branch
  /// is stored and succeeds without changing the tip.
  Status submitBlock(const Block &B);

  int height() const { return TipHeight; }
  BlockHash tipHash() const { return Tip; }
  uint32_t tipTime() const;
  double tipWork() const;

  /// Best-chain block hash at \p Height, if within range.
  std::optional<BlockHash> blockHashAt(int Height) const;
  const Block *blockByHash(const BlockHash &Hash) const;

  /// Visit every stored block — all branches, not just the best chain —
  /// in deterministic (block-hash) order, with its height and whether it
  /// currently sits on the best chain. Node::openStore uses this to seed
  /// a fresh store with every block, abandoned branches included.
  void forEachBlock(
      const std::function<void(const Block &B, int Height, bool OnBestChain)>
          &Fn) const;

  /// The UTXO set of the best chain.
  const UtxoSet &utxo() const { return Utxo; }

  /// Confirmations for a transaction on the best chain (1 = in the tip
  /// block); 0 if unconfirmed/unknown.
  int confirmations(const TxId &Tx) const;

  /// Location of a confirmed transaction.
  std::optional<TxLocation> locate(const TxId &Tx) const;

  /// Typecoin's `spent(txid.n)` evidence (Section 5): true when the
  /// output was created on the best chain and is no longer unspent.
  /// Returns an error when the transaction is unknown (no evidence).
  Result<bool> isSpent(const OutPoint &Point) const;

  /// Next-block difficulty target.
  uint32_t nextBits() const;

  /// Total number of blocks stored (all branches).
  size_t blockCount() const { return Blocks.size(); }

  /// Fetch a confirmed transaction from the best chain.
  const Transaction *findTransaction(const TxId &Tx) const;

  /// Debug-mode invariant auditing (TYPECOIN_AUDIT / typecoin/audit.h):
  /// when set, the hook runs after every submitBlock that may have
  /// connected or disconnected blocks — including the restore path of a
  /// failed reorganization — and its failure is reported in preference
  /// to the block's own verdict.
  using AuditHook = std::function<Status(const Blockchain &)>;
  void setAuditHook(AuditHook Hook) { Audit = std::move(Hook); }

  /// Assume-valid replay (store recovery): skip input-script checks for
  /// blocks connecting at heights up to \p Height — their validity is
  /// attested by a durable epoch snapshot whose UTXO digest the caller
  /// cross-checks after replay (Node::openStore). All structural, PoW,
  /// amount and double-spend checks still run. Set to -1 (the default)
  /// to verify everything.
  void setAssumeValidHeight(int Height) { AssumeValidHeight = Height; }
  int assumeValidHeight() const { return AssumeValidHeight; }

private:
  struct IndexEntry {
    Block Blk;
    BlockHash Parent;
    int Height = 0;
    double ChainWork = 0.0;
    /// Undo data, present while the block is connected to the best
    /// chain.
    std::optional<BlockUndo> Undo;
    bool Invalid = false;
  };

  /// Full (context-free) block checks: PoW, merkle root, coinbase shape.
  /// \p Hash is the precomputed header hash (callers already have it).
  Status checkBlock(const Block &B, const BlockHash &Hash) const;
  /// Difficulty bits required for a child of \p Parent.
  uint32_t nextBitsFor(const BlockHash &Parent) const;
  /// Connect B's transactions onto the UTXO set (validating scripts and
  /// amounts) and update the tx index.
  Status connectBlock(IndexEntry &Entry);
  void disconnectTip();
  /// Reorganize the best chain to end at \p NewTipHash.
  Status activateChain(const BlockHash &NewTipHash);

  ChainParams Params;
  Block Genesis;
  std::map<BlockHash, IndexEntry> Blocks;
  BlockHash Tip;
  int TipHeight = 0;
  UtxoSet Utxo;
  /// Active-chain hashes by height.
  std::vector<BlockHash> ActiveChain;
  /// Tx index over the active chain.
  std::map<TxId, TxLocation> TxIndex;
  AuditHook Audit;
  int AssumeValidHeight = -1;
};

/// A deferred input-script verification: everything needed to check one
/// input independently of the UTXO set. The spent output's script is
/// copied because the UTXO entry is consumed (erased) when the spending
/// transaction is applied, before deferred checks run.
struct ScriptCheck {
  const Transaction *Tx = nullptr;
  size_t InputIndex = 0;
  Script ScriptPubKey;
  /// Position of Tx in its block; orders deterministic error reporting.
  size_t TxIndexInBlock = 0;

  /// Verify the input script; errors carry the "tx: input I" context the
  /// inline path produces.
  Status run() const;
};

/// Full transaction validation against a UTXO view: inputs present and
/// mature, amounts in range, fee non-negative, all input scripts verify.
/// Returns the fee.
///
/// With \p Deferred set, script verification is *not* run inline;
/// instead one ScriptCheck per input is appended for the caller to run
/// later (serially or across a thread pool). All other checks still run
/// inline.
Result<Amount> checkTxInputs(const Transaction &Tx, const UtxoSet &Utxo,
                             int SpendHeight, int CoinbaseMaturity,
                             std::vector<ScriptCheck> *Deferred = nullptr);

/// Run a batch of deferred script checks — across the shared
/// TYPECOIN_PAR_VERIFY pool when enabled, serially otherwise. The
/// reported error is deterministic regardless of thread schedule: the
/// failing check with the lowest (TxIndexInBlock, InputIndex) wins, with
/// "block: tx N" context attached.
Status runScriptChecks(const std::vector<ScriptCheck> &Checks);

} // namespace bitcoin
} // namespace typecoin

#endif // TYPECOIN_BITCOIN_CHAIN_H
