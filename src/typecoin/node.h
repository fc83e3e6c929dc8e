//===- typecoin/node.h - A full Typecoin node ---------------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A full node: a Bitcoin chain + mempool coupled to the Typecoin chain
/// state. Typecoin transactions ride Bitcoin transactions (Section 3);
/// when a carrying Bitcoin transaction confirms, the node re-checks the
/// Typecoin transaction (or its first valid fallback) against the
/// block's timestamp and spent-evidence and registers it.
///
/// Registration is reorg-safe and delivery-safe:
///
///  * Pending carriers are keyed by the *Typecoin payload hash*, not the
///    Bitcoin txid, so a signature-malleated twin of the carrier
///    (Andrychowicz et al.) still registers the pair — under the txid
///    that actually confirmed.
///  * The node scans newly-matured chain regions (everything at least
///    `registrationDepth` deep) and records where it stopped; a reorg
///    that rewrites scanned history is detected and answered by
///    rebuilding the Typecoin state from genesis via \ref replayChain,
///    never by silently diverging.
///  * Submitted pairs persist in a journal, WAL-durable once a store is
///    attached (\ref openStore). A restarted node reopens its store and
///    rebuilds from the chain + journal on disk; unconfirmed pairs
///    re-enter the mempool and the resubmission queue, which \ref tick
///    drains with bounded exponential backoff.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_TYPECOIN_NODE_H
#define TYPECOIN_TYPECOIN_NODE_H

#include "bitcoin/miner.h"
#include "typecoin/embed.h"
#include "typecoin/state.h"
#include "typecoin/wallet.h"

#include <functional>

namespace typecoin {

namespace store {
class ChainStore;
class Vfs;
} // namespace store

namespace tc {

/// Condition oracle backed by a Bitcoin blockchain: `before(t)` is
/// judged against a fixed evaluation time (the block timestamp of the
/// transaction under check), `spent(txid.n)` against the best chain.
class ChainOracle : public logic::CondOracle {
public:
  ChainOracle(const bitcoin::Blockchain &Chain, uint64_t EvalTime)
      : Chain(Chain), EvalTime(EvalTime) {}

  uint64_t evaluationTime() const override { return EvalTime; }
  Result<bool> isSpent(const std::string &Txid,
                       uint32_t Index) const override;

private:
  const bitcoin::Blockchain &Chain;
  uint64_t EvalTime;
};

/// Convert display-hex txid to the wire type.
Result<bitcoin::TxId> txidFromHex(const std::string &Hex);

/// A coupled pair: the Typecoin transaction and the Bitcoin transaction
/// carrying its hash.
struct Pair {
  Transaction Tc;
  bitcoin::Transaction Btc;
};

/// The payload key a pair is tracked under: hex of `Tc.hash()` — stable
/// across carrier malleation, unlike the Bitcoin txid.
std::string payloadKey(const Pair &P);

/// Where a registered Typecoin payload landed on the chain.
struct Registration {
  std::string TxidHex;       ///< Confirmed carrier txid (display hex).
  bitcoin::BlockHash InBlock; ///< Best-chain block that carried it.
  int Height = 0;
};

/// Everything submitted through a node, keyed by payload hash.
using PairJournal = std::map<std::string, Pair>;

/// Resubmission backoff for pairs whose carriers have not confirmed.
/// Exponential with optional deterministic jitter: with JitterFraction
/// > 0, each delay is scaled by a factor in [1 - J, 1 + J) drawn from a
/// PRNG seeded by (JitterSeed, retry key, attempt) — reproducible, and
/// it de-synchronizes the post-recovery stampede where every pending
/// pair becomes eligible at the same tick. Defaults to 0 (exact
/// schedule) so simulation timelines stay byte-stable.
struct RetryPolicy {
  double InitialDelaySeconds = 2.0;
  double BackoffFactor = 2.0;
  double MaxDelaySeconds = 64.0;
  int MaxAttempts = 8;
  double JitterFraction = 0.0;
  uint64_t JitterSeed = 0;
};

/// The backoff delay before attempt \p Attempts + 1 (Attempts >= 1),
/// jittered per the policy. \p JitterKey identifies the retried item
/// (payload key, txid) so distinct items jitter independently.
double retryDelay(const RetryPolicy &Policy, int Attempts,
                  const std::string &JitterKey = std::string());

/// Rebuilt-from-genesis Typecoin view of a chain: scan every matured
/// block for carriers of journaled pairs and register them in chain
/// order. This is the rebuild a deep reorg, late adoption and start-up
/// run, and the cross-check for incremental registration.
struct ReplayResult {
  State TcState;
  std::map<std::string, Registration> Registered; ///< By payload hash.
  std::vector<std::string> SpoiledTxids;
};
Result<ReplayResult> replayChain(const bitcoin::Blockchain &Chain,
                                 const PairJournal &Journal,
                                 int RegistrationDepth);

/// A full node.
class Node {
public:
  explicit Node(bitcoin::ChainParams Params = defaultParams(),
                int RegistrationDepth = 1);
  ~Node(); // Out of line: owns a forward-declared store::ChainStore.

  /// Regtest-style parameters with instant coinbase maturity.
  static bitcoin::ChainParams defaultParams();

  /// How many confirmations a carrying Bitcoin transaction needs before
  /// its Typecoin transaction is registered (the paper's irreversibility
  /// threshold is six; tests default to one). Reorgs shallower than
  /// this depth never touch registered state; deeper ones trigger a
  /// from-genesis rebuild (see \ref replayChain).
  int registrationDepth() const { return RegistrationDepth; }

  bitcoin::Blockchain &chain() { return Chain; }
  const bitcoin::Blockchain &chain() const { return Chain; }
  bitcoin::Mempool &mempool() { return Pool; }
  State &state() { return TcState; }
  const State &state() const { return TcState; }

  /// Validate a pair (correspondence, one provisional Typecoin check of
  /// each alternative at the current tip time, then relay policy),
  /// journal it, and queue it for mining. The pair stays pending — and is periodically
  /// resubmitted by \ref tick — until a carrier with its payload
  /// confirms at registration depth.
  Status submitPair(const Pair &P);

  /// Submit a plain Bitcoin transaction (no Typecoin overlay), e.g.
  /// cracking a resource open to recover the bitcoins (Section 3.1).
  Status submitPlain(const bitcoin::Transaction &Btc);

  /// Mine one block at \p Time paying \p Payout, then register any
  /// newly-matured Typecoin carriers. Returns the Bitcoin txids of
  /// Typecoin transactions that spoiled, if any.
  Result<std::vector<std::string>> mineBlock(const crypto::KeyId &Payout,
                                             uint32_t Time);

  /// Accept an externally-mined block (a peer's relay). Revalidates the
  /// mempool against the possibly-reorganized chain and synchronizes
  /// Typecoin registrations; a reorg past scanned history triggers the
  /// from-genesis rebuild. Returns newly-spoiled txids.
  Result<std::vector<std::string>> submitBlock(const bitcoin::Block &B);

  // --- Durable store ----------------------------------------------------

  /// What the start-up rebuild of \ref openStore restored, so operators
  /// (and the `node.recover.*` obs counters) can see exactly how much
  /// state a restart recovered.
  struct RecoverStats {
    size_t Registered = 0;         ///< Re-registered from the chain.
    size_t Requeued = 0;           ///< Back in the resubmission queue.
    size_t MempoolReadmitted = 0;  ///< Unconfirmed carriers re-admitted.
    size_t MempoolDropped = 0;     ///< Pool entries the start-up dropped.
  };

  /// What \ref openStore found and rebuilt.
  struct StoreRecoverStats {
    /// State was rebuilt from the on-disk store (vs. a fresh/bootstrap
    /// store that was seeded from this node's in-memory state).
    bool FromDisk = false;
    uint64_t Epoch = 0;            ///< Last durable epoch (0 = none).
    size_t BlocksReplayed = 0;     ///< Blocks re-connected from the log.
    size_t BlockReplayErrors = 0;  ///< Log records the chain rejected.
    size_t JournalRestored = 0;    ///< Pairs from snapshot + WAL.
    bool DigestMismatch = false;   ///< Snapshot UTXO digest cross-check
                                   ///< failed; fell back to full
                                   ///< validation.
    RecoverStats Rebuild;          ///< The start-up rebuild.
  };

  /// Attach a durable chainstate store at \p Dir (see store/
  /// chainstore.h). When the store already holds state, the node
  /// rebuilds from disk: blocks replay through the validated connect
  /// path (script checks skipped up to the last durable epoch's tip,
  /// whose UTXO digest is cross-checked), the registration journal is
  /// restored from the snapshot plus the WAL, the Typecoin state is
  /// rebuilt from genesis, and unconfirmed journaled carriers re-enter
  /// the mempool and the resubmission queue. When the store is empty,
  /// the node's current in-memory state seeds it (from-genesis
  /// bootstrap). After this call every accepted pair is WAL-durable
  /// before submitPair returns, and every \p EpochInterval persisted
  /// blocks trigger a flush epoch. The Vfs must outlive the node.
  Result<StoreRecoverStats> openStore(store::Vfs &V, const std::string &Dir,
                                      uint64_t EpochInterval = 8);

  /// Env-driven convenience: attach a PosixVfs store at
  /// `$TYPECOIN_STORE_DIR` (no-op when unset), wrapped in a FaultVfs
  /// per `$TYPECOIN_STORE_FAULTS` (`<kind>@<op>[:seed]`) when set.
  Result<bool> openStoreFromEnv();

  /// The attached store, or nullptr.
  store::ChainStore *store() { return Store.get(); }

  /// Force a flush epoch now (blocks fsync'd, snapshot replaced, WAL
  /// truncated). No-op without a store.
  Status flushStoreEpoch();

  // --- Resubmission queue -----------------------------------------------

  /// Hook invoked whenever \ref tick resubmits a pair (wire this to a
  /// network relay). Initial submission does not invoke it.
  void setRelay(std::function<void(const Pair &)> Hook) {
    Relay = std::move(Hook);
  }
  void setRetryPolicy(const RetryPolicy &P) { Retry = P; }
  const RetryPolicy &retryPolicy() const { return Retry; }

  /// Resubmit every pending pair whose backoff deadline has passed at
  /// \p Now (seconds, same clock as block timestamps). A pair whose
  /// carrier is confirmed on the best chain is skipped without using an
  /// attempt. Gives up on a pair after RetryPolicy::MaxAttempts. Returns
  /// how many were resubmitted.
  size_t tick(double Now);

  /// Unconfirmed journaled pairs awaiting (re)submission.
  size_t pendingCount() const { return Pending.size(); }
  /// Submission attempts so far for a payload key (0 if unknown).
  int attemptsOf(const std::string &PayloadHex) const;

  // --- Registration queries ---------------------------------------------

  /// Has the payload of \p P been registered (under whatever txid its
  /// carrier — possibly a malleated twin — confirmed as)?
  bool isRegistered(const std::string &PayloadHex) const {
    return Registered.count(PayloadHex) != 0;
  }
  const Registration *registrationOf(const std::string &PayloadHex) const;
  const PairJournal &journal() const { return Journal; }

  /// Confirmations of the Bitcoin transaction carrying a pair.
  int confirmations(const std::string &TxidHex) const;

  /// The current simulated clock (last block time).
  uint32_t now() const { return Chain.tipTime(); }

private:
  /// A journaled pair whose carrier has not yet reached registration
  /// depth, with its resubmission schedule.
  struct PendingCarrier {
    Pair P;
    int Attempts = 0;
    double NextRetryTime = 0;
  };

  /// Incrementally scan newly-matured blocks for journaled carriers; on
  /// detecting that scanned history was reorganized away, rebuild
  /// everything via \ref replayChain. Returns newly-spoiled txids.
  Result<std::vector<std::string>> syncRegistrations();
  /// Journal a pair whose carrier already confirmed on the best chain
  /// (a client retrying after a refused durable ack, or a peer
  /// re-sending a confirmed pair) and rebuild registrations from the
  /// chain. Idempotent for already-journaled payloads.
  Status adoptConfirmedPair(const Pair &P);
  double backoffDelay(int Attempts,
                      const std::string &JitterKey = std::string()) const;

  /// The one from-genesis rebuild, run on a deep reorg, a late
  /// adoption and at start-up: \ref replayChain over (Chain, Journal),
  /// the scan frontier moved to the matured tip, and journaled pairs
  /// that are neither registered nor pending queued for resubmission.
  /// Queued pairs keep their schedules; the mempool is left alone.
  /// Returns newly-spoiled txids.
  Result<std::vector<std::string>> rebuildFromGenesis();
  /// Move the scan frontier to the matured tip and drop registered
  /// pairs from the pending queue.
  void advanceFrontier();
  /// Write \p B through to the block log and run the epoch trigger.
  void persistBlock(const bitcoin::Block &B);
  /// Refresh the store.* obs gauges.
  void updateStoreGauges();

  bitcoin::Blockchain Chain;
  bitcoin::Mempool Pool;
  State TcState;
  int RegistrationDepth;

  PairJournal Journal; ///< WAL-durable once a store is attached.
  std::map<std::string, PendingCarrier> Pending; ///< By payload hash.
  std::map<std::string, Registration> Registered; ///< By payload hash.
  /// Scan frontier: the highest matured height already scanned, and the
  /// best-chain hash observed there (mismatch later = deep reorg).
  int LastScannedHeight = 0;
  bitcoin::BlockHash LastScannedHash{};

  RetryPolicy Retry;
  std::function<void(const Pair &)> Relay;

  std::unique_ptr<store::ChainStore> Store;
  uint64_t EpochInterval = 8;
  /// Backends owned when the store came from \ref openStoreFromEnv.
  std::unique_ptr<store::Vfs> OwnedVfs;
  std::unique_ptr<store::Vfs> OwnedFaultVfs;
};

} // namespace tc
} // namespace typecoin

#endif // TYPECOIN_TYPECOIN_NODE_H
