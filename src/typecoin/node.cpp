//===- typecoin/node.cpp - A full Typecoin node --------------------------------===//

#include "typecoin/node.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/chainstore.h"
#include "store/faultvfs.h"
#include "support/rng.h"
#include "typecoin/audit.h"
#include "typecoin/persist.h"

#include <algorithm>
#include <cstdlib>

namespace typecoin {
namespace tc {

Result<bitcoin::TxId> txidFromHex(const std::string &Hex) {
  TC_UNWRAP(Raw, fromHexFixed<32>(Hex));
  std::reverse(Raw.begin(), Raw.end());
  bitcoin::TxId Id;
  Id.Hash = Raw;
  return Id;
}

Result<bool> ChainOracle::isSpent(const std::string &Txid,
                                  uint32_t Index) const {
  TC_UNWRAP(Id, txidFromHex(Txid));
  return Chain.isSpent(bitcoin::OutPoint{Id, Index});
}

std::string payloadKey(const Pair &P) { return toHex(P.Tc.hash()); }

/// Scan blocks [From, To] of the best chain (inclusive), registering
/// any transaction that carries the payload of a journaled pair and is
/// not yet registered. Shared by incremental sync and full replay.
static Result<std::vector<std::string>>
scanRange(const bitcoin::Blockchain &Chain, const PairJournal &Journal,
          State &TcState, std::map<std::string, Registration> &Registered,
          int From, int To) {
  std::vector<std::string> Spoiled;
  for (int H = From; H <= To; ++H) {
    auto Hash = Chain.blockHashAt(H);
    if (!Hash)
      continue;
    const bitcoin::Block *B = Chain.blockByHash(*Hash);
    if (!B)
      continue;
    for (const bitcoin::Transaction &Tx : B->Txs) {
      if (Tx.isCoinbase())
        continue;
      auto Meta = extractMetadata(Tx);
      if (!Meta)
        continue;
      std::string Payload = toHex(*Meta);
      auto JIt = Journal.find(Payload);
      if (JIt == Journal.end() || Registered.count(Payload))
        continue;
      // The confirmed carrier may be a signature-malleated twin of the
      // one we broadcast (different txid, same effect); correspondence
      // only constrains what the payload actually commits to, so it
      // accepts the twin and rejects unrelated transactions that merely
      // embed the same hash.
      if (!checkCorrespondence(JIt->second.Tc, Tx))
        continue;
      std::string TxidHex = Tx.txid().toHex();
      // Conditions are judged at the transaction's own block (Section 5:
      // "unambiguous evidence ... for any particular transaction in the
      // blockchain").
      ChainOracle Oracle(Chain, B->Header.Time);
      TC_UNWRAP(Selected,
                TcState.applyTransaction(JIt->second.Tc, TxidHex, Oracle));
      Registered[Payload] = Registration{TxidHex, *Hash, H};
      if (Selected > JIt->second.Tc.Fallbacks.size())
        Spoiled.push_back(TxidHex);
    }
  }
  return Spoiled;
}

Result<ReplayResult> replayChain(const bitcoin::Blockchain &Chain,
                                 const PairJournal &Journal,
                                 int RegistrationDepth) {
  ReplayResult Out;
  int End = Chain.height() - RegistrationDepth + 1;
  if (End < 1)
    return Out;
  TC_UNWRAP(Spoiled, scanRange(Chain, Journal, Out.TcState, Out.Registered,
                               1, End));
  Out.SpoiledTxids = std::move(Spoiled);
  return Out;
}

bitcoin::ChainParams Node::defaultParams() {
  bitcoin::ChainParams Params;
  Params.CoinbaseMaturity = 1;
  return Params;
}

Node::Node(bitcoin::ChainParams Params, int RegistrationDepth)
    : Chain(std::move(Params)), RegistrationDepth(RegistrationDepth) {
#ifdef TYPECOIN_AUDIT
  // Debug builds re-derive the ledger invariants after every block
  // connect/disconnect (typecoin/audit.h).
  installChainAuditor(Chain);
#endif
}

Node::~Node() = default;

double retryDelay(const RetryPolicy &Policy, int Attempts,
                  const std::string &JitterKey) {
  double Delay = Policy.InitialDelaySeconds;
  for (int I = 1; I < Attempts; ++I) {
    Delay *= Policy.BackoffFactor;
    if (Delay >= Policy.MaxDelaySeconds) {
      Delay = Policy.MaxDelaySeconds;
      break;
    }
  }
  Delay = std::min(Delay, Policy.MaxDelaySeconds);
  if (Policy.JitterFraction > 0.0) {
    // Deterministic per-(key, attempt) jitter: a stable hash of the
    // retried item folded with the policy seed and the attempt count,
    // so replays of the same schedule are reproducible and two items
    // recovering together fan out instead of stampeding.
    uint64_t H = 1469598103934665603ull ^ Policy.JitterSeed;
    for (char C : JitterKey) {
      H ^= static_cast<uint8_t>(C);
      H *= 1099511628211ull;
    }
    H ^= static_cast<uint64_t>(Attempts);
    H *= 1099511628211ull;
    Rng R(H);
    double Scale = 1.0 + Policy.JitterFraction * (2.0 * R.nextDouble() - 1.0);
    Delay *= Scale;
  }
  return Delay;
}

double Node::backoffDelay(int Attempts, const std::string &JitterKey) const {
  return retryDelay(Retry, Attempts, JitterKey);
}

/// Obs probes for the submission pipeline: one counter per rejection
/// site plus a latency histogram per stage, so `tcstat` can attribute
/// submit-path time to correspondence vs the full check.
namespace {
struct SubmitMetrics {
  obs::Counter &Accepted = obs::counter("node.submit.accepted");
  obs::Counter &RejectedCorrespondence =
      obs::counter("node.submit.rejected.correspondence");
  obs::Counter &RejectedPrecheck =
      obs::counter("node.submit.rejected.precheck");
  obs::Counter &RejectedMempool =
      obs::counter("node.submit.rejected.mempool");
  obs::Histogram &EmbedNs = obs::latencyHistogram("node.submit.embed_ns");
  obs::Histogram &PrecheckNs =
      obs::latencyHistogram("node.submit.precheck_ns");

  static SubmitMetrics &get() {
    static SubmitMetrics M;
    return M;
  }
};
} // namespace

Status Node::submitPair(const Pair &P) {
  SubmitMetrics &M = SubmitMetrics::get();
  obs::Span Trace("node.submitPair");
  {
    obs::ScopedTimer Timer(M.EmbedNs);
    if (auto S = checkCorrespondence(P.Tc, P.Btc); !S) {
      M.RejectedCorrespondence.inc();
      return S;
    }
  }
  // Late adoption: the carrier already confirmed, so the provisional
  // mempool path is meaningless — its inputs were spent by its own
  // confirmation, and the authoritative Typecoin check already ran (or
  // will run) at the block's own timestamp during registration. This
  // happens when a client retries after a crash (or a refused durable
  // ack) on a node that meanwhile saw the carrier confirm, or when a
  // peer re-sends a confirmed pair during healing.
  if (Chain.confirmations(P.Btc.txid()) >= 1)
    return adoptConfirmedPair(P);

  // Provisional Typecoin check against the present chain view; the
  // authoritative check happens at confirmation time.
  ChainOracle Oracle(Chain, Chain.tipTime());
  {
    obs::ScopedTimer Timer(M.PrecheckNs);
    // One pass over the alternatives: a currently-invalid primary is
    // still relayable when some fallback is valid (Section 5).
    if (auto Sel = TcState.selectValid(P.Tc, Oracle); !Sel) {
      M.RejectedPrecheck.inc();
      return Sel.takeError().withContext("typecoin pre-check");
    }
  }
  if (auto S = Pool.acceptTransaction(P.Btc, Chain); !S) {
    M.RejectedMempool.inc();
    return S;
  }

  std::string Payload = payloadKey(P);
  // Durable-ack contract: once a store is attached, the pair's WAL
  // record is fsync'd before submitPair returns success. A write
  // failure (e.g. ENOSPC) rejects the submission — the caller retries —
  // rather than acking state a crash would forget.
  if (Store) {
    if (auto S = Store->appendWal(store::WalKind::PairAdd, Payload,
                                  serializePair(P));
        !S) {
      static obs::Counter &WalFailed = obs::counter("store.wal.failed");
      WalFailed.inc();
      return S.takeError().withContext("store: journal write-through");
    }
    updateStoreGauges();
  }
  Journal[Payload] = P;
  if (!Registered.count(Payload)) {
    PendingCarrier PC;
    PC.P = P;
    PC.Attempts = 1;
    PC.NextRetryTime =
        static_cast<double>(Chain.tipTime()) + backoffDelay(1, Payload);
    Pending[Payload] = std::move(PC);
  }
  M.Accepted.inc();
  return Status::success();
}

Status Node::adoptConfirmedPair(const Pair &P) {
  std::string Payload = payloadKey(P);
  if (Journal.count(Payload))
    return Status::success(); // Already known; registration is chain-driven.
  // Same durable-ack contract as the pending path: the journal entry
  // must be WAL-durable before the adoption is acknowledged.
  if (Store) {
    if (auto S = Store->appendWal(store::WalKind::PairAdd, Payload,
                                  serializePair(P));
        !S) {
      static obs::Counter &WalFailed = obs::counter("store.wal.failed");
      WalFailed.inc();
      return S.takeError().withContext("store: journal write-through");
    }
    updateStoreGauges();
  }
  Journal[Payload] = P;
  static obs::Counter &Adopted = obs::counter("node.submit.late_adopted");
  Adopted.inc();
  // The incremental scan frontier is already past the carrier's block:
  // rebuild the Typecoin view from the chain so the adopted pair
  // registers (or joins the resubmission queue if its carrier has not
  // matured to registration depth yet).
  if (auto R = rebuildFromGenesis(); !R)
    return R.takeError().withContext("late adoption rebuild");
  return Status::success();
}

Status Node::submitPlain(const bitcoin::Transaction &Btc) {
  return Pool.acceptTransaction(Btc, Chain);
}

Result<std::vector<std::string>> Node::syncRegistrations() {
  // Deep-reorg detection: the scan frontier or any registration's block
  // is no longer on the best chain. Shallow reorgs (entirely above the
  // frontier) never trip this — matured history is stable by
  // construction unless a reorg crosses registrationDepth.
  bool Diverged = false;
  if (LastScannedHeight > 0) {
    auto H = Chain.blockHashAt(LastScannedHeight);
    if (!H || !(*H == LastScannedHash))
      Diverged = true;
  }
  if (!Diverged)
    for (const auto &[Payload, Reg] : Registered) {
      auto H = Chain.blockHashAt(Reg.Height);
      if (!H || !(*H == Reg.InBlock)) {
        Diverged = true;
        break;
      }
    }

  if (Diverged) {
    // Rewritten history: rather than patching state whose premises are
    // gone, rebuild the whole Typecoin view from genesis against the
    // new best chain.
    static obs::Counter &DeepReorgs = obs::counter("node.deep_reorg.count");
    DeepReorgs.inc();
    return rebuildFromGenesis();
  }
  std::vector<std::string> Spoiled;
  int End = Chain.height() - RegistrationDepth + 1;
  if (End > LastScannedHeight) {
    TC_UNWRAP(S, scanRange(Chain, Journal, TcState, Registered,
                           LastScannedHeight + 1, End));
    Spoiled = std::move(S);
  }
  advanceFrontier();
  return Spoiled;
}

Result<std::vector<std::string>> Node::rebuildFromGenesis() {
  obs::Span Trace("node.replayChain");
  TC_UNWRAP(R, replayChain(Chain, Journal, RegistrationDepth));
  TcState = std::move(R.TcState);
  Registered = std::move(R.Registered);
  advanceFrontier();
  // A journaled pair whose carrier is not on the best chain (it fell
  // out in a reorg, or it was never queued here) is eligible for
  // resubmission at the next tick; queued pairs keep their schedules.
  for (const auto &[Payload, P] : Journal)
    if (!Registered.count(Payload) && !Pending.count(Payload))
      Pending[Payload] = PendingCarrier{P};
#ifdef TYPECOIN_AUDIT
  TC_TRY(auditState(TcState));
#endif
  return std::move(R.SpoiledTxids);
}

void Node::advanceFrontier() {
  int End = Chain.height() - RegistrationDepth + 1;
  LastScannedHeight = std::max(End, 0);
  LastScannedHash = End >= 1 ? *Chain.blockHashAt(End) : bitcoin::BlockHash{};
  for (const auto &[Payload, Reg] : Registered)
    Pending.erase(Payload);
}

Result<std::vector<std::string>>
Node::mineBlock(const crypto::KeyId &Payout, uint32_t Time) {
  TC_UNWRAP(Block, bitcoin::mineAndSubmit(Chain, Pool, Payout, Time));
  persistBlock(Block);
  TC_UNWRAP(Spoiled, syncRegistrations());
#ifdef TYPECOIN_AUDIT
  TC_TRY(auditMempool(Pool, Chain));
  TC_TRY(auditState(TcState));
#endif
  return Spoiled;
}

Result<std::vector<std::string>> Node::submitBlock(const bitcoin::Block &B) {
  TC_TRY(Chain.submitBlock(B));
  persistBlock(B);
  // The block may have extended the tip or triggered a reorganization;
  // either way the pool must be consistent with the new best chain.
  Pool.revalidate(Chain);
  TC_UNWRAP(Spoiled, syncRegistrations());
#ifdef TYPECOIN_AUDIT
  TC_TRY(auditMempool(Pool, Chain));
  TC_TRY(auditState(TcState));
#endif
  return Spoiled;
}

size_t Node::tick(double Now) {
  static obs::Counter &Attempts = obs::counter("node.resubmit.attempts");
  static obs::Counter &Exhausted = obs::counter("node.resubmit.exhausted");
  size_t Resubmitted = 0;
  for (auto &[Payload, PC] : Pending) {
    if (PC.Attempts >= Retry.MaxAttempts)
      continue; // Gave up; the pair stays journaled but is not retried.
    if (Now < PC.NextRetryTime)
      continue;
    // A confirmed carrier waits for registration depth; re-offering it
    // would only be rejected and spend an attempt the carrier needs if
    // a reorg later drops it (reorgs do not refill the mempool).
    if (Chain.confirmations(PC.P.Btc.txid()) >= 1)
      continue;
    // Re-admission can fail transiently (e.g. inputs held by a
    // conflicting pool entry that a reorg will evict); count the
    // attempt either way so backoff still applies.
    (void)Pool.acceptTransaction(PC.P.Btc, Chain);
    if (Relay)
      Relay(PC.P);
    ++PC.Attempts;
    Attempts.inc();
    if (PC.Attempts >= Retry.MaxAttempts)
      Exhausted.inc();
    PC.NextRetryTime = Now + backoffDelay(PC.Attempts, Payload);
    ++Resubmitted;
  }
  if (Resubmitted) {
    static obs::Counter &Resubmits = obs::counter("node.resubmit.count");
    Resubmits.inc(Resubmitted);
  }
  return Resubmitted;
}

void Node::updateStoreGauges() {
  if (!Store)
    return;
  static obs::Gauge &WalBytes = obs::gauge("store.wal.bytes");
  static obs::Gauge &DirtyBlocks = obs::gauge("store.dirty.blocks");
  static obs::Gauge &EpochG = obs::gauge("store.epoch");
  WalBytes.set(static_cast<int64_t>(Store->walBytes()));
  DirtyBlocks.set(static_cast<int64_t>(Store->dirtyBlocks()));
  EpochG.set(static_cast<int64_t>(Store->epochNumber()));
}

void Node::persistBlock(const bitcoin::Block &B) {
  if (!Store)
    return;
  // Block bytes are re-derivable from peers, so a failed append is
  // survivable (counted, not fatal): recovery replays a shorter log and
  // heals by resync. Journal writes, by contrast, are durable-ack.
  if (!Store->appendBlock(B.hash().toHex(), B.serialize())) {
    static obs::Counter &Failed = obs::counter("store.block_persist.failed");
    Failed.inc();
    updateStoreGauges();
    return;
  }
  if (Store->dirtyBlocks() >= EpochInterval) {
    if (!flushStoreEpoch()) {
      static obs::Counter &Failed = obs::counter("store.flush.failed");
      Failed.inc();
    }
  }
  updateStoreGauges();
}

Status Node::flushStoreEpoch() {
  if (!Store)
    return Status::success();
  static obs::Histogram &FlushNs = obs::latencyHistogram("store.flush_ns");
  obs::ScopedTimer Timer(FlushNs);

  store::EpochData Data;
  Data.Number = Store->epochNumber() + 1;
  Data.TipHashHex = Chain.tipHash().toHex();
  Data.TipHeight = static_cast<uint32_t>(Chain.height());
  Data.UtxoDigestHex = utxoDigestHex(Chain.utxo());
  for (const auto &[Payload, P] : Journal)
    Data.Journal.emplace_back(Payload, serializePair(P));
  // Unresolved deferred write-throughs (batch server) roll forward into
  // the new snapshot so truncating the WAL cannot lose them.
  Data.Deferred = Store->liveDeferred();
  Data.Utxo = serializeUtxo(Chain.utxo());
  TC_TRY(Store->flushEpoch(Data));
  updateStoreGauges();
  return Status::success();
}

Result<Node::StoreRecoverStats>
Node::openStore(store::Vfs &V, const std::string &Dir,
                uint64_t EpochIntervalBlocks) {
  static obs::Counter &FromDiskC = obs::counter("store.recover.from_disk");
  static obs::Counter &BootstrapC = obs::counter("store.recover.bootstrap");
  static obs::Counter &EpochCorruptC =
      obs::counter("store.recover.epoch_corrupt");
  static obs::Counter &ReplayErrC =
      obs::counter("store.recover.block_replay_errors");
  static obs::Counter &DigestMismatchC =
      obs::counter("store.recover.digest_mismatch");
  static obs::Counter &DigestUnhealedC =
      obs::counter("store.recover.digest_mismatch_unhealed");

  obs::Span Trace("node.openStore");
  EpochInterval = EpochIntervalBlocks == 0 ? 1 : EpochIntervalBlocks;
  TC_UNWRAP(Opened, store::ChainStore::open(V, Dir));
  Store = std::move(Opened);

  StoreRecoverStats Stats;
  const store::OpenStats &OS = Store->openStats();
  if (OS.EpochCorrupt)
    EpochCorruptC.inc();
  Stats.FromDisk = OS.HadEpoch || OS.BlockRecords > 0 || OS.WalRecords > 0;

  if (!Stats.FromDisk) {
    // Fresh store: seed it from the node's current in-memory state
    // (from-genesis bootstrap). The genesis block is derived from the
    // chain parameters, so only heights >= 1 are logged.
    BootstrapC.inc();
    std::vector<std::pair<int, const bitcoin::Block *>> Blocks;
    Chain.forEachBlock([&](const bitcoin::Block &B, int Height, bool) {
      if (Height > 0)
        Blocks.emplace_back(Height, &B);
    });
    std::stable_sort(Blocks.begin(), Blocks.end(),
                     [](const auto &A, const auto &B) {
                       return A.first < B.first;
                     });
    for (const auto &[Height, B] : Blocks) {
      (void)Height;
      TC_TRY(Store->appendBlock(B->hash().toHex(), B->serialize()));
    }
    TC_TRY(flushStoreEpoch());
    Stats.Epoch = Store->epochNumber();
    updateStoreGauges();
    return Stats;
  }

  // Rebuild from disk. Blocks replay through the full validated connect
  // path; when a durable epoch attests a tip, script checks are skipped
  // up to its height and the snapshot's UTXO digest is cross-checked
  // the moment the rebuilt tip matches it.
  FromDiskC.inc();
  const store::EpochData *Epoch = Store->epoch();
  Stats.Epoch = Epoch ? Epoch->Number : 0;

  auto ReplayBlocks = [&](bool AssumeValid) -> bool {
    // Returns whether the digest cross-check held (vacuously true
    // without an epoch or when the tip never reached the epoch tip).
    Stats.BlocksReplayed = 0;
    Stats.BlockReplayErrors = 0;
    if (AssumeValid && Epoch)
      Chain.setAssumeValidHeight(static_cast<int>(Epoch->TipHeight));
    bool DigestOk = true;
    bool DigestChecked = false;
    for (const auto &[HashHex, BlockBytes] : Store->blockRecords()) {
      auto B = bitcoin::Block::deserialize(BlockBytes);
      if (!B || !Chain.submitBlock(*B)) {
        // Undecodable or unconnectable records (e.g. children of a
        // crash-truncated parent) are counted and skipped; resync from
        // peers heals the gap.
        ++Stats.BlockReplayErrors;
        continue;
      }
      ++Stats.BlocksReplayed;
      if (Epoch && !DigestChecked &&
          Chain.tipHash().toHex() == Epoch->TipHashHex) {
        DigestChecked = true;
        DigestOk = utxoDigestHex(Chain.utxo()) == Epoch->UtxoDigestHex;
      }
    }
    Chain.setAssumeValidHeight(-1);
    return DigestOk;
  };

  if (!ReplayBlocks(/*AssumeValid=*/true)) {
    // The snapshot's UTXO digest disagrees with the assume-valid
    // replay: distrust the snapshot and re-validate everything.
    DigestMismatchC.inc();
    Stats.DigestMismatch = true;
    Chain = bitcoin::Blockchain(Chain.params());
#ifdef TYPECOIN_AUDIT
    installChainAuditor(Chain);
#endif
    if (!ReplayBlocks(/*AssumeValid=*/false)) {
      // Full validation accepted the blocks yet the digest still
      // disagrees: the snapshot itself is wrong. The fully-validated
      // chain wins; flag loudly.
      DigestUnhealedC.inc();
    }
  }
  ReplayErrC.inc(Stats.BlockReplayErrors);

  // Registration journal: snapshot entries first, then WAL records
  // appended since the snapshot (idempotent map inserts).
  Journal.clear();
  auto RestorePair = [&](const std::string &Key, const Bytes &Payload) {
    auto P = deserializePair(Payload);
    if (!P) {
      static obs::Counter &BadPairs =
          obs::counter("store.recover.bad_pair_records");
      BadPairs.inc();
      return;
    }
    Journal[Key] = P.takeValue();
  };
  if (Epoch)
    for (const auto &[Key, Payload] : Epoch->Journal)
      RestorePair(Key, Payload);
  for (const store::WalRecord &Rec : Store->walRecords())
    if (Rec.Kind == store::WalKind::PairAdd)
      RestorePair(Rec.Key, Rec.Payload);
  Stats.JournalRestored = Journal.size();

  // Start-up: the from-genesis rebuild, then the unconfirmed carriers
  // back into the empty mempool (best effort — their inputs may have
  // been spent while the node was down).
  {
    static obs::Counter &RegisteredC =
        obs::counter("node.recover.registered");
    static obs::Counter &RequeuedC = obs::counter("node.recover.requeued");
    static obs::Counter &ReadmittedC =
        obs::counter("node.recover.mempool_readmitted");
    static obs::Histogram &RecoverNs =
        obs::latencyHistogram("node.recover_ns");
    obs::ScopedTimer Timer(RecoverNs);
    obs::Span Trace("node.recover");
    RecoverStats &R = Stats.Rebuild;
    R.MempoolDropped = Pool.clear();
    Pending.clear();
    TC_TRY(rebuildFromGenesis());
    R.Registered = Registered.size();
    R.Requeued = Pending.size();
    for (const auto &[Payload, PC] : Pending)
      if (Pool.acceptTransaction(PC.P.Btc, Chain))
        ++R.MempoolReadmitted;
    RegisteredC.inc(R.Registered);
    RequeuedC.inc(R.Requeued);
    ReadmittedC.inc(R.MempoolReadmitted);
  }
  updateStoreGauges();
  return Stats;
}

Result<bool> Node::openStoreFromEnv() {
  const char *Dir = std::getenv("TYPECOIN_STORE_DIR");
  if (!Dir || !*Dir)
    return false;
  OwnedVfs.reset(new store::PosixVfs());
  store::Vfs *V = OwnedVfs.get();
  if (const char *Faults = std::getenv("TYPECOIN_STORE_FAULTS");
      Faults && *Faults) {
    TC_UNWRAP(Plan, store::parseFaultPlan(Faults));
    auto FV = std::make_unique<store::FaultVfs>(*OwnedVfs);
    FV->setPlan(Plan);
    OwnedFaultVfs = std::move(FV);
    V = OwnedFaultVfs.get();
  }
  TC_TRY(openStore(*V, Dir));
  return true;
}

int Node::attemptsOf(const std::string &PayloadHex) const {
  auto It = Pending.find(PayloadHex);
  return It == Pending.end() ? 0 : It->second.Attempts;
}

const Registration *
Node::registrationOf(const std::string &PayloadHex) const {
  auto It = Registered.find(PayloadHex);
  return It == Registered.end() ? nullptr : &It->second;
}

int Node::confirmations(const std::string &TxidHex) const {
  auto Id = txidFromHex(TxidHex);
  if (!Id)
    return 0;
  return Chain.confirmations(*Id);
}

} // namespace tc
} // namespace typecoin
