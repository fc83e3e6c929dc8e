//===- tests/net/chaos_parity_test.cpp - Chaos scenarios over the wire ----===//
//
// Fault plans applied to the real message-passing runtime through the
// fault-injecting Transport: deterministic replay under a fixed seed,
// convergence after lossy links heal, idempotent and accounted
// duplicate delivery, reordering absorbed by the orphan pool, bounded
// orphans, invalid-block relayers banned, crash/restart recovering the
// chain while losing the mempool, a restart that rebuilds a node from
// its disk's epoch and WAL, and a carrier malleated in flight
// (Andrychowicz et al.) still registering its payload.
//
//===----------------------------------------------------------------------===//

#include "chaosnet.h"

#include "net/fault.h"
#include "obs/metrics.h"
#include "store/chainstore.h"
#include "typecoin/audit.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::net;
using namespace typecoin::chaosutil;

namespace {

uint64_t delta(const obs::Snapshot &Before, const obs::Snapshot &After,
               const char *Name) {
  return After.counter(Name) - Before.counter(Name);
}

/// One run of the fixed mining schedule under \p Plan: final tip of
/// every node plus node 0's Typecoin state fingerprint.
struct Outcome {
  std::vector<bitcoin::BlockHash> Tips;
  std::string Fingerprint;

  bool operator==(const Outcome &O) const {
    return Tips == O.Tips && Fingerprint == O.Fingerprint;
  }
};

Outcome runScenario(uint64_t Seed, const FaultPlan &Plan) {
  Cluster C(testParams(), 4, Seed, quietTimers());
  C.setDefaultFault(Plan);
  auto Miner = keyFromSeed(11);
  double Clock = 0;
  for (int I = 0; I < 8; ++I) {
    Clock += 600;
    EXPECT_TRUE(
        C.mineAt(static_cast<size_t>(I % 4), Miner.id(), Clock).hasValue());
    C.settle();
  }
  Outcome O;
  for (size_t I = 0; I < C.size(); ++I)
    O.Tips.push_back(C.chain(I).tipHash());
  O.Fingerprint = C.node(0).typecoin().state().fingerprint();
  return O;
}

TEST(NetChaosParity, SameSeedSameOutcome) {
  FaultPlan Plan;
  Plan.Drop = 0.2;
  Plan.Duplicate = 0.2;
  Plan.JitterSeconds = 900;
  announce("net-determinism", 77, Plan.describe());
  Outcome A = runScenario(77, Plan);
  Outcome B = runScenario(77, Plan);
  ASSERT_EQ(A.Tips.size(), B.Tips.size());
  for (size_t I = 0; I < A.Tips.size(); ++I)
    EXPECT_TRUE(A.Tips[I] == B.Tips[I]) << "node " << I
                                        << " diverged on replay";
  EXPECT_EQ(A.Fingerprint, B.Fingerprint);
}

TEST(NetChaosParity, LossyLinksConvergeAfterHeal) {
  Cluster C(testParams(), 4, 5, quietTimers());
  FaultPlan Lossy;
  Lossy.Drop = 0.4;
  announce("net-lossy-links", 5, Lossy.describe());
  C.setDefaultFault(Lossy);
  auto Miner = keyFromSeed(12);
  double Clock = 0;
  for (int I = 0; I < 10; ++I) {
    Clock += 600;
    ASSERT_TRUE(
        C.mineAt(static_cast<size_t>(I % 4), Miner.id(), Clock).hasValue());
    C.settle();
  }
  // Drops may have left nodes behind (possibly on shorter forks).
  // Quiesce: lift the plans; clearFaults re-syncs every node because
  // dropped announcements never retransmit themselves.
  C.clearFaults();
  C.settle();
  EXPECT_TRUE(C.converged());
  for (size_t I = 0; I < C.size(); ++I)
    EXPECT_TRUE(tc::auditChain(C.chain(I)).hasValue()) << "node " << I;
}

TEST(NetChaosParity, DuplicatedDeliveryIsIdempotent) {
  Cluster C(testParams(), 3, 6, quietTimers());
  FaultPlan Dup;
  Dup.Duplicate = 1.0; // Every frame delivered twice.
  C.setDefaultFault(Dup);
  auto Miner = keyFromSeed(13);
  double Clock = 0;
  for (int I = 0; I < 5; ++I) {
    Clock += 600;
    ASSERT_TRUE(C.mineAt(0, Miner.id(), Clock).hasValue());
    C.settle();
  }
  EXPECT_TRUE(C.converged());
  for (size_t I = 0; I < C.size(); ++I) {
    EXPECT_EQ(C.chain(I).height(), 5) << "node " << I;
    // Duplicates must not inflate stored state or ban honest peers.
    EXPECT_EQ(C.chain(I).blockCount(), 6u) << "node " << I;
    for (size_t J = 0; J < C.size(); ++J)
      EXPECT_EQ(C.node(I).banScore(Cluster::addressOf(J)), 0)
          << I << " vs " << J;
  }
}

TEST(NetChaosParity, GossipDedupIsAccounted) {
  // Block gossip must not echo a block back to its sender, and the
  // duplicate announcements that do arrive (the mesh's crossing relays,
  // duplicate faults) are counted rather than silently reprocessed.
  Cluster C(testParams(), 3, 21, quietTimers());
  auto Miner = keyFromSeed(21);
  auto Snap0 = obs::Registry::instance().snapshot();
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 600).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());
  // Nodes 1 and 2 each relay to the other, which already holds the
  // block: every such re-announcement hits a known-inventory filter or
  // lands as a counted duplicate.
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_GE(delta(Snap0, Snap1, "net.inv.dedup") +
                delta(Snap0, Snap1, "net.inv.dup"),
            2u);

  // Under a duplicate-everything plan the second copy of each
  // announcement is visible as a counted duplicate.
  FaultPlan Dup;
  Dup.Duplicate = 1.0;
  C.setDefaultFault(Dup);
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 1200).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());
  auto Snap2 = obs::Registry::instance().snapshot();
  EXPECT_GE(delta(Snap1, Snap2, "net.inv.dup"), 2u);
}

TEST(NetChaosParity, JitterReordersThroughOrphanPool) {
  Cluster C(testParams(), 3, 7, quietTimers());
  FaultPlan Jitter;
  Jitter.JitterSeconds = 5000; // Far larger than the mining cadence:
                               // children routinely land first.
  C.setDefaultFault(Jitter);
  auto Miner = keyFromSeed(14);
  auto Snap0 = obs::Registry::instance().snapshot();
  double Clock = 0;
  for (int I = 0; I < 6; ++I) {
    Clock += 600;
    ASSERT_TRUE(C.mineAt(0, Miner.id(), Clock).hasValue());
    // No settle(): all six announcements are in flight at once with
    // independent jitter draws.
  }
  C.settle();
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(2).height(), 6);
  // The reordering really did park children ahead of their parents.
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_GT(delta(Snap0, Snap1, "net.orphan.added"), 0u);
}

TEST(NetChaosParity, OrphanPoolIsBoundedWithOldestFirstEviction) {
  NetConfig Base = quietTimers();
  Base.OrphanLimit = 2;
  Cluster C(testParams(), 2, 8, Base);
  auto Miner = keyFromSeed(15);

  // Lose the first block towards node 1, and silence node 1's return
  // path so its orphan-triggered GetHeaders recovery cannot kick in —
  // this scenario is about the pool's bound, not recovery.
  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  C.setLinkFault(0, 1, DropAll);
  C.setLinkFault(1, 0, DropAll);
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 600).hasValue());
  C.settle();
  C.setLinkFault(0, 1, FaultPlan());

  auto Snap0 = obs::Registry::instance().snapshot();
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(C.mineAt(0, Miner.id(), 1200 + 600 * I).hasValue());
  C.settle();
  EXPECT_EQ(C.chain(1).height(), 0);
  EXPECT_LE(C.node(1).orphanCount(), 2u); // Cap held.
  auto Snap1 = obs::Registry::instance().snapshot();
  // Oldest orphan actually evicted.
  EXPECT_GE(delta(Snap0, Snap1, "net.orphan.evicted"), 1u);

  // Recovery: lift the faults; the re-sync supplies the missing parent
  // and the evicted orphan again.
  C.clearFaults();
  C.settle();
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(1).height(), 4);
  EXPECT_EQ(C.node(1).orphanCount(), 0u);
}

TEST(NetChaosParity, InvalidBlockRelayGetsPeerBanned) {
  // Full-block relay only: the byzantine wrapper corrupts Block frames
  // in flight (compact announcements carry no body to corrupt).
  NetConfig Base = quietTimers();
  Base.CompactRelay = false;
  Base.Services = 0;
  Cluster C(testParams(), 3, 9, Base);
  ByzantinePlan Byz;
  Byz.InvalidBlock = 1.0;
  announce("net-byzantine-invalid-block", 9, Byz.describe());
  C.setByzantine(2, Byz);
  auto Honest = keyFromSeed(16), Evil = keyFromSeed(17);

  // The byzantine node mines a perfectly valid block but its relayed
  // copies are corrupted (broken Merkle root, valid PoW): both honest
  // nodes reject the block and ban the relayer.
  ASSERT_TRUE(C.mineAt(2, Evil.id(), 600).hasValue());
  C.settle();
  EXPECT_EQ(C.chain(0).height(), 0);
  EXPECT_EQ(C.chain(1).height(), 0);
  EXPECT_GE(C.node(0).banScore(Cluster::addressOf(2)), 100);
  EXPECT_GE(C.node(1).banScore(Cluster::addressOf(2)), 100);
  EXPECT_TRUE(C.node(0).isBanned(Cluster::addressOf(2)));
  EXPECT_FALSE(C.node(0).isBanned(Cluster::addressOf(1)));

  // Honest traffic is unaffected; the honest majority converges.
  ASSERT_TRUE(C.mineAt(0, Honest.id(), 1200).hasValue());
  C.settle();
  ASSERT_TRUE(C.mineAt(0, Honest.id(), 1800).hasValue());
  C.settle();
  EXPECT_TRUE(C.convergedAmong({0, 1}));
  EXPECT_EQ(C.chain(1).height(), 2);
}

TEST(NetChaosParity, MalleatedSignatureStillVerifiesUnderNewTxid) {
  // The primitive behind ByzantinePlan::MalleateRelay, after
  // Andrychowicz et al., "How to deal with malleability of BitCoin
  // transactions": flipping s -> n - s preserves ECDSA validity but
  // changes the serialized transaction, hence its txid.
  auto Key = keyFromSeed(18);
  bitcoin::Script Lock = bitcoin::makeP2PKH(Key.id());

  bitcoin::Transaction Tx;
  Tx.Inputs.push_back(bitcoin::TxIn{});
  Tx.Inputs[0].Prevout.Tx.Hash[0] = 1;
  Tx.Outputs.push_back(bitcoin::TxOut{5000, bitcoin::makeP2PKH(Key.id())});
  auto Sig = bitcoin::signInput(Tx, 0, Lock, {Key});
  ASSERT_TRUE(Sig.hasValue());
  Tx.Inputs[0].ScriptSig = *Sig;

  auto Twin = malleateTxSignatures(Tx);
  ASSERT_TRUE(Twin.has_value());
  EXPECT_FALSE(Twin->txid() == Tx.txid());

  bitcoin::TransactionSignatureChecker Checker(*Twin, 0, Lock);
  EXPECT_TRUE(bitcoin::verifyScript(Twin->Inputs[0].ScriptSig, Lock, Checker)
                  .hasValue());
}

TEST(NetChaosParity, MalleatedCarrierRegistersUnderTwinTxid) {
  // Node 2 hears node 0's carrier only through byzantine node 1, which
  // relays its s -> n - s twin: the twin spends the same outpoints with
  // the same authority under a different txid, and it is the twin that
  // node 2 mines. Registration is keyed by the Typecoin payload hash,
  // so node 0 still registers its pair — under the txid that confirmed.
  Cluster C(testParams(), 3, 31, quietTimers());
  Actor Alice(7031);
  ASSERT_TRUE(C.mineAt(0, Alice.id(), 600).hasValue());
  ASSERT_TRUE(C.mineAt(0, crypto::KeyId{}, 1200).hasValue()); // Maturity.
  C.settle();

  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  ByzantinePlan Byz;
  Byz.MalleateRelay = 1.0;
  announce("net-malleated-carrier", 31,
           "link 0->2 " + DropAll.describe() + "; byzantine(1) " +
               Byz.describe());
  C.setLinkFault(0, 2, DropAll);
  C.setByzantine(1, Byz);

  auto P = buildGrantPair(Alice, "ticket", Alice.pub(), C.chain(0));
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  auto Twin = malleateTxSignatures(P->Btc);
  ASSERT_TRUE(Twin.has_value());
  ASSERT_TRUE(C.node(0).submitPair(*P).hasValue());
  C.settle();
  EXPECT_TRUE(C.mempool(2).contains(Twin->txid()));
  EXPECT_FALSE(C.mempool(2).contains(P->Btc.txid()));

  ASSERT_TRUE(C.mineAt(2, crypto::KeyId{}, 1800).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());

  const tc::Node &Origin = C.node(0).typecoin();
  std::string Payload = tc::payloadKey(*P);
  ASSERT_TRUE(Origin.isRegistered(Payload));
  EXPECT_EQ(Origin.registrationOf(Payload)->TxidHex, Twin->txid().toHex());
  // The original (now conflicting) carrier was evicted from the pool.
  EXPECT_FALSE(C.mempool(0).contains(P->Btc.txid()));
  EXPECT_EQ(Origin.pendingCount(), 0u);
}

TEST(NetChaosParity, CrashLosesMempoolRestartRecoversChain) {
  Cluster C(testParams(), 3, 10, quietTimers());
  auto Miner = keyFromSeed(19);
  auto Alice = keyFromSeed(20);
  double Clock = 0;

  // Give node 1 some chain and a mempool entry.
  for (int I = 0; I < 3; ++I) {
    Clock += 600;
    ASSERT_TRUE(C.mineAt(1, Miner.id(), Clock).hasValue());
  }
  C.settle();

  bitcoin::Transaction Spend;
  {
    auto CoinbaseHash = C.chain(1).blockHashAt(1);
    ASSERT_TRUE(CoinbaseHash.has_value());
    const bitcoin::Block *B1 = C.chain(1).blockByHash(*CoinbaseHash);
    ASSERT_NE(B1, nullptr);
    Spend.Inputs.push_back(
        bitcoin::TxIn{bitcoin::OutPoint{B1->Txs[0].txid(), 0}, {}});
    Spend.Outputs.push_back(bitcoin::TxOut{
        B1->Txs[0].Outputs[0].Value - 10000, bitcoin::makeP2PKH(Alice.id())});
    auto Sig = bitcoin::signInput(Spend, 0,
                                  B1->Txs[0].Outputs[0].ScriptPubKey, {Miner});
    ASSERT_TRUE(Sig.hasValue());
    Spend.Inputs[0].ScriptSig = *Sig;
  }
  // Keep the transaction local to node 1 so the crash genuinely loses
  // it.
  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  C.setDefaultFault(DropAll);
  ASSERT_TRUE(C.submitTransaction(1, Spend).hasValue());
  C.settle();
  C.clearFaults();
  C.settle();
  EXPECT_EQ(C.mempool(1).size(), 1u);

  auto Snap0 = obs::Registry::instance().snapshot();
  C.crash(1);
  EXPECT_TRUE(C.isCrashed(1));
  // Traffic to a crashed node goes nowhere; the rest keeps mining.
  Clock += 600;
  ASSERT_TRUE(C.mineAt(0, Miner.id(), Clock).hasValue());
  C.settle();

  ASSERT_TRUE(C.restart(1).hasValue());
  C.settle();
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_EQ(delta(Snap0, Snap1, "net.crash.count"), 1u);
  EXPECT_EQ(delta(Snap0, Snap1, "net.restart.count"), 1u);
  // The mempool is gone (it was volatile); the chain is rebuilt from
  // the persisted blocks and caught up headers-first on reconnect.
  EXPECT_EQ(C.mempool(1).size(), 0u);
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(1).height(), 4);
  EXPECT_TRUE(tc::auditChain(C.chain(1)).hasValue());

  // Entry-for-entry agreement with a never-crashed peer.
  const auto &Healthy = C.chain(0).utxo().entries();
  const auto &Restarted = C.chain(1).utxo().entries();
  ASSERT_EQ(Healthy.size(), Restarted.size());
  auto HIt = Healthy.begin();
  for (const auto &[Point, Coin] : Restarted) {
    EXPECT_TRUE(HIt->first == Point);
    EXPECT_EQ(HIt->second.Out.Value, Coin.Out.Value);
    ++HIt;
  }
}

TEST(NetChaosParity, CrashAfterEpochReplaysDiskAndRegistersWalPair) {
  announce("net-crash-after-epoch", 14,
           "drop-all while a pair is submitted; crash(1)");
  Cluster C(testParams(), 3, 14, quietTimers());
  Actor Alice(4001);
  double Clock = 0;

  // Nine blocks at node 1: the eighth closes a store epoch, the ninth
  // stays in the unsynced tail of the block log.
  for (int I = 0; I < 9; ++I) {
    Clock += 600;
    ASSERT_TRUE(C.mineAt(1, Alice.id(), Clock).hasValue());
  }
  C.settle();
  const store::EpochData *Epoch = C.node(1).typecoin().store()->epoch();
  ASSERT_NE(Epoch, nullptr);
  const int EpochTip = static_cast<int>(Epoch->TipHeight);
  ASSERT_GT(EpochTip, 0);
  ASSERT_LT(EpochTip, C.chain(1).height());

  // A pair kept local to node 1: its WAL record is durable, its carrier
  // never left the node.
  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  C.setDefaultFault(DropAll);
  auto P = buildGrantPair(Alice, "walpair", Alice.pub(), C.chain(1));
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(C.node(1).submitPair(*P).hasValue());
  C.settle();
  C.clearFaults();
  C.settle();
  const std::string Key = tc::payloadKey(*P);
  ASSERT_FALSE(C.mempool(0).contains(P->Btc.txid()));

  auto Snap0 = obs::Registry::instance().snapshot();
  C.crash(1);
  for (int I = 0; I < 2; ++I) {
    Clock += 600;
    ASSERT_TRUE(C.mineAt(0, Alice.id(), Clock).hasValue());
    C.settle();
  }
  ASSERT_TRUE(C.restart(1).hasValue());
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_EQ(delta(Snap0, Snap1, "store.recover.from_disk"), 1u);
  EXPECT_EQ(delta(Snap0, Snap1, "net.restart.count"), 1u);

  // Before any message moves, the disk alone decides: the chain is the
  // epoch's, and the journal holds the pair from the WAL.
  const tc::Node &Node1 = C.node(1).typecoin();
  EXPECT_EQ(C.chain(1).height(), EpochTip);
  EXPECT_EQ(Node1.journal().count(Key), 1u);
  EXPECT_FALSE(Node1.isRegistered(Key));

  // Catch up, let the retry queue re-offer the carrier, and mine it.
  C.settle();
  C.advance(60);
  C.settle();
  ASSERT_TRUE(C.mempool(1).contains(P->Btc.txid()));
  Clock += 600;
  ASSERT_TRUE(C.mineAt(1, Alice.id(), Clock).hasValue());
  C.settle();
  auto Snap2 = obs::Registry::instance().snapshot();
  EXPECT_TRUE(C.converged());
  ASSERT_TRUE(Node1.isRegistered(Key));
  EXPECT_EQ(Node1.registrationOf(Key)->TxidHex, P->Btc.txid().toHex());
  EXPECT_EQ(delta(Snap1, Snap2, "checker.registered"), 1u);
  EXPECT_EQ(Node1.pendingCount(), 0u);

  auto Replayed = tc::replayChain(Node1.chain(), Node1.journal(),
                                  Node1.registrationDepth());
  ASSERT_TRUE(Replayed.hasValue()) << Replayed.error().message();
  EXPECT_EQ(Node1.state().fingerprint(), Replayed->TcState.fingerprint());
}

} // namespace
