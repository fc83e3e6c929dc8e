//===- tests/chaos/faultplan_test.cpp - Fault plans, full-block relay -----===//
//
// The fault-plan scenarios on the runtime's full-block relay path:
// compact relay is off, so every block moves as Inv -> GetData -> Block
// and drops, duplicates and jitter hit the announcement, the request
// and the body separately. tests/net/chaos_parity_test.cpp runs the
// same plans under the default compact relay. Covered: seeded replay,
// lossy links healing, idempotent duplicate delivery, reordering through
// the orphan pool, the pool's bound, a byzantine relayer corrupting an
// honest block in flight, and crash/restart.
//
//===----------------------------------------------------------------------===//

#include "../net/chaosnet.h"

#include "net/fault.h"
#include "obs/metrics.h"
#include "typecoin/audit.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::net;
using namespace typecoin::chaosutil;

namespace {

NetConfig fullBlockRelay() {
  NetConfig Cfg = quietTimers();
  Cfg.CompactRelay = false;
  Cfg.Services = 0;
  return Cfg;
}

uint64_t delta(const obs::Snapshot &Before, const obs::Snapshot &After,
               const char *Name) {
  return After.counter(Name) - Before.counter(Name);
}

/// Blocks arrived whole; no compact announcement was reconstructed.
void expectFullBlocksOnly(const obs::Snapshot &Before,
                          const obs::Snapshot &After) {
  EXPECT_GE(delta(Before, After, "net.block.full.recv"), 1u);
  EXPECT_EQ(delta(Before, After, "net.compact.hit") +
                delta(Before, After, "net.compact.miss"),
            0u);
}

/// One run of the fixed mining schedule under \p Plan: every node's
/// final tip and the faults the plan drew.
struct Outcome {
  std::vector<bitcoin::BlockHash> Tips;
  uint64_t Dropped = 0, Duplicated = 0, Jittered = 0;
};

Outcome runScenario(uint64_t Seed, const FaultPlan &Plan) {
  auto Snap0 = obs::Registry::instance().snapshot();
  Outcome O;
  {
    Cluster C(testParams(), 4, Seed, fullBlockRelay());
    C.setDefaultFault(Plan);
    auto Miner = keyFromSeed(11);
    double Clock = 0;
    for (int I = 0; I < 8; ++I) {
      Clock += 600;
      EXPECT_TRUE(
          C.mineAt(static_cast<size_t>(I % 4), Miner.id(), Clock).hasValue());
      C.settle();
    }
    for (size_t I = 0; I < C.size(); ++I)
      O.Tips.push_back(C.chain(I).tipHash());
  }
  auto Snap1 = obs::Registry::instance().snapshot();
  expectFullBlocksOnly(Snap0, Snap1);
  O.Dropped = delta(Snap0, Snap1, "net.fault.dropped");
  O.Duplicated = delta(Snap0, Snap1, "net.fault.duplicated");
  O.Jittered = delta(Snap0, Snap1, "net.fault.jittered");
  return O;
}

TEST(ChaosFaults, SameSeedSameOutcome) {
  // Identical seeds and plans replay the run frame for frame: the same
  // faults are drawn and every node ends on the same tip.
  FaultPlan Plan;
  Plan.Drop = 0.2;
  Plan.Duplicate = 0.2;
  Plan.JitterSeconds = 900;
  announce("full-block-determinism", 77, Plan.describe());
  Outcome A = runScenario(77, Plan);
  Outcome B = runScenario(77, Plan);
  ASSERT_EQ(A.Tips.size(), B.Tips.size());
  for (size_t I = 0; I < A.Tips.size(); ++I)
    EXPECT_TRUE(A.Tips[I] == B.Tips[I]) << "node " << I
                                        << " diverged on replay";
  EXPECT_GT(A.Dropped, 0u);
  EXPECT_GT(A.Duplicated, 0u);
  EXPECT_GT(A.Jittered, 0u);
  EXPECT_EQ(A.Dropped, B.Dropped);
  EXPECT_EQ(A.Duplicated, B.Duplicated);
  EXPECT_EQ(A.Jittered, B.Jittered);
}

TEST(ChaosFaults, LossyLinksConvergeAfterHeal) {
  Cluster C(testParams(), 4, 5, fullBlockRelay());
  FaultPlan Lossy;
  Lossy.Drop = 0.4;
  announce("full-block-lossy-links", 5, Lossy.describe());
  C.setDefaultFault(Lossy);
  auto Miner = keyFromSeed(12);
  auto Snap0 = obs::Registry::instance().snapshot();
  double Clock = 0;
  for (int I = 0; I < 10; ++I) {
    Clock += 600;
    ASSERT_TRUE(
        C.mineAt(static_cast<size_t>(I % 4), Miner.id(), Clock).hasValue());
    C.settle();
  }
  // A lost Inv, GetData or Block each strands the block at the far end
  // until the re-sync that clearFaults starts. The forks the drops left
  // can end level, and each node keeps the equal-work tip it saw first:
  // the next block breaks the tie.
  C.clearFaults();
  C.settle();
  ASSERT_TRUE(C.mineAt(0, Miner.id(), Clock + 600).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());
  for (size_t I = 0; I < C.size(); ++I)
    EXPECT_TRUE(tc::auditChain(C.chain(I)).hasValue()) << "node " << I;
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_GT(delta(Snap0, Snap1, "net.fault.dropped"), 0u);
  expectFullBlocksOnly(Snap0, Snap1);
}

TEST(ChaosFaults, DuplicatedDeliveryIsIdempotent) {
  Cluster C(testParams(), 3, 6, fullBlockRelay());
  FaultPlan Dup;
  Dup.Duplicate = 1.0; // Every frame delivered twice: each Inv, each
                       // GetData and each Block body.
  C.setDefaultFault(Dup);
  auto Miner = keyFromSeed(13);
  auto Snap0 = obs::Registry::instance().snapshot();
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
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_GT(delta(Snap0, Snap1, "net.fault.duplicated"), 0u);
  expectFullBlocksOnly(Snap0, Snap1);
}

TEST(ChaosFaults, JitterReordersThroughOrphanPool) {
  Cluster C(testParams(), 3, 7, fullBlockRelay());
  FaultPlan Jitter;
  Jitter.JitterSeconds = 5000; // Far larger than the mining cadence:
                               // bodies routinely land child first.
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
  for (size_t I = 0; I < C.size(); ++I)
    EXPECT_EQ(C.node(I).orphanCount(), 0u) << "node " << I;
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_GT(delta(Snap0, Snap1, "net.orphan.added"), 0u);
  expectFullBlocksOnly(Snap0, Snap1);
}

TEST(ChaosFaults, OrphanPoolIsBoundedWithOldestFirstEviction) {
  NetConfig Base = fullBlockRelay();
  Base.OrphanLimit = 2;
  Cluster C(testParams(), 2, 8, Base);
  auto Miner = keyFromSeed(15);

  // Lose the first block's Inv towards node 1: everything after it
  // arrives parentless.
  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  C.setLinkFault(0, 1, DropAll);
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 600).hasValue());
  C.settle();
  C.setLinkFault(0, 1, FaultPlan());

  // Node 1 requests the three children and node 0 serves them; then
  // node 1's return path goes silent, so the GetHeaders each orphan
  // triggers never reaches node 0 — only the pool's bound is under
  // test.
  auto Snap0 = obs::Registry::instance().snapshot();
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(C.mineAt(0, Miner.id(), 1200 + 600 * I).hasValue());
  C.node(1).pump(); // Inv -> GetData.
  C.node(0).pump(); // GetData -> Block.
  C.setLinkFault(1, 0, DropAll);
  C.settle();
  EXPECT_EQ(C.chain(1).height(), 0);
  EXPECT_EQ(C.node(1).orphanCount(), 2u); // Cap held.
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_EQ(delta(Snap0, Snap1, "net.orphan.added"), 3u);
  EXPECT_EQ(delta(Snap0, Snap1, "net.orphan.evicted"), 1u); // The oldest.

  // Recovery: lift the faults; the re-sync supplies the missing parent
  // and the evicted orphan again.
  C.clearFaults();
  C.settle();
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(1).height(), 4);
  EXPECT_EQ(C.node(1).orphanCount(), 0u);
  expectFullBlocksOnly(Snap0, obs::Registry::instance().snapshot());
}

TEST(ChaosFaults, InvalidBlockRelayGetsPeerBanned) {
  // An honest block whose only route to node 1 runs through byzantine
  // node 2: node 2 relays it like any other, but the body it serves to
  // node 1's GetData is corrupted (broken Merkle root, valid PoW). Node
  // 1 rejects that body and bans the relayer; the corrupt copy hashes
  // differently, so the honest block stays fetchable from node 0.
  Cluster C(testParams(), 3, 9, fullBlockRelay());
  ByzantinePlan Byz;
  Byz.InvalidBlock = 1.0;
  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  announce("full-block-byzantine-relayer", 9,
           "link 0->1 " + DropAll.describe() + "; byzantine(2) " +
               Byz.describe());
  C.setByzantine(2, Byz);
  C.setLinkFault(0, 1, DropAll);
  auto Honest = keyFromSeed(16);
  auto Snap0 = obs::Registry::instance().snapshot();

  ASSERT_TRUE(C.mineAt(0, Honest.id(), 600).hasValue());
  C.settle();
  EXPECT_EQ(C.chain(2).height(), 1);
  EXPECT_EQ(C.chain(1).height(), 0);
  EXPECT_GE(C.node(1).banScore(Cluster::addressOf(2)), 100);
  EXPECT_TRUE(C.node(1).isBanned(Cluster::addressOf(2)));
  EXPECT_FALSE(C.node(1).isBanned(Cluster::addressOf(0)));
  EXPECT_EQ(C.node(0).banScore(Cluster::addressOf(2)), 0);
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_GE(delta(Snap0, Snap1, "net.byzantine.invalid_block"), 1u);

  // Lifting the drop lets node 1 fetch the real block from node 0.
  C.clearFaults();
  C.settle();
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(1).height(), 1);
  EXPECT_TRUE(C.node(1).isBanned(Cluster::addressOf(2)));
  expectFullBlocksOnly(Snap0, obs::Registry::instance().snapshot());
}

TEST(ChaosFaults, CrashLosesMempoolRestartRecoversChain) {
  Cluster C(testParams(), 3, 10, fullBlockRelay());
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

  C.crash(1);
  EXPECT_TRUE(C.isCrashed(1));
  // Traffic to a crashed node goes nowhere; the rest keeps mining.
  Clock += 600;
  ASSERT_TRUE(C.mineAt(0, Miner.id(), Clock).hasValue());
  C.settle();

  // The restarted node fetches the block it missed as a whole body,
  // headers first.
  auto Snap0 = obs::Registry::instance().snapshot();
  ASSERT_TRUE(C.restart(1).hasValue());
  C.settle();
  EXPECT_EQ(C.mempool(1).size(), 0u);
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(1).height(), 4);
  EXPECT_TRUE(tc::auditChain(C.chain(1)).hasValue());
  expectFullBlocksOnly(Snap0, obs::Registry::instance().snapshot());

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

} // namespace
