//===- tests/net/sync_test.cpp - Headers-first sync + compact relay -------===//
//
// Multi-node integration: a fresh node catching up headers-first
// (locators, batched body fetch past the in-flight cap, continuation
// GetHeaders), and compact-block relay end to end — zero full-block
// transfer when the receiver's mempool is warm, GetBlockTxn fallback
// when it is not, and Typecoin pair relay through to registration.
//
//===----------------------------------------------------------------------===//

#include "net/cluster.h"

#include "../chaos/chaosutil.h"
#include "obs/metrics.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::net;
using namespace typecoin::chaosutil;

namespace {

/// Spend the coinbase of best-chain block \p Height on \p Chain.
bitcoin::Transaction spendCoinbase(const bitcoin::Blockchain &Chain,
                                   int Height, const crypto::PrivateKey &Key,
                                   const crypto::KeyId &To) {
  const bitcoin::Block *B = Chain.blockByHash(*Chain.blockHashAt(Height));
  bitcoin::Transaction Tx;
  Tx.Inputs.push_back(
      bitcoin::TxIn{bitcoin::OutPoint{B->Txs[0].txid(), 0}, {}});
  Tx.Outputs.push_back(bitcoin::TxOut{B->Txs[0].Outputs[0].Value - 10000,
                                      bitcoin::makeP2PKH(To)});
  auto Sig =
      bitcoin::signInput(Tx, 0, B->Txs[0].Outputs[0].ScriptPubKey, {Key});
  EXPECT_TRUE(Sig.hasValue());
  Tx.Inputs[0].ScriptSig = *Sig;
  return Tx;
}

uint64_t counterOf(const obs::Snapshot &S, const char *Name) {
  return S.counter(Name);
}

TEST(NetSync, HeadersFirstSyncCatchesUpAFreshNode) {
  // 30 blocks: forces >1 body batch past MaxBlocksInFlight = 16 and a
  // continuation GetHeaders once the first batch lands.
  LoopbackHub Hub;
  auto Clk = std::make_shared<VirtualClock>();
  NetConfig Cfg;
  Cfg.Seed = 11;
  NetNode A(testParams(), Cfg, Hub.open("a"), Clk);
  auto Miner = keyFromSeed(31);
  for (int I = 1; I <= 30; ++I)
    ASSERT_TRUE(A.mine(Miner.id(), 600u * I).hasValue()) << I;
  ASSERT_EQ(A.chain().height(), 30);

  auto Snap0 = obs::Registry::instance().snapshot();
  NetNode B(testParams(), Cfg, Hub.open("b"), Clk);
  ASSERT_TRUE(B.connectTo("a").hasValue());
  while (A.pump() + B.pump() > 0)
    ;
  EXPECT_EQ(B.chain().height(), 30);
  EXPECT_TRUE(B.chain().tipHash() == A.chain().tipHash());

  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_GE(counterOf(Snap1, "net.headers.accepted") -
                counterOf(Snap0, "net.headers.accepted"),
            30u);
  // Catch-up is body-by-body GetData, never compact.
  EXPECT_EQ(counterOf(Snap1, "net.compact.hit") -
                counterOf(Snap0, "net.compact.hit"),
            0u);
}

TEST(NetSync, DisconnectReleasesQueuedBodiesForOtherPeers) {
  // 30 blocks > MaxBlocksInFlight = 16: once the headers land, 16
  // bodies are requested and 14 sit queued. If the serving peer then
  // vanishes, both the requested AND the queued in-flight marks must be
  // released, or no other peer would ever be asked for those bodies.
  LoopbackHub Hub;
  auto Clk = std::make_shared<VirtualClock>();
  NetConfig Cfg;
  Cfg.Seed = 15;
  auto A = std::make_unique<NetNode>(testParams(), Cfg, Hub.open("a"), Clk);
  auto Miner = keyFromSeed(36);
  for (int I = 1; I <= 30; ++I)
    ASSERT_TRUE(A->mine(Miner.id(), 600u * I).hasValue()) << I;

  // A second fully-synced seed node.
  NetNode S(testParams(), Cfg, Hub.open("s"), Clk);
  ASSERT_TRUE(S.connectTo("a").hasValue());
  while (A->pump() + S.pump() > 0)
    ;
  ASSERT_EQ(S.chain().height(), 30);

  NetNode B(testParams(), Cfg, Hub.open("b"), Clk);
  ASSERT_TRUE(B.connectTo("a").hasValue());
  A->pump(); // Accept; Version/Verack out.
  B.pump();  // Handshake completes; GetHeaders out.
  A->pump(); // Headers(30) out.
  B.pump();  // Schedules 30 bodies: 16 requested, 14 still queued.
  ASSERT_EQ(B.chain().height(), 0);

  A.reset(); // A dies: the link drops with the schedule outstanding.
  B.pump();  // B observes the close and must release every mark.
  EXPECT_EQ(B.peerCount(), 0u);

  ASSERT_TRUE(B.connectTo("s").hasValue());
  while (B.pump() + S.pump() > 0)
    ;
  EXPECT_EQ(B.chain().height(), 30);
  EXPECT_TRUE(B.chain().tipHash() == S.chain().tipHash());
}

TEST(NetSync, CompactRelayMovesZeroFullBlocksWhenMempoolIsWarm) {
  Cluster C(testParams(), 2, /*ChaosSeed=*/12);
  auto Miner = keyFromSeed(32);
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 600).hasValue());
  C.settle();

  // Warm node 1's mempool over the wire.
  bitcoin::Transaction Tx =
      spendCoinbase(C.chain(0), 1, Miner, keyFromSeed(33).id());
  ASSERT_TRUE(C.submitTransaction(0, Tx).hasValue());
  C.settle();
  ASSERT_TRUE(C.mempool(1).contains(Tx.txid()));

  auto Snap0 = obs::Registry::instance().snapshot();
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 1200).hasValue());
  C.settle();

  // The acceptance bar: the new block crossed the wire as short ids
  // only — reconstructed wholly from the mempool, no full-block
  // transfer, no GetBlockTxn round trip.
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_EQ(counterOf(Snap1, "net.compact.hit") -
                counterOf(Snap0, "net.compact.hit"),
            1u);
  EXPECT_EQ(counterOf(Snap1, "net.compact.miss") -
                counterOf(Snap0, "net.compact.miss"),
            0u);
  EXPECT_EQ(counterOf(Snap1, "net.block.full.recv") -
                counterOf(Snap0, "net.block.full.recv"),
            0u);
  EXPECT_EQ(C.chain(1).height(), 2);
  EXPECT_TRUE(C.converged());
  EXPECT_TRUE(C.chain(1).blockByHash(C.chain(1).tipHash())->Txs.size() == 2);
}

TEST(NetSync, ColdMempoolFallsBackToGetBlockTxn) {
  Cluster C(testParams(), 2, 13);
  auto Miner = keyFromSeed(34);
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 600).hasValue());
  C.settle();

  // Keep the transaction local to node 0: gossip is eaten by a total
  // drop plan, then the plan is lifted (announcements never retransmit).
  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  C.setDefaultFault(DropAll);
  bitcoin::Transaction Tx =
      spendCoinbase(C.chain(0), 1, Miner, keyFromSeed(35).id());
  ASSERT_TRUE(C.submitTransaction(0, Tx).hasValue());
  C.settle();
  C.clearFaults();
  C.settle();
  ASSERT_FALSE(C.mempool(1).contains(Tx.txid()));

  auto Snap0 = obs::Registry::instance().snapshot();
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 1200).hasValue());
  C.settle();

  // Short id unknown at node 1 → GetBlockTxn round trip, still no
  // full-block transfer.
  auto Snap1 = obs::Registry::instance().snapshot();
  EXPECT_EQ(counterOf(Snap1, "net.compact.miss") -
                counterOf(Snap0, "net.compact.miss"),
            1u);
  EXPECT_EQ(counterOf(Snap1, "net.compact.hit") -
                counterOf(Snap0, "net.compact.hit"),
            0u);
  EXPECT_EQ(counterOf(Snap1, "net.block.full.recv") -
                counterOf(Snap0, "net.block.full.recv"),
            0u);
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(1).height(), 2);
}

TEST(NetSync, PairRelayReachesRegistrationAcrossNodes) {
  Cluster C(testParams(), 2, 14);
  Actor Alice(7001), Bob(7002);
  double Clock = 0;
  for (int I = 0; I < 3; ++I) {
    Clock += 600;
    ASSERT_TRUE(C.mineAt(0, Alice.id(), Clock).hasValue());
  }
  Clock += 600;
  ASSERT_TRUE(C.mineAt(0, crypto::KeyId{}, Clock).hasValue());
  C.settle();

  auto P = buildGrantPair(Alice, "wired", Bob.pub(), C.chain(0));
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(C.node(0).submitPair(*P).hasValue());
  C.settle();

  // The carrier gossiped to node 1, which mines it; the block relays
  // back and node 0 registers its journaled pair.
  ASSERT_TRUE(C.mempool(1).contains(P->Btc.txid()));
  Clock += 600;
  ASSERT_TRUE(C.mineAt(1, Alice.id(), Clock).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());
  EXPECT_TRUE(C.node(0).typecoin().isRegistered(tc::payloadKey(*P)));
  EXPECT_FALSE(C.node(1).typecoin().isRegistered(tc::payloadKey(*P)));
}

} // namespace
