//===- tests/net/runtime_test.cpp - Peer lifecycle and gossip -------------===//
//
// The NetNode runtime around a single concern at a time: handshake
// completion, self-connection rejection, liveness pings and their
// timeout, banning on corrupt frame streams, transaction gossip with
// known-inventory dedup, crash/restart under the default timers, and
// threaded-mode tests — relay, and a node destroyed and rebuilt from its
// disk while its peer's threads run (the TSan CI job runs this suite
// with real threads).
//
//===----------------------------------------------------------------------===//

#include "net/cluster.h"

#include "bitcoin/script.h"
#include "obs/metrics.h"
#include "store/vfs.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace typecoin;
using namespace typecoin::net;

namespace {

bitcoin::ChainParams testParams() {
  bitcoin::ChainParams P;
  P.CoinbaseMaturity = 1;
  return P;
}

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

/// Spend the coinbase of best-chain block \p Height on \p Chain.
bitcoin::Transaction spendCoinbase(const bitcoin::Blockchain &Chain,
                                   int Height, const crypto::PrivateKey &Key,
                                   const crypto::KeyId &To) {
  const bitcoin::Block *B = Chain.blockByHash(*Chain.blockHashAt(Height));
  bitcoin::Transaction Tx;
  Tx.Inputs.push_back(bitcoin::TxIn{
      bitcoin::OutPoint{B->Txs[0].txid(), 0}, {}});
  Tx.Outputs.push_back(bitcoin::TxOut{B->Txs[0].Outputs[0].Value - 10000,
                                      bitcoin::makeP2PKH(To)});
  auto Sig = bitcoin::signInput(Tx, 0, B->Txs[0].Outputs[0].ScriptPubKey,
                                {Key});
  EXPECT_TRUE(Sig.hasValue());
  Tx.Inputs[0].ScriptSig = *Sig;
  return Tx;
}

TEST(NetRuntime, HandshakeCompletesAcrossTheMesh) {
  Cluster C(testParams(), 3, /*ChaosSeed=*/1);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(C.node(I).peerCount(), 2u) << "node " << I;
    EXPECT_EQ(C.node(I).readyPeerCount(), 2u) << "node " << I;
  }
}

TEST(NetRuntime, SelfConnectionIsDetectedAndDropped) {
  Cluster C(testParams(), 1, 2);
  ASSERT_TRUE(C.node(0).connectTo("node0").hasValue());
  C.settle();
  // Version nonce match kills both directions of the loop.
  EXPECT_EQ(C.node(0).readyPeerCount(), 0u);
  EXPECT_EQ(C.node(0).peerCount(), 0u);
}

TEST(NetRuntime, PingKeepsQuietLinksAliveAndTimesOutDeadOnes) {
  Cluster C(testParams(), 2, 3);
  // A quiet minute: pings fire, pongs answer, the link survives.
  C.advance(61);
  C.settle();
  EXPECT_EQ(C.node(0).readyPeerCount(), 1u);
  EXPECT_EQ(C.node(1).readyPeerCount(), 1u);

  // Now all frames vanish: the next ping goes unanswered and the link
  // is torn down after the ping timeout.
  FaultPlan Blackhole;
  Blackhole.Drop = 1.0;
  C.setDefaultFault(Blackhole);
  C.advance(61);
  C.settle();
  C.advance(21);
  C.settle();
  EXPECT_EQ(C.node(0).peerCount(), 0u);
  EXPECT_EQ(C.node(1).peerCount(), 0u);
}

TEST(NetRuntime, CorruptFrameStreamBansThePeer) {
  LoopbackHub Hub;
  auto Clk = std::make_shared<VirtualClock>();
  NetConfig Cfg;
  Cfg.Seed = 4;
  NetNode A(testParams(), Cfg, Hub.open("a"), Clk);
  auto Evil = Hub.open("evil");
  auto CR = Evil->connect("a");
  ASSERT_TRUE(CR.hasValue());
  auto Conn = *CR;
  // A full frame header's worth of garbage (the decoder validates the
  // magic only once all 13 header bytes are buffered).
  ASSERT_TRUE(Conn->send(Bytes(16, 0xde)).hasValue());
  while (A.pump() > 0)
    ;
  EXPECT_TRUE(A.isBanned("evil"));
  EXPECT_EQ(A.peerCount(), 0u);
  EXPECT_FALSE(Conn->isOpen());

  // Redials from a banned address are refused at accept time.
  auto Again = Evil->connect("a");
  ASSERT_TRUE(Again.hasValue());
  while (A.pump() > 0)
    ;
  EXPECT_EQ(A.peerCount(), 0u);
  EXPECT_FALSE((*Again)->isOpen());
}

TEST(NetRuntime, TxGossipReachesEveryoneWithDedupAccounting) {
  Cluster C(testParams(), 3, 5);
  auto Miner = keyFromSeed(21);
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 600).hasValue());
  C.settle();
  ASSERT_EQ(C.chain(2).height(), 1);

  auto Snap0 = obs::Registry::instance().snapshot();
  bitcoin::Transaction Tx =
      spendCoinbase(C.chain(0), 1, Miner, keyFromSeed(22).id());
  ASSERT_TRUE(C.submitTransaction(0, Tx).hasValue());
  C.settle();
  EXPECT_TRUE(C.mempool(1).contains(Tx.txid()));
  EXPECT_TRUE(C.mempool(2).contains(Tx.txid()));

  // In a 3-mesh the announcement necessarily crosses some link twice:
  // either a duplicate inv arrives (receiver-side net.inv.dup) or the
  // known-inventory filter suppressed the re-announcement entirely
  // (sender-side net.inv.dedup).
  auto Snap1 = obs::Registry::instance().snapshot();
  uint64_t Dup = Snap1.counter("net.inv.dup") - Snap0.counter("net.inv.dup");
  uint64_t Dedup =
      Snap1.counter("net.inv.dedup") - Snap0.counter("net.inv.dedup");
  EXPECT_GE(Dup + Dedup, 1u);
}

TEST(NetRuntime, StallingBlockDownloadIsCutAndReassigned) {
  // A peer that completes the handshake and announces a block but never
  // answers the GetData keeps the hash marked in flight; after the
  // stall timeout it must be disconnected (not banned — losing a race
  // is not misbehaviour) and the hash must be fetchable from others.
  LoopbackHub Hub;
  auto Clk = std::make_shared<VirtualClock>();
  NetConfig Cfg;
  Cfg.Seed = 8;
  NetNode A(testParams(), Cfg, Hub.open("a"), Clk);

  auto drainFrames = [](Connection &C, auto OnMsg) {
    FrameDecoder Dec;
    while (auto F = C.receive())
      Dec.feed(*F);
    for (;;) {
      auto R = Dec.next();
      ASSERT_TRUE(R.hasValue());
      if (!*R)
        break;
      OnMsg(**R);
    }
  };
  auto handshake = [&](const char *Addr, uint64_t Nonce) {
    auto T = Hub.open(Addr);
    auto CR = T->connect("a");
    EXPECT_TRUE(CR.hasValue());
    auto Conn = *CR;
    VersionMsg V;
    V.Nonce = Nonce;
    EXPECT_TRUE(Conn->send(encodeMessage(V)).hasValue());
    EXPECT_TRUE(Conn->send(encodeMessage(VerackMsg{})).hasValue());
    while (A.pump() > 0)
      ;
    return Conn;
  };

  auto Staller = handshake("staller", 99);
  ASSERT_EQ(A.readyPeerCount(), 1u);

  bitcoin::BlockHash Fake;
  Fake.Hash[0] = 0xab;
  ASSERT_TRUE(
      Staller->send(encodeMessage(InvMsg{{invBlock(Fake)}})).hasValue());
  while (A.pump() > 0)
    ;
  bool SawGetData = false;
  drainFrames(*Staller,
              [&](const Message &M) {
                SawGetData |= std::holds_alternative<GetDataMsg>(M);
              });
  ASSERT_TRUE(SawGetData);

  // The body never comes. Past the stall timeout the peer is cut.
  Clk->advanceTo(Cfg.Timers.StallTimeoutSec + 1);
  A.pump();
  EXPECT_EQ(A.peerCount(), 0u);
  EXPECT_FALSE(A.isBanned("staller"));

  // A fresh peer announcing the same hash gets the GetData that the
  // stalled in-flight mark used to suppress.
  auto Helper = handshake("helper", 100);
  ASSERT_TRUE(
      Helper->send(encodeMessage(InvMsg{{invBlock(Fake)}})).hasValue());
  while (A.pump() > 0)
    ;
  bool ReRequested = false;
  drainFrames(*Helper, [&](const Message &M) {
    if (const auto *G = std::get_if<GetDataMsg>(&M))
      for (const InvItem &It : G->Items)
        if (It == invBlock(Fake))
          ReRequested = true;
  });
  EXPECT_TRUE(ReRequested);
}

TEST(NetRuntime, CrashDropsVolatileStateRestartRecovers) {
  // Default liveness timers stay on here (the chaos.net. crash scenario
  // turns them off), so the crash and the catch-up also run under live
  // pings and handshake timeouts.
  Cluster C(testParams(), 3, 6);
  auto Miner = keyFromSeed(23);
  double Clock = 0;
  for (int I = 0; I < 3; ++I) {
    Clock += 600;
    ASSERT_TRUE(C.mineAt(1, Miner.id(), Clock).hasValue());
  }
  C.settle();

  // A mempool entry kept local to node 1 (faults eat the gossip).
  FaultPlan DropAll;
  DropAll.Drop = 1.0;
  C.setDefaultFault(DropAll);
  bitcoin::Transaction Tx =
      spendCoinbase(C.chain(1), 1, Miner, keyFromSeed(24).id());
  ASSERT_TRUE(C.submitTransaction(1, Tx).hasValue());
  C.settle();
  C.clearFaults();
  C.settle();
  EXPECT_EQ(C.mempool(1).size(), 1u);

  C.crash(1);
  EXPECT_TRUE(C.isCrashed(1));
  Clock += 600;
  ASSERT_TRUE(C.mineAt(0, Miner.id(), Clock).hasValue());
  C.settle();

  ASSERT_TRUE(C.restart(1).hasValue());
  C.settle();
  // Mempool was volatile; the chain catches up via headers-first sync.
  EXPECT_EQ(C.mempool(1).size(), 0u);
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(1).height(), 4);
}

TEST(NetRuntime, ThreadedModeRelaysBlocksAndStopsCleanly) {
  // Real threads over the same loopback: the TSan job exercises the
  // lock discipline of the acceptor + per-peer service threads.
  LoopbackHub Hub;
  auto Clk = std::make_shared<SteadyClock>();
  NetConfig Cfg;
  Cfg.Seed = 7;
  NetNode A(testParams(), Cfg, Hub.open("a"), Clk);
  NetNode B(testParams(), Cfg, Hub.open("b"), Clk);
  A.start(netThreadsFromEnv());
  B.start(netThreadsFromEnv());
  ASSERT_TRUE(A.connectTo("b").hasValue());

  auto WaitFor = [](auto Cond) {
    for (int I = 0; I < 1000 && !Cond(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return Cond();
  };
  ASSERT_TRUE(WaitFor([&] { return B.readyPeerCount() == 1; }));

  auto Miner = keyFromSeed(25);
  ASSERT_TRUE(A.mine(Miner.id(), 600).hasValue());
  EXPECT_TRUE(WaitFor([&] { return B.chainHeight() == 1; }));

  ASSERT_TRUE(B.mine(Miner.id(), 1200).hasValue());
  EXPECT_TRUE(WaitFor([&] { return A.chainHeight() == 2; }));

  A.stop();
  B.stop();
  EXPECT_TRUE(A.chain().tipHash() == B.chain().tipHash());
}

TEST(NetRuntime, ThreadedNodeRestartsFromItsDisk) {
  // A dies and comes back while B's acceptor and peer threads keep
  // running: TSan sees the teardown, the disk reopen and the redial.
  LoopbackHub Hub;
  auto Clk = std::make_shared<SteadyClock>();
  NetConfig Cfg;
  Cfg.Seed = 8;
  store::MemVfs Disk;
  auto A = std::make_unique<NetNode>(testParams(), Cfg, Hub.open("a"), Clk);
  ASSERT_TRUE(A->typecoin().openStore(Disk, "store").hasValue());
  NetNode B(testParams(), Cfg, Hub.open("b"), Clk);
  A->start(netThreadsFromEnv());
  B.start(netThreadsFromEnv());
  ASSERT_TRUE(A->connectTo("b").hasValue());

  auto WaitFor = [](auto Cond) {
    for (int I = 0; I < 1000 && !Cond(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return Cond();
  };
  // Nine blocks: the eighth closes a store epoch (synced), the ninth
  // stays in the unsynced block log tail.
  auto Miner = keyFromSeed(26);
  for (uint32_t I = 1; I <= 9; ++I)
    ASSERT_TRUE(A->mine(Miner.id(), 600 * I).hasValue());
  ASSERT_TRUE(WaitFor([&] { return B.chainHeight() == 9; }));

  A.reset();
  Disk.crash();
  A = std::make_unique<NetNode>(testParams(), Cfg, Hub.open("a"), Clk);
  auto Opened = A->typecoin().openStore(Disk, "store");
  ASSERT_TRUE(Opened.hasValue()) << Opened.error().message();
  EXPECT_TRUE(Opened->FromDisk);
  EXPECT_EQ(A->chainHeight(), 8);

  A->start(netThreadsFromEnv());
  ASSERT_TRUE(A->connectTo("b").hasValue());
  EXPECT_TRUE(WaitFor([&] { return A->chainHeight() == 9; }));
  A->stop();
  B.stop();
  EXPECT_TRUE(A->chain().tipHash() == B.chain().tipHash());
}

} // namespace
