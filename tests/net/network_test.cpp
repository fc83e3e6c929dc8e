//===- tests/net/network_test.cpp - Multi-node propagation ----------------===//
//
// The network dynamics the paper's commitment argument rests on
// (Section 2): blocks propagate, racing miners fork, and the network
// converges on the longest branch — so an attacker must outpace
// everyone to reverse a confirmed transaction. Every scenario runs over
// the wire, on a pumped Cluster of NetNodes.
//
//===----------------------------------------------------------------------===//

#include "chaosnet.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::net;
using namespace typecoin::chaosutil;

namespace {

TEST(Network, BlockPropagatesToAllNodes) {
  Cluster C(testParams(), 5, 0, quietTimers());
  auto Miner = keyFromSeed(1);
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 600).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());
  for (size_t I = 0; I < C.size(); ++I)
    EXPECT_EQ(C.chain(I).height(), 1) << "node " << I;
}

TEST(Network, ChainOfBlocksPropagates) {
  Cluster C(testParams(), 4, 0, quietTimers());
  auto Miner = keyFromSeed(2);
  double Clock = 0;
  for (int I = 0; I < 6; ++I) {
    Clock += 600;
    ASSERT_TRUE(
        C.mineAt(I % 4 == 0 ? 0 : I % 4, Miner.id(), Clock).hasValue());
    C.settle(); // Everyone catches up before the next block.
  }
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(3).height(), 6);
}

TEST(Network, RacingMinersForkThenConverge) {
  Cluster C(testParams(), 2, 0, quietTimers());
  auto A = keyFromSeed(4), B = keyFromSeed(5);
  // Both mine on the same parent before any relay happens: a fork.
  ASSERT_TRUE(C.mineAt(0, A.id(), 600).hasValue());
  ASSERT_TRUE(C.mineAt(1, B.id(), 601).hasValue());
  C.settle();
  // Each keeps its own first-seen block (equal work): tips differ.
  EXPECT_EQ(C.chain(0).height(), 1);
  EXPECT_EQ(C.chain(1).height(), 1);

  // The next block extends one side and settles the race.
  ASSERT_TRUE(C.mineAt(0, A.id(), 1200).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());
  EXPECT_EQ(C.chain(1).height(), 2);
}

TEST(Network, PartitionDivergesHealConverges) {
  Cluster C(testParams(), 4, 0, quietTimers());
  auto A = keyFromSeed(6), B = keyFromSeed(7);

  // Common prefix.
  ASSERT_TRUE(C.mineAt(0, A.id(), 600).hasValue());
  C.settle();

  // Partition {0,1} | {2,3}: the left side mines two blocks, the right
  // side three.
  C.partitionAt(2);
  double Clock = 1200;
  for (int I = 0; I < 2; ++I, Clock += 600)
    ASSERT_TRUE(C.mineAt(0, A.id(), Clock).hasValue());
  for (int I = 0; I < 3; ++I, Clock += 600)
    ASSERT_TRUE(C.mineAt(2, B.id(), Clock).hasValue());
  C.settle();
  EXPECT_EQ(C.chain(0).height(), 3);
  EXPECT_EQ(C.chain(3).height(), 4);
  EXPECT_FALSE(C.converged());

  // Heal: the longer (right) branch wins everywhere — the left side's
  // two blocks are reorganized away.
  C.heal();
  C.settle();
  EXPECT_TRUE(C.converged());
  for (size_t I = 0; I < C.size(); ++I)
    EXPECT_EQ(C.chain(I).height(), 4) << "node " << I;
}

TEST(Network, TransactionRelayAndRemoteInclusion) {
  Cluster C(testParams(), 3, 0, quietTimers());
  auto Miner = keyFromSeed(8);
  auto Alice = keyFromSeed(9);
  auto Bob = keyFromSeed(10);

  // Fund Alice via a coinbase, then let it mature.
  ASSERT_TRUE(C.mineAt(0, Alice.id(), 600).hasValue());
  C.settle();
  ASSERT_TRUE(C.mineAt(0, Miner.id(), 1200).hasValue());
  C.settle();

  // Alice submits a payment at node 1.
  const bitcoin::Block *Funding =
      C.chain(1).blockByHash(*C.chain(1).blockHashAt(1));
  ASSERT_NE(Funding, nullptr);
  bitcoin::Transaction Pay;
  Pay.Inputs.push_back(
      bitcoin::TxIn{bitcoin::OutPoint{Funding->Txs[0].txid(), 0}, {}});
  Pay.Outputs.push_back(bitcoin::TxOut{Funding->Txs[0].Outputs[0].Value -
                                           10000,
                                       bitcoin::makeP2PKH(Bob.id())});
  auto Sig = bitcoin::signInput(
      Pay, 0, Funding->Txs[0].Outputs[0].ScriptPubKey, {Alice});
  ASSERT_TRUE(Sig.hasValue()) << Sig.error().message();
  Pay.Inputs[0].ScriptSig = *Sig;
  ASSERT_TRUE(C.submitTransaction(1, Pay).hasValue());
  C.settle();
  // The transaction reached every mempool.
  for (size_t I = 0; I < C.size(); ++I)
    EXPECT_TRUE(C.mempool(I).contains(Pay.txid())) << "node " << I;

  // A *different* node mines it.
  ASSERT_TRUE(C.mineAt(2, Miner.id(), 1800).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());
  for (size_t I = 0; I < C.size(); ++I) {
    EXPECT_EQ(C.chain(I).confirmations(Pay.txid()), 1) << "node " << I;
    EXPECT_EQ(C.mempool(I).size(), 0u) << "node " << I;
  }
}

TEST(Network, DoubleSpendRaceResolvesConsistently) {
  Cluster C(testParams(), 2, 0, quietTimers());
  auto Alice = keyFromSeed(11);
  auto Bob = keyFromSeed(12);
  auto Carol = keyFromSeed(13);
  ASSERT_TRUE(C.mineAt(0, Alice.id(), 600).hasValue());
  C.settle();
  ASSERT_TRUE(C.mineAt(0, Alice.id(), 1200).hasValue());
  C.settle();

  const bitcoin::Block *Funding =
      C.chain(0).blockByHash(*C.chain(0).blockHashAt(1));
  auto MakeSpend = [&](const crypto::KeyId &To) {
    bitcoin::Transaction T;
    T.Inputs.push_back(
        bitcoin::TxIn{bitcoin::OutPoint{Funding->Txs[0].txid(), 0}, {}});
    T.Outputs.push_back(bitcoin::TxOut{
        Funding->Txs[0].Outputs[0].Value - 10000, bitcoin::makeP2PKH(To)});
    T.Inputs[0].ScriptSig = *bitcoin::signInput(
        T, 0, Funding->Txs[0].Outputs[0].ScriptPubKey, {Alice});
    return T;
  };
  bitcoin::Transaction ToBob = MakeSpend(Bob.id());
  bitcoin::Transaction ToCarol = MakeSpend(Carol.id());

  // Conflicting spends enter different mempools.
  ASSERT_TRUE(C.submitTransaction(0, ToBob).hasValue());
  ASSERT_TRUE(C.submitTransaction(1, ToCarol).hasValue());
  C.settle();
  // Each node keeps its first-seen spend and rejects the relay of the
  // other: mempools conflict.
  EXPECT_TRUE(C.mempool(0).contains(ToBob.txid()));
  EXPECT_TRUE(C.mempool(1).contains(ToCarol.txid()));
  EXPECT_FALSE(C.mempool(0).contains(ToCarol.txid()));

  // Node 1 wins the block race: the network settles on Carol's payment,
  // and Bob's conflicting spend is evicted everywhere.
  ASSERT_TRUE(C.mineAt(1, Alice.id(), 1800).hasValue());
  C.settle();
  EXPECT_TRUE(C.converged());
  for (size_t I = 0; I < C.size(); ++I) {
    EXPECT_EQ(C.chain(I).confirmations(ToCarol.txid()), 1);
    EXPECT_EQ(C.chain(I).confirmations(ToBob.txid()), 0);
    EXPECT_FALSE(C.mempool(I).contains(ToBob.txid()));
  }
}

} // namespace
