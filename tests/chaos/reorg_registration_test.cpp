//===- tests/chaos/reorg_registration_test.cpp - Reorg-safe Typecoin ------===//
//
// Registration must survive chain reorganizations: reorgs shallower
// than registrationDepth never touch registered state; reorgs that
// rewrite scanned history unwind and rebuild it (never silently
// diverge); and a carrier whose signatures were malleated in flight
// (Andrychowicz et al., "How to deal with malleability of BitCoin
// transactions") still registers its payload — under the txid that
// actually confirmed.
//
//===----------------------------------------------------------------------===//

#include "chaosutil.h"

#include "net/fault.h"
#include "typecoin/audit.h"

using namespace typecoin;
using namespace typecoin::chaosutil;

namespace {

/// Submit a block and require success.
std::vector<std::string> feed(tc::Node &Node, const bitcoin::Block &B) {
  auto R = Node.submitBlock(B);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().message());
  return R ? *R : std::vector<std::string>{};
}

class ChaosReorg : public ::testing::Test {
protected:
  void fund(tc::Node &Node, Actor &A, int Blocks) {
    for (int I = 0; I < Blocks; ++I) {
      Clock += 600;
      ASSERT_TRUE(Node.mineBlock(A.id(), Clock).hasValue());
    }
    Clock += 600;
    ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  }

  uint32_t Clock = 0;
};

TEST_F(ChaosReorg, ShallowReorgBelowDepthKeepsRegistrations) {
  announce("shallow-reorg", 0, "depth=2, tip-only reorg");
  tc::Node Node(tc::Node::defaultParams(), /*RegistrationDepth=*/2);
  Actor Alice(4001);
  fund(Node, Alice, 3); // Height 4.

  auto P = buildGrantPair(Alice, "ticket", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h5.
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h6.
  std::string Payload = tc::payloadKey(*P);
  ASSERT_TRUE(Node.isRegistered(Payload));
  std::string Fp = Node.state().fingerprint();

  // Replace only the tip (height 6) — the reorg stays strictly above
  // the carrier's depth, so registered state must not move.
  auto Parent = Node.chain().blockHashAt(5);
  ASSERT_TRUE(Parent.has_value());
  auto Miner = keyFromSeed(41);
  bitcoin::Block S6 =
      mineOn(Node.chain(), *Parent, Miner.id(), Clock + 700);
  bitcoin::Block S7 =
      mineOn(Node.chain(), S6.hash(), Miner.id(), Clock + 1300);
  feed(Node, S6);
  feed(Node, S7);
  EXPECT_EQ(Node.chain().height(), 7);
  EXPECT_TRUE(Node.isRegistered(Payload));
  EXPECT_EQ(Node.state().fingerprint(), Fp);
}

TEST_F(ChaosReorg, DeepReorgUnwindsRebuildsAndReregistersOnce) {
  announce("deep-reorg", 0, "depth=1, registration block reorged away");
  tc::Node Node;
  Actor Alice(4002);
  fund(Node, Alice, 3); // Height 4.

  auto P = buildGrantPair(Alice, "ticket", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h5.
  std::string Payload = tc::payloadKey(*P);
  ASSERT_TRUE(Node.isRegistered(Payload));
  const tc::Registration *Reg = Node.registrationOf(Payload);
  ASSERT_NE(Reg, nullptr);
  EXPECT_EQ(Reg->Height, 5);

  // A heavier branch from height 4 that does NOT carry the pair.
  auto Parent = Node.chain().blockHashAt(4);
  ASSERT_TRUE(Parent.has_value());
  auto Miner = keyFromSeed(42);
  bitcoin::Block S5 =
      mineOn(Node.chain(), *Parent, Miner.id(), Clock + 700);
  bitcoin::Block S6 =
      mineOn(Node.chain(), S5.hash(), Miner.id(), Clock + 1300);
  feed(Node, S5); // Stored, inferior branch.
  feed(Node, S6); // Reorg: the registration's block is gone.

  // The node must notice its scanned history was rewritten and rebuild
  // from genesis rather than keep a registration the chain no longer
  // supports.
  EXPECT_FALSE(Node.isRegistered(Payload));
  EXPECT_EQ(Node.pendingCount(), 1u);
  auto Replayed =
      tc::replayChain(Node.chain(), Node.journal(), Node.registrationDepth());
  ASSERT_TRUE(Replayed.hasValue());
  EXPECT_EQ(Node.state().fingerprint(), Replayed->TcState.fingerprint());
  EXPECT_EQ(Node.state().size(), 0u);

  // The resubmission queue re-broadcasts the carrier; mining it on the
  // new branch registers the payload exactly once, under the new block.
  Clock += 2000;
  EXPECT_GE(Node.tick(Clock), 1u);
  EXPECT_TRUE(Node.mempool().contains(P->Btc.txid()));
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h7.
  ASSERT_TRUE(Node.isRegistered(Payload));
  Reg = Node.registrationOf(Payload);
  ASSERT_NE(Reg, nullptr);
  EXPECT_EQ(Reg->Height, 7);
  EXPECT_EQ(Node.pendingCount(), 0u);
  EXPECT_EQ(Node.state().size(), 1u);

  auto Replayed2 =
      tc::replayChain(Node.chain(), Node.journal(), Node.registrationDepth());
  ASSERT_TRUE(Replayed2.hasValue());
  EXPECT_EQ(Node.state().fingerprint(), Replayed2->TcState.fingerprint());
  EXPECT_TRUE(tc::auditState(Node.state()).hasValue());
}

TEST_F(ChaosReorg, PartitionHealCrossingDepthConvergesExactlyOnce) {
  announce("partition-heal", 0, "depth=2, partition crosses depth");
  int Depth = 2;
  tc::Node A(tc::Node::defaultParams(), Depth);
  tc::Node B(tc::Node::defaultParams(), Depth);
  Actor Alice(4003);
  fund(A, Alice, 3); // Height 4 on A.
  for (int H = 1; H <= A.chain().height(); ++H) {
    auto Hash = A.chain().blockHashAt(H);
    ASSERT_TRUE(Hash.has_value());
    feed(B, *A.chain().blockByHash(*Hash));
  }

  auto P = buildGrantPair(Alice, "ticket", Alice.pub(), A.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(A.submitPair(*P).hasValue());
  ASSERT_TRUE(B.submitPair(*P).hasValue());
  std::string Payload = tc::payloadKey(*P);

  // Partition: side A confirms the carrier past registration depth;
  // side B (which never saw the carrier relayed — B's mempool copy is
  // its own) mines a longer empty branch. Clear B's view of the carrier
  // by mining around it: B mines empty blocks only.
  Clock += 600;
  ASSERT_TRUE(A.mineBlock(crypto::KeyId{}, Clock).hasValue()); // A h5 + carrier.
  Clock += 600;
  ASSERT_TRUE(A.mineBlock(crypto::KeyId{}, Clock).hasValue()); // A h6.
  ASSERT_TRUE(A.isRegistered(Payload));

  // B's side of the partition: three blocks, no carrier (evict it from
  // B's pool first so B's miner cannot include it).
  B.mempool().clear();
  auto MinerB = keyFromSeed(43);
  bitcoin::BlockHash BTip = B.chain().tipHash();
  std::vector<bitcoin::Block> BranchB;
  for (int I = 0; I < 3; ++I) {
    bitcoin::Block Blk = mineOn(B.chain(), BTip, MinerB.id(),
                                Clock + 700 + 600 * I);
    BTip = Blk.hash();
    BranchB.push_back(Blk);
    feed(B, BranchB.back());
  }
  EXPECT_EQ(B.chain().height(), 7);
  EXPECT_FALSE(B.isRegistered(Payload));

  // Heal: A adopts B's heavier branch — a reorg crossing the
  // registration depth. A must unwind the registration and requeue.
  for (const bitcoin::Block &Blk : BranchB)
    feed(A, Blk);
  EXPECT_EQ(A.chain().height(), 7);
  EXPECT_FALSE(A.isRegistered(Payload));
  EXPECT_EQ(A.pendingCount(), 1u);
  EXPECT_EQ(A.state().fingerprint(), B.state().fingerprint());

  // Resubmission on the healed chain: the carrier is mined again and
  // registers on both sides exactly once, at the same location.
  Clock += 3000;
  EXPECT_GE(A.tick(Clock), 1u);
  Clock += 600;
  ASSERT_TRUE(A.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h8.
  Clock += 600;
  ASSERT_TRUE(A.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h9: depth 2.
  for (int H = 8; H <= A.chain().height(); ++H) {
    auto Hash = A.chain().blockHashAt(H);
    ASSERT_TRUE(Hash.has_value());
    feed(B, *A.chain().blockByHash(*Hash));
  }
  ASSERT_TRUE(A.isRegistered(Payload));
  ASSERT_TRUE(B.isRegistered(Payload));
  EXPECT_EQ(A.registrationOf(Payload)->TxidHex,
            B.registrationOf(Payload)->TxidHex);
  EXPECT_EQ(A.registrationOf(Payload)->Height, 8);
  EXPECT_EQ(A.state().fingerprint(), B.state().fingerprint());
  EXPECT_EQ(A.state().size(), 1u);
}

TEST_F(ChaosReorg, MalleatedCarrierRegistersUnderConfirmedTxid) {
  // A byzantine relay can flip every ECDSA `s` to `n - s` before the
  // carrier reaches a miner (Andrychowicz et al., "How to deal with
  // malleability of BitCoin transactions", BITCOIN 2014): the twin
  // spends the same outpoints with the same authority but confirms
  // under a different txid. Because pending carriers are keyed by the
  // Typecoin payload hash — which signatures cannot touch — the pair
  // still registers, under the txid that actually confirmed.
  announce("malleated-carrier", 0, "s -> n-s twin confirms");
  tc::Node Node;
  Actor Alice(4004);
  fund(Node, Alice, 3);

  auto P = buildGrantPair(Alice, "ticket", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  std::string Payload = tc::payloadKey(*P);
  std::string OriginalTxid = P->Btc.txid().toHex();

  auto Twin = net::malleateTxSignatures(P->Btc);
  ASSERT_TRUE(Twin.has_value());
  std::string TwinTxid = Twin->txid().toHex();
  ASSERT_NE(TwinTxid, OriginalTxid);

  // A miner that saw only the malleated relay confirms the twin.
  auto Miner = keyFromSeed(44);
  bitcoin::Block B = mineOn(Node.chain(), Node.chain().tipHash(),
                            Miner.id(), Clock + 600, {*Twin});
  feed(Node, B);

  ASSERT_TRUE(Node.isRegistered(Payload));
  const tc::Registration *Reg = Node.registrationOf(Payload);
  ASSERT_NE(Reg, nullptr);
  EXPECT_EQ(Reg->TxidHex, TwinTxid);
  EXPECT_EQ(Node.pendingCount(), 0u);
  // The Typecoin state is keyed by the confirmed txid: `this` resolves
  // to the twin, and downstream spends must reference it.
  EXPECT_NE(Node.state().find(TwinTxid), nullptr);
  EXPECT_EQ(Node.state().find(OriginalTxid), nullptr);
  // The original (now conflicting) carrier was evicted from the pool.
  EXPECT_FALSE(Node.mempool().contains(P->Btc.txid()));
  EXPECT_TRUE(tc::auditState(Node.state()).hasValue());
}

TEST_F(ChaosReorg, ConfirmedCarrierKeepsItsRetryBudgetThroughAShallowReorg) {
  // Reorgs do not put transactions back into the mempool, so the retry
  // queue is the only way a dropped carrier gets back. Ticks while the
  // carrier sits confirmed but not yet at registration depth must not
  // re-offer it, or they spend the retry budget the reorg then needs.
  announce("confirmed-carrier-retry-budget", 0,
           "depth=6, MaxAttempts=3, 5-block branch from h4");
  tc::Node Node(tc::Node::defaultParams(), /*RegistrationDepth=*/6);
  tc::RetryPolicy Policy;
  Policy.MaxAttempts = 3;
  Node.setRetryPolicy(Policy);
  Actor Alice(4005);
  fund(Node, Alice, 3); // Height 4.

  auto P = buildGrantPair(Alice, "ticket", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  std::string Payload = tc::payloadKey(*P);
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h5.
  ASSERT_EQ(Node.chain().confirmations(P->Btc.txid()), 1);
  for (int H = 6; H <= 8; ++H) {
    Clock += 600;
    ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
    EXPECT_EQ(Node.tick(Clock), 0u) << "confirmed carrier re-offered at h"
                                    << H;
  }
  EXPECT_EQ(Node.attemptsOf(Payload), 1);
  EXPECT_FALSE(Node.isRegistered(Payload));

  // A heavier branch from h4 without the carrier: a reorg above the
  // scan frontier, so no rebuild requeues anything.
  auto Fork = Node.chain().blockHashAt(4);
  ASSERT_TRUE(Fork.has_value());
  auto Miner = keyFromSeed(45);
  bitcoin::BlockHash Tip = *Fork;
  for (int I = 0; I < 5; ++I) {
    bitcoin::Block Blk =
        mineOn(Node.chain(), Tip, Miner.id(), Clock + 700 + 600 * I);
    Tip = Blk.hash();
    feed(Node, Blk);
  }
  ASSERT_EQ(Node.chain().height(), 9);
  ASSERT_EQ(Node.chain().confirmations(P->Btc.txid()), 0);
  EXPECT_FALSE(Node.mempool().contains(P->Btc.txid()));

  Clock += 4000;
  EXPECT_EQ(Node.tick(Clock), 1u);
  EXPECT_TRUE(Node.mempool().contains(P->Btc.txid()));
  EXPECT_EQ(Node.attemptsOf(Payload), 2);
}

} // namespace
