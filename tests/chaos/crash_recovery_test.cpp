//===- tests/chaos/crash_recovery_test.cpp - Crash and recovery -----------===//
//
// A crashed Typecoin node loses its mempool, pending queue, and every
// in-memory index; only what its store synced survives. A new node that
// reopens the disk (tc::Node::openStore) must rebuild a state
// indistinguishable — entry for entry — from a peer that never crashed.
//
//===----------------------------------------------------------------------===//

#include "chaosutil.h"

#include "store/vfs.h"
#include "typecoin/audit.h"

using namespace typecoin;
using namespace typecoin::chaosutil;

namespace {

/// Crash \p N as a process dies: flush an epoch so its chain is durable,
/// destroy it, cut power to \p Disk, and reopen the disk in a new node.
std::unique_ptr<tc::Node> crashAndRestart(std::unique_ptr<tc::Node> N,
                                          store::MemVfs &Disk) {
  EXPECT_TRUE(N->flushStoreEpoch().hasValue());
  N.reset();
  Disk.crash();
  auto Restarted = std::make_unique<tc::Node>();
  auto R = Restarted->openStore(Disk, "store");
  EXPECT_TRUE(R.hasValue()) << R.error().message();
  EXPECT_TRUE(R && R->FromDisk);
  return Restarted;
}

/// Feed every best-chain block NodeB has not seen yet from NodeA.
void mirror(tc::Node &From, tc::Node &To) {
  for (int H = To.chain().height() + 1; H <= From.chain().height(); ++H) {
    auto Hash = From.chain().blockHashAt(H);
    ASSERT_TRUE(Hash.has_value());
    const bitcoin::Block *B = From.chain().blockByHash(*Hash);
    ASSERT_NE(B, nullptr);
    auto S = To.submitBlock(*B);
    ASSERT_TRUE(S.hasValue()) << S.error().message();
  }
}

TEST(ChaosCrashRecovery, RecoveredNodeMatchesHealthyPeerEntryForEntry) {
  announce("tc-crash-recovery", 0, "journal+chain replay");
  store::MemVfs Disk;
  auto A = std::make_unique<tc::Node>();
  ASSERT_TRUE(A->openStore(Disk, "store").hasValue());
  tc::Node B;
  Actor Alice(3001);
  uint32_t Clock = 0;

  // Fund Alice on A; mirror every block into B.
  for (int I = 0; I < 3; ++I) {
    Clock += 600;
    ASSERT_TRUE(A->mineBlock(Alice.id(), Clock).hasValue());
  }
  Clock += 600;
  ASSERT_TRUE(A->mineBlock(crypto::KeyId{}, Clock).hasValue());
  mirror(*A, B);

  // One confirmed pair, journaled on both nodes.
  auto P1 = buildGrantPair(Alice, "ticket", Alice.pub(), A->chain());
  ASSERT_TRUE(P1.hasValue()) << P1.error().message();
  ASSERT_TRUE(A->submitPair(*P1).hasValue());
  ASSERT_TRUE(B.submitPair(*P1).hasValue());
  Clock += 600;
  ASSERT_TRUE(A->mineBlock(crypto::KeyId{}, Clock).hasValue());
  mirror(*A, B);
  std::string Payload1 = tc::payloadKey(*P1);
  ASSERT_TRUE(A->isRegistered(Payload1));
  ASSERT_TRUE(B.isRegistered(Payload1));

  // One pair still unconfirmed at crash time.
  auto P2 = buildGrantPair(Alice, "voucher", Alice.pub(), A->chain());
  ASSERT_TRUE(P2.hasValue()) << P2.error().message();
  auto S2 = A->submitPair(*P2);
  ASSERT_TRUE(S2.hasValue()) << S2.error().message();
  ASSERT_TRUE(B.submitPair(*P2).hasValue());
  std::string Payload2 = tc::payloadKey(*P2);
  EXPECT_FALSE(A->isRegistered(Payload2));
  EXPECT_EQ(A->pendingCount(), 1u);

  // Crash A and restart it from its disk. Volatile state is rebuilt
  // from the chain and journal the store kept.
  A = crashAndRestart(std::move(A), Disk);

  EXPECT_EQ(A->state().fingerprint(), B.state().fingerprint());
  ASSERT_TRUE(A->isRegistered(Payload1));
  const tc::Registration *RegA = A->registrationOf(Payload1);
  const tc::Registration *RegB = B.registrationOf(Payload1);
  ASSERT_NE(RegA, nullptr);
  ASSERT_NE(RegB, nullptr);
  EXPECT_EQ(RegA->TxidHex, RegB->TxidHex);
  EXPECT_EQ(RegA->Height, RegB->Height);

  // The unconfirmed pair re-entered the mempool and the retry queue.
  EXPECT_EQ(A->pendingCount(), 1u);
  EXPECT_TRUE(A->mempool().contains(P2->Btc.txid()));
  EXPECT_FALSE(A->isRegistered(Payload2));

  // Mining it afterwards registers it exactly once, as if the crash
  // never happened.
  Clock += 600;
  ASSERT_TRUE(A->mineBlock(crypto::KeyId{}, Clock).hasValue());
  mirror(*A, B);
  EXPECT_TRUE(A->isRegistered(Payload2));
  EXPECT_TRUE(B.isRegistered(Payload2));
  EXPECT_EQ(A->state().fingerprint(), B.state().fingerprint());
  EXPECT_EQ(A->pendingCount(), 0u);

  EXPECT_TRUE(tc::auditChain(A->chain()).hasValue());
  EXPECT_TRUE(tc::auditState(A->state()).hasValue());
}

TEST(ChaosCrashRecovery, RecoverMatchesFromGenesisReplay) {
  store::MemVfs Disk;
  auto A = std::make_unique<tc::Node>();
  ASSERT_TRUE(A->openStore(Disk, "store").hasValue());
  Actor Alice(3002);
  uint32_t Clock = 0;
  for (int I = 0; I < 2; ++I) {
    Clock += 600;
    ASSERT_TRUE(A->mineBlock(Alice.id(), Clock).hasValue());
  }
  Clock += 600;
  ASSERT_TRUE(A->mineBlock(crypto::KeyId{}, Clock).hasValue());

  auto P = buildGrantPair(Alice, "stamp", Alice.pub(), A->chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(A->submitPair(*P).hasValue());
  Clock += 600;
  ASSERT_TRUE(A->mineBlock(crypto::KeyId{}, Clock).hasValue());

  // The incremental state must agree with an independent from-genesis
  // replay of the same chain + journal, and so must the state a restart
  // rebuilds from disk — the code paths cross-check each other.
  auto Replayed =
      tc::replayChain(A->chain(), A->journal(), A->registrationDepth());
  ASSERT_TRUE(Replayed.hasValue()) << Replayed.error().message();
  EXPECT_EQ(A->state().fingerprint(), Replayed->TcState.fingerprint());
  A = crashAndRestart(std::move(A), Disk);
  EXPECT_EQ(A->state().fingerprint(), Replayed->TcState.fingerprint());
  EXPECT_EQ(Replayed->Registered.size(), 1u);
  EXPECT_TRUE(A->isRegistered(tc::payloadKey(*P)));
}

} // namespace
