//===- tests/store/store_node_test.cpp - Node + durable store -------------===//
//
// The node-level durability contract: openStore either seeds a fresh
// store from memory or rebuilds the node from disk (assume-valid block
// replay cross-checked against the epoch's UTXO digest, journal from
// snapshot + WAL); submitPair acknowledges only after its WAL record is
// durable; and the batch server's deferred write-throughs survive a
// restart.
//
//===----------------------------------------------------------------------===//

#include "../chaos/chaosutil.h"

#include "obs/metrics.h"
#include "services/batchserver.h"
#include "store/chainstore.h"
#include "store/faultvfs.h"
#include "typecoin/node.h"

#include <cstdlib>

using namespace typecoin;
using namespace typecoin::chaosutil;

namespace {

/// A node with a funded issuer, as in the chaos suite.
class StoreNode : public ::testing::Test {
protected:
  StoreNode() : Alice(7001) {
    for (int I = 0; I < 3; ++I) {
      Clock += 600;
      EXPECT_TRUE(Node.mineBlock(Alice.id(), Clock).hasValue());
    }
    Clock += 600;
    EXPECT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  }

  /// Submit a grant pair and mine its carrier.
  std::string grantAndConfirm(const char *Name) {
    auto P = buildGrantPair(Alice, Name, Alice.pub(), Node.chain());
    EXPECT_TRUE(P.hasValue()) << (P.hasValue() ? "" : P.error().message());
    EXPECT_TRUE(Node.submitPair(*P).hasValue());
    Clock += 600;
    EXPECT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
    return tc::payloadKey(*P);
  }

  tc::Node Node;
  Actor Alice;
  uint32_t Clock = 0;
};

TEST_F(StoreNode, BootstrapSeedsTheStoreFromMemory) {
  store::MemVfs Mem;
  auto R = Node.openStore(Mem, "store", /*EpochInterval=*/2);
  ASSERT_TRUE(R.hasValue()) << R.error().message();
  EXPECT_FALSE(R->FromDisk);
  ASSERT_NE(Node.store(), nullptr);
  // The bootstrap flushed an epoch covering the whole pre-store chain.
  EXPECT_GE(Node.store()->epochNumber(), 1u);
  EXPECT_EQ(Node.store()->blockRecords().size(),
            static_cast<size_t>(Node.chain().height()));
}

TEST_F(StoreNode, GracefulRestartRebuildsTheExactFingerprint) {
  store::MemVfs Mem;
  ASSERT_TRUE(Node.openStore(Mem, "store", 2).hasValue());
  std::string K1 = grantAndConfirm("alpha");
  std::string K2 = grantAndConfirm("beta");
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  ASSERT_TRUE(Node.flushStoreEpoch());

  std::string Fp = Node.state().fingerprint();
  std::string Tip = Node.chain().tipHash().toHex();
  uint64_t SkippedBefore =
      obs::counter("chain.script_checks.skipped_assumevalid").value();

  Mem.crash(); // Only durable state survives.
  tc::Node Twin;
  auto R = Twin.openStore(Mem, "store", 2);
  ASSERT_TRUE(R.hasValue()) << R.error().message();
  EXPECT_TRUE(R->FromDisk);
  EXPECT_GE(R->Epoch, 1u);
  EXPECT_FALSE(R->DigestMismatch);
  EXPECT_EQ(R->BlockReplayErrors, 0u);
  EXPECT_EQ(R->JournalRestored, 2u);

  EXPECT_EQ(Twin.chain().tipHash().toHex(), Tip);
  EXPECT_EQ(Twin.state().fingerprint(), Fp);
  EXPECT_TRUE(Twin.isRegistered(K1));
  EXPECT_TRUE(Twin.isRegistered(K2));
  EXPECT_EQ(Twin.journal().size(), Node.journal().size());

  // The replay ran assume-valid up to the epoch tip: script checks
  // were skipped, and the UTXO digest cross-check vouched for them.
  EXPECT_GT(obs::counter("chain.script_checks.skipped_assumevalid").value(),
            SkippedBefore);
}

TEST_F(StoreNode, WalKeepsAcknowledgedPairsThroughACrash) {
  store::MemVfs Mem;
  ASSERT_TRUE(Node.openStore(Mem, "store", /*EpochInterval=*/100).hasValue());
  ASSERT_TRUE(Node.flushStoreEpoch());
  std::string TipAtEpoch = Node.chain().tipHash().toHex();

  // Acknowledged but never flushed into an epoch: the WAL alone must
  // carry it. Its carrier block is likewise unsynced and will die.
  auto P = buildGrantPair(Alice, "walpair", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue());
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  std::string Key = tc::payloadKey(*P);
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  ASSERT_TRUE(Node.isRegistered(Key));

  Mem.crash();
  tc::Node Twin;
  auto R = Twin.openStore(Mem, "store", 100);
  ASSERT_TRUE(R.hasValue()) << R.error().message();
  EXPECT_TRUE(R->FromDisk);
  // The chain rewound to the last durable epoch...
  EXPECT_EQ(Twin.chain().tipHash().toHex(), TipAtEpoch);
  // ...but the acknowledged pair survived in the WAL and is pending
  // resubmission, not lost.
  ASSERT_EQ(Twin.journal().count(Key), 1u);
  EXPECT_FALSE(Twin.isRegistered(Key));
  EXPECT_GE(Twin.pendingCount(), 1u);
}

TEST_F(StoreNode, EnospcRejectsThePairBeforeAcknowledging) {
  store::MemVfs Mem;
  store::FaultVfs Fault(Mem, &Mem);
  ASSERT_TRUE(Node.openStore(Fault, "store", 100).hasValue());

  auto P = buildGrantPair(Alice, "nospace", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue());
  std::string Key = tc::payloadKey(*P);

  // Disk full exactly at the WAL append for this pair.
  Fault.setPlan({store::FaultKind::Enospc, Fault.opCount() + 1, 1});
  auto S = Node.submitPair(*P);
  ASSERT_FALSE(S.hasValue());
  EXPECT_NE(S.error().message().find("journal write-through"),
            std::string::npos);
  // Not acknowledged: no journal entry, no pending carrier.
  EXPECT_EQ(Node.journal().count(Key), 0u);
  EXPECT_EQ(Node.pendingCount(), 0u);

  // The fault was transient; resubmission succeeds and acknowledges.
  Fault.setPlan({store::FaultKind::Clean, 0, 1});
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  EXPECT_EQ(Node.journal().count(Key), 1u);
}

TEST_F(StoreNode, DigestMismatchFallsBackToFullValidation) {
  store::MemVfs Mem;
  ASSERT_TRUE(Node.openStore(Mem, "store", 2).hasValue());
  std::string K = grantAndConfirm("tampered");
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  ASSERT_TRUE(Node.flushStoreEpoch());
  std::string Fp = Node.state().fingerprint();
  std::string Tip = Node.chain().tipHash().toHex();

  // Tamper with the snapshot's UTXO digest: assume-valid replay must
  // notice the cross-check failing and re-run full validation.
  std::string Snap = std::string("store/") + store::ChainStore::EpochFile;
  auto Raw = store::readFileAll(Mem, Snap);
  ASSERT_TRUE(Raw.hasValue());
  store::LogScan Scan = store::scanRecords(*Raw);
  ASSERT_EQ(Scan.Records.size(), 1u);
  auto Epoch = store::deserializeEpoch(Scan.Records[0]);
  ASSERT_TRUE(Epoch.hasValue());
  Epoch->UtxoDigestHex = std::string(64, '0');
  ASSERT_TRUE(store::writeFileAtomic(
      Mem, Snap,
      store::frameRecord(store::serializeEpoch(*Epoch))));

  tc::Node Twin;
  auto R = Twin.openStore(Mem, "store", 2);
  ASSERT_TRUE(R.hasValue()) << R.error().message();
  EXPECT_TRUE(R->FromDisk);
  EXPECT_TRUE(R->DigestMismatch);
  // Full validation healed the node to the same state regardless.
  EXPECT_EQ(Twin.chain().tipHash().toHex(), Tip);
  EXPECT_EQ(Twin.state().fingerprint(), Fp);
  EXPECT_TRUE(Twin.isRegistered(K));
}

TEST_F(StoreNode, OpenStoreFromEnvHonorsTheKnobs) {
  // Unset: no store is attached.
  unsetenv("TYPECOIN_STORE_DIR");
  {
    tc::Node N;
    auto R = N.openStoreFromEnv();
    ASSERT_TRUE(R.hasValue());
    EXPECT_FALSE(*R);
    EXPECT_EQ(N.store(), nullptr);
  }

  char Template[] = "/tmp/tc-store-env-XXXXXX";
  ASSERT_NE(mkdtemp(Template), nullptr);
  std::string Dir = std::string(Template) + "/chainstate";
  setenv("TYPECOIN_STORE_DIR", Dir.c_str(), 1);

  // A malformed fault spec is a hard error, not a silent no-fault run.
  setenv("TYPECOIN_STORE_FAULTS", "bogus@1", 1);
  {
    tc::Node N;
    EXPECT_FALSE(N.openStoreFromEnv().hasValue());
  }

  // A well-formed never-firing plan attaches a faulted Posix store.
  setenv("TYPECOIN_STORE_FAULTS", "clean@0", 1);
  {
    tc::Node N;
    auto R = N.openStoreFromEnv();
    ASSERT_TRUE(R.hasValue()) << R.error().message();
    EXPECT_TRUE(*R);
    ASSERT_NE(N.store(), nullptr);
  }
  unsetenv("TYPECOIN_STORE_FAULTS");

  // Plain Posix store: state persists across env-driven reopen.
  {
    tc::Node N;
    ASSERT_TRUE(N.openStoreFromEnv().hasValue());
    ASSERT_NE(N.store(), nullptr);
    ASSERT_TRUE(N.flushStoreEpoch());
  }
  {
    tc::Node N;
    auto R = N.openStoreFromEnv();
    ASSERT_TRUE(R.hasValue());
    EXPECT_TRUE(*R);
  }
  unsetenv("TYPECOIN_STORE_DIR");
}

TEST_F(StoreNode, BatchDeferredWriteThroughsSurviveARestart) {
  store::MemVfs Mem;
  ASSERT_TRUE(Node.openStore(Mem, "store", 100).hasValue());
  services::BatchServer Server(Node, 9101);

  // A resource held at the server's key (as in the resubmission test).
  auto P = buildGrantPair(Alice, "res", Server.serverKey(), Node.chain());
  ASSERT_TRUE(P.hasValue());
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  const tc::Registration *Reg = Node.registrationOf(tc::payloadKey(*P));
  ASSERT_NE(Reg, nullptr);
  logic::PropPtr Res = Node.state().outputType(Reg->TxidHex, 0);

  // An unfundable write-through: deferred, and WAL'd as an obligation.
  tc::Transaction T;
  tc::Input In;
  In.SourceTxid = Reg->TxidHex;
  In.SourceIndex = 0;
  In.Type = Res;
  In.Amount = 10000;
  T.Inputs.push_back(In);
  tc::Output Out;
  Out.Type = Res;
  Out.Amount = 10000;
  Out.Owner = Alice.pub();
  T.Outputs.push_back(Out);
  auto Proof = tc::makeRoutingProof(T);
  ASSERT_TRUE(Proof.hasValue());
  T.Proof = *Proof;
  EXPECT_FALSE(Server.recordWriteThrough(T).hasValue());
  EXPECT_EQ(Server.deferredCount(), 1u);

  // Restart: a fresh server over the recovered node reloads the
  // obligation from the store.
  Mem.crash();
  tc::Node Twin;
  ASSERT_TRUE(Twin.openStore(Mem, "store", 100).hasValue());
  services::BatchServer Recovered(Twin, 9101);
  EXPECT_EQ(Recovered.deferredCount(), 0u);
  EXPECT_EQ(Recovered.recoverDeferred(), 1u);
  EXPECT_EQ(Recovered.deferredCount(), 1u);

  // Fund the server on the recovered node; the retry discharges the
  // obligation and resolves it in the WAL.
  uint32_t C = Twin.now();
  C += 600;
  ASSERT_TRUE(Twin.mineBlock(Recovered.serverId(), C).hasValue());
  C += 600;
  ASSERT_TRUE(Twin.mineBlock(crypto::KeyId{}, C).hasValue());
  EXPECT_EQ(Recovered.retryPending(static_cast<double>(Twin.now()) + 1000),
            1u);
  EXPECT_EQ(Recovered.deferredCount(), 0u);

  // Resolved: a second recovery no longer owes anything.
  services::BatchServer Third(Twin, 9101);
  EXPECT_EQ(Third.recoverDeferred(), 0u);
}

} // namespace
