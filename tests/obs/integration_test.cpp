//===- tests/obs/integration_test.cpp - End-to-end obs instrumentation ----===//
//
// Drives a real mine/submit/reorg/restart scenario through tc::Node and
// asserts the *exported* snapshot (the JSON a TYPECOIN_OBS_EXPORT run
// writes) carries non-zero checker.*, mempool.*, node.submit.* and
// reorg.depth metrics with plausible values — i.e. the instrumentation
// points fire where DESIGN.md says they do, and survive the
// serialize/parse round trip a tcstat user depends on.
//
//===----------------------------------------------------------------------===//

#include "chaosutil.h"

#include "obs/export.h"
#include "store/vfs.h"
#include "typecoin/node.h"

using namespace typecoin;
using namespace typecoin::chaosutil;

namespace {

/// Submit a block and require success.
void feed(tc::Node &Node, const bitcoin::Block &B) {
  auto R = Node.submitBlock(B);
  ASSERT_TRUE(R.hasValue()) << R.error().message();
}

TEST(ObsIntegration, MineSubmitReorgRecoverExportsPlausibleMetrics) {
  // The registry is process-wide: zero it and start clean so every
  // assertion below is an absolute count for this scenario.
  obs::Registry::instance().reset();
  obs::Registry::instance().enableTiming(true);
  obs::TraceBuffer::instance().clear();
  obs::TraceBuffer::instance().setEnabled(true);

  store::MemVfs Disk;
  auto Owned = std::make_unique<tc::Node>();
  tc::Node &Node = *Owned;
  ASSERT_TRUE(Node.openStore(Disk, "store").hasValue());
  Actor Alice(7001);
  uint32_t Clock = 0;

  // Fund Alice (3 coinbases + 1 maturity block).
  for (int I = 0; I < 3; ++I) {
    Clock += 600;
    ASSERT_TRUE(Node.mineBlock(Alice.id(), Clock).hasValue());
  }
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h4.

  // Submit one pair and confirm it at height 5, then bury it at 6.
  auto P = buildGrantPair(Alice, "metric", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h5.
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue()); // h6.
  ASSERT_TRUE(Node.isRegistered(tc::payloadKey(*P)));

  // Replace the tip with a two-block side branch: a depth-1 reorg that
  // leaves the registration (height 5) untouched.
  auto Parent = Node.chain().blockHashAt(5);
  ASSERT_TRUE(Parent.has_value());
  auto Miner = keyFromSeed(71);
  bitcoin::Block S6 = mineOn(Node.chain(), *Parent, Miner.id(), Clock + 700);
  bitcoin::Block S7 = mineOn(Node.chain(), S6.hash(), Miner.id(), Clock + 1300);
  feed(Node, S6);
  feed(Node, S7);
  ASSERT_EQ(Node.chain().height(), 7);

  // A second, unconfirmed pair, then a crash: the node dies after an
  // epoch flush, the power goes, and a new node reopens the disk. Its
  // start-up must report exactly what it rebuilt (no silent discards).
  auto P2 = buildGrantPair(Alice, "voucher", Alice.pub(), Node.chain());
  ASSERT_TRUE(P2.hasValue()) << P2.error().message();
  ASSERT_TRUE(Node.submitPair(*P2).hasValue());
  ASSERT_TRUE(Node.flushStoreEpoch().hasValue());
  Owned.reset();
  Disk.crash();
  tc::Node Restarted;
  auto Opened = Restarted.openStore(Disk, "store");
  ASSERT_TRUE(Opened.hasValue()) << Opened.error().message();
  EXPECT_EQ(Opened->JournalRestored, 2u);
  const tc::Node::RecoverStats &Stats = Opened->Rebuild;
  EXPECT_EQ(Stats.Registered, 1u);         // P survived the reorg.
  EXPECT_EQ(Stats.Requeued, 1u);           // P2 back in the retry queue.
  EXPECT_EQ(Stats.MempoolReadmitted, 1u);  // P2's carrier re-admitted.
  EXPECT_EQ(Stats.MempoolDropped, 0u);     // A new process has no pool.

  // --- Export and re-read, exactly as tcstat would ----------------------
  obs::Json Doc = obs::currentExportJson();
  ASSERT_NE(Doc.get("schema"), nullptr);
  EXPECT_EQ(Doc.get("schema")->str(), "typecoin-obs/1");
  auto Snap = obs::readSnapshotJson(Doc);
  ASSERT_TRUE(Snap.hasValue()) << Snap.error().message();
  const obs::Snapshot &S = *Snap;

  // checker.*: both submitted pairs were prechecked, both registration
  // scans re-checked them, and nothing in this scenario fails checks
  // other than transiently. Recovery replays make the exact count
  // implementation-defined; the bounds are what matters.
  EXPECT_GE(S.counter("checker.checks"), 2u);
  EXPECT_GE(S.counter("checker.registered"), 1u);
  EXPECT_EQ(S.counter("checker.spoiled"), 0u);
  const obs::HistogramData *CheckNs = S.histogram("checker.check_ns");
  ASSERT_NE(CheckNs, nullptr);
  EXPECT_EQ(CheckNs->Count, S.counter("checker.checks"));
  EXPECT_GT(CheckNs->Sum, 0u); // Timing was on: real durations landed.
  // Per-rule attribution covers the proof rule (the paper's hot spot).
  const obs::HistogramData *ProofNs =
      S.histogram("checker.rule.proof_ns");
  ASSERT_NE(ProofNs, nullptr);
  EXPECT_GT(ProofNs->Count, 0u);
  EXPECT_LE(ProofNs->Sum, CheckNs->Sum);

  // mempool.*: two carrier acceptances (P, P2) plus P2's re-admission
  // at start-up; nothing was dropped; the reorg revalidated.
  EXPECT_GE(S.counter("mempool.accept.ok"), 3u);
  EXPECT_EQ(S.counter("mempool.clear.dropped"), 0u);
  EXPECT_GE(S.counter("mempool.revalidate.runs"), 1u);
  EXPECT_EQ(S.gauge("mempool.size"), 1); // P2 is back in the pool.

  // reorg.*: one reorganization of depth exactly 1, run twice: once
  // live, and once more when the restarted node replays a block log
  // that holds both branches.
  EXPECT_EQ(S.counter("reorg.count"), 2u);
  EXPECT_EQ(S.gauge("reorg.depth.max"), 1);
  const obs::HistogramData *Depth = S.histogram("reorg.depth");
  ASSERT_NE(Depth, nullptr);
  EXPECT_EQ(Depth->Count, 2u);
  EXPECT_EQ(Depth->Max, 1u);

  // node.submit.*: two accepted pairs, no gate rejections.
  EXPECT_EQ(S.counter("node.submit.accepted"), 2u);
  EXPECT_EQ(S.counter("node.submit.rejected.correspondence"), 0u);
  EXPECT_EQ(S.counter("node.submit.rejected.precheck"), 0u);
  EXPECT_EQ(S.counter("store.recover.from_disk"), 1u);
  EXPECT_EQ(S.counter("node.recover.requeued"), 1u);

  // chain.*: every block submission was counted (6 mined + 2 fed, then
  // the replay's), and the reorg's disconnect ran live and in replay.
  EXPECT_GE(S.counter("chain.connect.count"), 8u);
  EXPECT_EQ(S.counter("chain.disconnect.count"), 2u);

  // The trace ring saw the scenario too. submitPair spans open at top
  // level, and the pre-check inside them puts checker.check at depth
  // >= 1 at least once (registration scans may also run it at depth 0).
  std::vector<obs::TraceEvent> Events = obs::TraceBuffer::instance().events();
  bool SawSubmit = false, SawNestedCheck = false;
  for (const obs::TraceEvent &E : Events) {
    if (E.Name == "node.submitPair") {
      SawSubmit = true;
      EXPECT_EQ(E.Depth, 0);
    }
    if (E.Name == "checker.check" && E.Depth >= 1)
      SawNestedCheck = true;
  }
  EXPECT_TRUE(SawSubmit);
  EXPECT_TRUE(SawNestedCheck);

  obs::TraceBuffer::instance().setEnabled(false);
  obs::Registry::instance().enableTiming(false);
}

} // namespace
