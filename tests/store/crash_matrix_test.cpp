//===- tests/store/crash_matrix_test.cpp - The (crash-point × fault) sweep ===//
//
// The headline robustness claim: for EVERY state-changing I/O operation
// the durable-store workload performs, and EVERY fault kind the storage
// layer models, kill the node at that operation, power-cycle the
// simulated disk, restart, heal from peers, and demand the recovered
// node's State::fingerprint equals an uninterrupted twin's and a
// from-genesis replay of its own chain and journal. No cell ends with a
// rebuild of its own, so the restarted node's incremental state is what
// is compared. The matrix size is asserted so a cell can never be
// skipped silently.
//
// The workload is precomputed once (blocks mined and pairs signed
// against a scratch node) so each of the several hundred cells replays
// identical, deterministic inputs.
//
//===----------------------------------------------------------------------===//

#include "../chaos/chaosutil.h"

#include "store/chainstore.h"
#include "store/faultvfs.h"
#include "typecoin/node.h"

#include <optional>

using namespace typecoin;
using namespace typecoin::chaosutil;

namespace {

/// One deterministic input to the node: a pair to submit or a block to
/// deliver.
struct Step {
  std::optional<tc::Pair> P;
  std::optional<bitcoin::Block> B;
};

/// The store exercised at EpochInterval = 2, so a short workload still
/// crosses several flush epochs (the most delicate I/O sequence).
constexpr uint64_t kEpochInterval = 2;

/// Build the scripted workload once: fund an issuer, grant two
/// resources (each confirmed by an explicitly-mined carrier block), and
/// close with an empty block. Every block is mined with mineOn against
/// a scratch node so cells submit identical bytes.
const std::vector<Step> &workload() {
  static const std::vector<Step> W = [] {
    std::vector<Step> Steps;
    tc::Node Scratch;
    Actor Issuer(9301), Bob(9302);
    uint32_t Clock = 0;

    auto Deliver = [&](const bitcoin::Block &B) {
      Steps.push_back(Step{std::nullopt, B});
      EXPECT_TRUE(Scratch.submitBlock(B).hasValue());
    };
    for (int I = 0; I < 3; ++I) {
      Clock += 600;
      Deliver(mineOn(Scratch.chain(), Scratch.chain().tipHash(),
                     Issuer.id(), Clock));
    }
    for (const char *Name : {"alpha", "beta"}) {
      auto P = buildGrantPair(Issuer, Name, Bob.pub(), Scratch.chain());
      EXPECT_TRUE(P.hasValue())
          << (P.hasValue() ? "" : P.error().message());
      Steps.push_back(Step{*P, std::nullopt});
      EXPECT_TRUE(Scratch.submitPair(*P).hasValue());
      Clock += 600;
      Deliver(mineOn(Scratch.chain(), Scratch.chain().tipHash(),
                     crypto::KeyId{}, Clock, {P->Btc}));
    }
    Clock += 600;
    Deliver(mineOn(Scratch.chain(), Scratch.chain().tipHash(),
                   crypto::KeyId{}, Clock));
    return Steps;
  }();
  return W;
}

/// Drive the workload into \p N. With \p Ignore, step failures are
/// expected (the cell's fault has fired) — convergence is asserted on
/// the final fingerprint, not per step.
void runWorkload(tc::Node &N, bool Ignore) {
  for (const Step &S : workload()) {
    if (S.P) {
      auto St = N.submitPair(*S.P);
      if (!Ignore) {
        ASSERT_TRUE(St.hasValue()) << St.error().message();
      }
    } else {
      auto St = N.submitBlock(*S.B);
      if (!Ignore) {
        ASSERT_TRUE(St.hasValue()) << St.error().message();
      }
    }
  }
}

/// The uninterrupted twin every cell must converge to.
struct TwinView {
  std::string Fingerprint;
  std::string TipHex;
  size_t JournalSize = 0;
};

const TwinView &twin() {
  static const TwinView T = [] {
    tc::Node N;
    runWorkload(N, /*Ignore=*/false);
    TwinView V;
    V.Fingerprint = N.state().fingerprint();
    V.TipHex = N.chain().tipHash().toHex();
    V.JournalSize = N.journal().size();
    return V;
  }();
  return T;
}

/// The node's state equals a from-genesis replay of its own chain and
/// journal.
void expectMatchesReplay(const tc::Node &N) {
  auto Replayed =
      tc::replayChain(N.chain(), N.journal(), N.registrationDepth());
  ASSERT_TRUE(Replayed.hasValue()) << Replayed.error().message();
  EXPECT_EQ(N.state().fingerprint(), Replayed->TcState.fingerprint());
}

/// Count the crash points the workload exposes: a full run against a
/// fault plan that never fires.
uint64_t countCrashPoints() {
  store::MemVfs Mem;
  store::FaultVfs Fault(Mem, &Mem);
  tc::Node N;
  auto R = N.openStore(Fault, "store", kEpochInterval);
  EXPECT_TRUE(R.hasValue());
  runWorkload(N, /*Ignore=*/false);
  // Sanity: the store-attached node agrees with the storeless twin.
  EXPECT_EQ(N.state().fingerprint(), twin().Fingerprint);
  EXPECT_EQ(N.chain().tipHash().toHex(), twin().TipHex);
  return Fault.opCount();
}

/// Run one matrix cell; returns true iff the recovered node converged.
void runCell(store::FaultKind Kind, uint64_t Op) {
  store::MemVfs Mem;
  store::FaultVfs Fault(Mem, &Mem);
  Fault.setPlan({Kind, Op, /*Seed=*/Op * 7919 + 17});
  {
    // The doomed process: runs until the fault kills its I/O (or to
    // completion for the survivable kinds), then dies.
    tc::Node Doomed;
    (void)Doomed.openStore(Fault, "store", kEpochInterval);
    runWorkload(Doomed, /*Ignore=*/true);
  }
  // Power cut: everything unsynced dies; a torn or bit-rotted tail of
  // the in-flight write survives per the fault kind.
  Fault.powerLoss();

  // Restart on the post-crash disk — no faults this time — and heal
  // from peers (the full workload again).
  tc::Node Restarted;
  auto R = Restarted.openStore(Mem, "store", kEpochInterval);
  ASSERT_TRUE(R.hasValue())
      << "recovery must never fail on a post-crash store: "
      << R.error().message();
  runWorkload(Restarted, /*Ignore=*/true);

  EXPECT_EQ(Restarted.chain().tipHash().toHex(), twin().TipHex);
  EXPECT_EQ(Restarted.state().fingerprint(), twin().Fingerprint);
  EXPECT_EQ(Restarted.journal().size(), twin().JournalSize);
  expectMatchesReplay(Restarted);
}

TEST(StoreCrashMatrix, EveryCrashPointTimesEveryFaultKindConverges) {
  announce("store-crash-matrix", 0, "crash-point x fault-kind sweep");
  const uint64_t Points = countCrashPoints();
  // The workload must genuinely exercise the store: bootstrap, WAL
  // appends, block appends, and several epoch flushes.
  ASSERT_GE(Points, 20u) << "workload exposes too few crash points";

  const store::FaultKind Kinds[] = {
      store::FaultKind::Clean,    store::FaultKind::Torn,
      store::FaultKind::Corrupt,  store::FaultKind::FsyncLie,
      store::FaultKind::Enospc,   store::FaultKind::Short,
  };
  size_t Cells = 0;
  for (store::FaultKind Kind : Kinds) {
    for (uint64_t Op = 1; Op <= Points; ++Op) {
      SCOPED_TRACE(std::string("cell ") + store::faultKindName(Kind) +
                   "@" + std::to_string(Op));
      runCell(Kind, Op);
      if (::testing::Test::HasFatalFailure())
        return;
      ++Cells;
    }
  }
  // No silently skipped cells: the sweep covered the whole matrix.
  EXPECT_EQ(Cells, 6 * Points);
}

} // namespace
