//===- tests/analysis/dataflow_test.cpp - Affine dataflow pass tests ------===//
//
// Hand-built pending sets exercising both diagnostics the pass can emit
// (double-consume and cycle), plus the projection of a Bitcoin
// transaction into the pass's view.
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow.h"

#include "bitcoin/standard.h"
#include "support/rng.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::analysis;

namespace {

DataflowTx tx(std::string Txid, std::vector<std::string> Consumes) {
  DataflowTx T;
  T.Txid = std::move(Txid);
  T.Consumes = std::move(Consumes);
  return T;
}

TEST(Dataflow, CleanPendingSetPasses) {
  LintReport R = analyzeAffineDataflow({tx("p1", {"aa:0"})});
  EXPECT_TRUE(R.empty());
}

TEST(Dataflow, DoubleConsumeAcrossTransactions) {
  LintReport R =
      analyzeAffineDataflow({tx("p1", {"aa:0"}), tx("p2", {"aa:0"})});
  EXPECT_TRUE(R.has("dataflow-double-consume"));
  EXPECT_TRUE(R.hasErrors());
}

TEST(Dataflow, DoubleConsumeWithinOneTransaction) {
  LintReport R = analyzeAffineDataflow({tx("p1", {"aa:0", "aa:0"})});
  EXPECT_TRUE(R.has("dataflow-double-consume"));
}

TEST(Dataflow, PendingChainIsNotOrphaned) {
  // p2 consumes p1's output; p1 is pending, not on chain. A chain inside
  // the pending set is neither a double-consume nor a cycle.
  LintReport R =
      analyzeAffineDataflow({tx("p1", {"aa:0"}), tx("p2", {"p1:1"})});
  EXPECT_TRUE(R.empty());
}

TEST(Dataflow, CycleIsDetected) {
  LintReport R =
      analyzeAffineDataflow({tx("p1", {"p2:0"}), tx("p2", {"p1:0"})});
  EXPECT_TRUE(R.has("dataflow-cycle"));
  EXPECT_TRUE(R.hasErrors());
}

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

TEST(Dataflow, FromBitcoinTxSkipsCoinbaseInput) {
  using namespace typecoin::bitcoin;
  Transaction Cb;
  Cb.Inputs.push_back(TxIn{OutPoint::null(), Script(), 0xffffffff});
  Cb.Outputs.push_back(TxOut{50, makeP2PKH(keyFromSeed(3).id())});
  DataflowTx T = DataflowTx::fromBitcoinTx(Cb);
  EXPECT_TRUE(T.Consumes.empty());
  EXPECT_EQ(T.Txid, Cb.txid().toHex());
}

} // namespace
