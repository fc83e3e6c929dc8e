//===- tests/analysis/submit_contract_test.cpp - Lint vs. the node --------===//
//
// The node-level half of the severity contract. `tc::Node::submitPair`
// runs no lint and no symbolic check of its own: a pair goes through
// the correspondence check, one pass of the checker over its
// alternatives, and the mempool. Every `Error` that `tclint --sym
// --dataflow` reports on a decodable pair must still be rejected by
// exactly one of those stages, which the table below names per code.
// Codes that need a null field are left out: such pairs cannot be
// decoded, so they never reach a node. A resource already consumed on
// the chain is refused by the pre-check, while a retry of the pair that
// consumed it is still acknowledged. The one exception is a pair whose
// carrier already confirmed: the node adopts it and registration
// decides (the last test).
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow.h"
#include "analysis/lint.h"
#include "analysis/tcsym.h"

#include "bitcoin/miner.h"
#include "bitcoin/standard.h"
#include "obs/metrics.h"

#include "../typecoin/testutil.h"

#include <gtest/gtest.h>
#include <map>

using namespace typecoin;
using namespace typecoin::logic;
using namespace typecoin::testutil;

namespace {

/// One error code, the edit that makes a clean pair carry it, and the
/// `node.submit.rejected.*` counter that must move.
struct Row {
  const char *Code;
  const char *RejectedBy;
  /// Applied to the Typecoin transaction before the carrier is built.
  void (*EditTc)(tc::Transaction &) = nullptr;
  /// Applied to the built pair.
  void (*EditPair)(tc::Pair &) = nullptr;
};

const Row Rows[] = {
    {"affine-reuse", "precheck",
     [](tc::Transaction &T) {
       T.Proof = mLam("x", pOne(), mTensorPair(mVar("x"), mVar("x")));
     }},
    {"affine-unbound", "precheck",
     [](tc::Transaction &T) { T.Proof = mVar("nope"); }},
    {"affine-banged", "precheck",
     [](tc::Transaction &T) {
       T.Proof = mLam("x", pOne(), mBang(mVar("x")));
     }},
    {"input-none", "precheck", [](tc::Transaction &T) { T.Inputs.clear(); }},
    {"input-dup", "precheck",
     [](tc::Transaction &T) { T.Inputs.push_back(T.Inputs[0]); }},
    {"output-dust", "mempool",
     [](tc::Transaction &T) {
       T.Outputs[0].Amount = bitcoin::DustThreshold - 1;
       T.Proof = *tc::makeRoutingProof(T);
     }},
    {"fallback-shape", "correspondence",
     [](tc::Transaction &T) {
       tc::Transaction F = T;
       F.Inputs[0].SourceIndex += 1;
       T.Fallbacks.push_back(F);
     }},
    {"embed-mismatch", "correspondence", nullptr,
     [](tc::Pair &P) { P.Tc.Outputs[0].Amount += 1; }},
    {"script-nonstandard", "mempool", nullptr,
     [](tc::Pair &P) {
       P.Btc.Outputs.push_back({0, bitcoin::Script().op(bitcoin::OP_NOP)});
     }},
    {"script-nulldata-count", "mempool", nullptr,
     [](tc::Pair &P) {
       for (const char *Data : {"a", "b"})
         P.Btc.Outputs.push_back({0, bitcoin::makeNullData(
                                         bytesOfString(Data))});
     }},
    {"script-sig-not-push", "mempool", nullptr,
     [](tc::Pair &P) { P.Btc.Inputs[0].ScriptSig.op(bitcoin::OP_NOP); }},
    {"sym-unspendable", "mempool", nullptr,
     [](tc::Pair &P) {
       P.Btc.Outputs.push_back({1000, bitcoin::Script()
                                          .pushInt(1)
                                          .pushInt(2)
                                          .op(bitcoin::OP_EQUALVERIFY)
                                          .pushInt(1)});
     }},
    {"sym-malformed", "mempool", nullptr,
     [](tc::Pair &P) {
       P.Btc.Outputs.push_back({1000, bitcoin::Script(Bytes{0x4c})});
     }},
    {"sym-stack-unsafe", "mempool", nullptr,
     [](tc::Pair &P) {
       P.Btc.Outputs.push_back(
           {1000, bitcoin::Script().push(
                      Bytes(bitcoin::MaxScriptPushSize + 1, 0x7f))});
     }},
    {"dataflow-double-consume", "precheck",
     [](tc::Transaction &T) { T.Inputs.push_back(T.Inputs[0]); }},
};

const char *const Stages[] = {"correspondence", "precheck", "mempool"};

uint64_t counterNow(const std::string &Name) {
  return obs::counter(Name).value();
}

/// The report `tclint --sym --dataflow` prints for a pair: the lint,
/// tcsym over the carrier outputs, and the dataflow pass over the pair.
analysis::LintReport report(const tc::Pair &P) {
  analysis::LintReport R = analysis::lint(P);
  R.merge(analysis::analyzeCarrierScripts(P.Btc));
  R.merge(analysis::analyzeAffineDataflow(
              {analysis::DataflowTx::fromPair(P.Tc, P.Btc)}),
          "dataflow");
  return R;
}

/// Snapshot of every `node.submit.rejected.*` stage counter.
std::map<std::string, uint64_t> rejectedNow() {
  std::map<std::string, uint64_t> Out;
  for (const char *Stage : Stages)
    Out[Stage] = counterNow(std::string("node.submit.rejected.") + Stage);
  return Out;
}

/// Exactly \p Stage's rejection counter moved (by one) since \p Before.
void expectRejectedBy(const std::map<std::string, uint64_t> &Before,
                      const std::string &Stage) {
  for (const char *S : Stages)
    EXPECT_EQ(counterNow(std::string("node.submit.rejected.") + S) -
                  Before.at(S),
              S == Stage ? 1u : 0u)
        << S;
}

class SeverityContract : public ::testing::Test {
protected:
  SeverityContract() : Alice(601), Bob(602) { fund(Node, Alice, 2, Clock); }

  /// Alice routes one trivially typed coin to Bob: valid on every stage.
  tc::Transaction cleanTx() {
    auto Spendable = Alice.Wallet.findSpendable(Node.chain());
    EXPECT_FALSE(Spendable.empty());
    tc::Input In;
    In.SourceTxid = Spendable.front().Point.Tx.toHex();
    In.SourceIndex = Spendable.front().Point.Index;
    In.Type = pOne();
    In.Amount = Spendable.front().Value;
    tc::Transaction T;
    T.Inputs.push_back(In);
    tc::Output Out;
    Out.Type = pOne();
    Out.Amount = 100000;
    Out.Owner = Bob.pub();
    T.Outputs.push_back(Out);
    T.Proof = *tc::makeRoutingProof(T);
    return T;
  }

  tc::Pair pairFor(const Row &R) {
    tc::Transaction T = cleanTx();
    if (R.EditTc)
      R.EditTc(T);
    auto P = tc::buildPair(T, Alice.Wallet, Node.chain());
    EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().message());
    if (R.EditPair)
      R.EditPair(*P);
    return *P;
  }

  tc::Node Node;
  Actor Alice, Bob;
  uint32_t Clock = 0;
};

TEST_F(SeverityContract, EveryLintErrorIsRejectedByOneStage) {
  // The unedited pair is error-free, so each row's error is its edit's.
  tc::Pair Clean = pairFor(Row{"", ""});
  ASSERT_FALSE(report(Clean).hasErrors()) << report(Clean).str();
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Code);
    tc::Pair P = pairFor(R);
    analysis::LintReport Report = report(P);
    EXPECT_TRUE(Report.has(R.Code)) << Report.str();

    auto Before = rejectedNow();
    uint64_t AcceptedBefore = counterNow("node.submit.accepted");
    EXPECT_FALSE(Node.submitPair(P).hasValue());
    expectRejectedBy(Before, R.RejectedBy);
    EXPECT_EQ(counterNow("node.submit.accepted"), AcceptedBefore);
  }
}

TEST_F(SeverityContract, ConsumedResourceIsRejectedByPrecheck) {
  // Two pairs consume the same wallet output. Once the first confirms,
  // the second consumes a resource the chain already consumed.
  tc::Transaction T1 = cleanTx();
  tc::Transaction T2 = T1;
  T2.Outputs[0].Owner = Alice.pub();
  T2.Proof = *tc::makeRoutingProof(T2);
  auto P1 = tc::buildPair(T1, Alice.Wallet, Node.chain());
  auto P2 = tc::buildPair(T2, Alice.Wallet, Node.chain());
  ASSERT_TRUE(P1.hasValue()) << P1.error().message();
  ASSERT_TRUE(P2.hasValue()) << P2.error().message();
  ASSERT_NE(tc::payloadKey(*P1), tc::payloadKey(*P2));
  ASSERT_TRUE(Node.submitPair(*P1).hasValue());
  mine(Node, crypto::KeyId{}, 1, Clock);
  ASSERT_TRUE(Node.isRegistered(tc::payloadKey(*P1)));

  auto Before = rejectedNow();
  uint64_t AcceptedBefore = counterNow("node.submit.accepted");
  Status S = Node.submitPair(*P2);
  ASSERT_FALSE(S.hasValue());
  EXPECT_NE(S.error().message().find("already consumed"), std::string::npos)
      << S.error().message();
  expectRejectedBy(Before, "precheck");
  EXPECT_EQ(counterNow("node.submit.accepted"), AcceptedBefore);

  // A client's retry of the confirmed pair is acknowledged, not refused.
  Status Retry = Node.submitPair(*P1);
  EXPECT_TRUE(Retry.hasValue()) << Retry.error().message();
}

TEST_F(SeverityContract, ConfirmedAffineReuseIsAdoptedAndSpoiled) {
  // A carrier whose payload reuses an affine hypothesis confirms anyway
  // (a miner that skips the Typecoin layer). Late adoption journals it,
  // and registration spoils its input (Section 5), exactly as a
  // from-genesis replay of the chain does.
  tc::Pair P = pairFor(Rows[0]);
  ASSERT_TRUE(analysis::lint(P).has("affine-reuse"));
  bitcoin::Mempool Loose{bitcoin::MempoolPolicy{0, false}};
  ASSERT_TRUE(Loose.acceptTransaction(P.Btc, Node.chain()).hasValue());
  Clock += 600;
  ASSERT_TRUE(bitcoin::mineAndSubmit(Node.chain(), Loose, crypto::KeyId{},
                                     Clock)
                  .hasValue());

  uint64_t Adopted = counterNow("node.submit.late_adopted");
  ASSERT_TRUE(Node.submitPair(P).hasValue());
  EXPECT_EQ(counterNow("node.submit.late_adopted"), Adopted + 1);

  std::string Txid = tc::txidHex(P.Btc);
  EXPECT_TRUE(Node.isRegistered(tc::payloadKey(P)));
  EXPECT_TRUE(Node.state().isSpoiled(Txid));
  EXPECT_TRUE(Node.state().isConsumed(P.Tc.Inputs[0].SourceTxid,
                                      P.Tc.Inputs[0].SourceIndex));
  auto Replay =
      tc::replayChain(Node.chain(), Node.journal(), Node.registrationDepth());
  ASSERT_TRUE(Replay.hasValue()) << Replay.error().message();
  EXPECT_EQ(Replay->TcState.fingerprint(), Node.state().fingerprint());
}

} // namespace
