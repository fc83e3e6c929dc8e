//===- tests/typecoin/fallback_test.cpp - Fallback transactions (S5) ------===//
//
// "If the primary transaction turns out to be invalid, the first valid
// fallback transaction is used instead. A typical fallback transaction
// simply returns all inputs to their original owners." All transactions
// in the list must map onto the same Bitcoin transaction, so outputs'
// principals and amounts agree; only the *types* are re-routed.
//
//===----------------------------------------------------------------------===//

#include "testutil.h"

#include "obs/metrics.h"

using namespace typecoin;
using namespace typecoin::tc;
using namespace typecoin::testutil;

namespace {

class FallbackTest : public ::testing::Test {
protected:
  FallbackTest() : Alice(501), Bob(502), Carol(503) {
    fund(Node, Alice, 3, Clock);
    fund(Node, Bob, 2, Clock);
  }

  Input trivialInput(Actor &A) {
    auto Spendable = A.Wallet.findSpendable(Node.chain());
    for (const auto &S : Spendable) {
      std::string Key =
          S.Point.Tx.toHex() + ":" + std::to_string(S.Point.Index);
      if (UsedInputs.count(Key))
        continue;
      UsedInputs.insert(Key);
      Input In;
      In.SourceTxid = S.Point.Tx.toHex();
      In.SourceIndex = S.Point.Index;
      In.Type = logic::pOne();
      In.Amount = S.Value;
      return In;
    }
    ADD_FAILURE() << "no unused spendable output";
    return Input{};
  }

  /// Grant Bob a `widget`.
  std::pair<std::string, logic::PropPtr> grantWidget() {
    Transaction T;
    auto S = T.LocalBasis.declareFamily(lf::ConstName::local("widget"),
                                        lf::kProp());
    EXPECT_TRUE(S.hasValue());
    T.Grant = logic::pAtom(lf::tConst(lf::ConstName::local("widget")));
    T.Inputs.push_back(trivialInput(Alice));
    Output Out;
    Out.Type = T.Grant;
    Out.Amount = 10000;
    Out.Owner = Bob.pub();
    T.Outputs.push_back(Out);
    using namespace logic;
    T.Proof = mLam(
        "x", pTensor(T.Grant, pTensor(T.inputTensor(), T.receiptTensor())),
        mTensorLet("c", "ar", mVar("x"),
                   mTensorLet("a", "r", mVar("ar"),
                              mOneLet(mVar("a"), mVar("c")))));
    auto P = buildPair(T, Alice.Wallet, Node.chain());
    EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().message());
    std::string Txid = confirmPair(Node, *P, Clock);
    return {Txid, logic::resolveProp(T.Grant, Txid)};
  }

  /// Bob sends the widget to Carol under `before(Deadline)`; the
  /// fallback re-routes the widget type back to Bob's output slot.
  /// Outputs: [0] -> Carol, [1] -> Bob (same principals and amounts in
  /// both alternatives).
  Transaction buildConditional(const std::string &WidgetTxid,
                               const logic::PropPtr &Widget,
                               uint64_t Deadline) {
    using namespace logic;
    Transaction T;
    Input In;
    In.SourceTxid = WidgetTxid;
    In.SourceIndex = 0;
    In.Type = Widget;
    In.Amount = 10000;
    T.Inputs.push_back(In);

    Output ToCarol;
    ToCarol.Type = Widget; // Primary: Carol receives the widget.
    ToCarol.Amount = 5000;
    ToCarol.Owner = Carol.pub();
    T.Outputs.push_back(ToCarol);
    Output ToBob;
    ToBob.Type = pOne(); // Primary: Bob's slot is trivial.
    ToBob.Amount = 4000;
    ToBob.Owner = Bob.pub();
    T.Outputs.push_back(ToBob);

    CondPtr Phi = cBefore(Deadline);
    // \x. let (c,ar)=x in let (a,r)=ar in let()=c in
    //     ifreturn_phi (a, ()).
    T.Proof = mLam(
        "x", pTensor(T.Grant, pTensor(T.inputTensor(), T.receiptTensor())),
        mTensorLet(
            "c", "ar", mVar("x"),
            mTensorLet("a", "r", mVar("ar"),
                       mOneLet(mVar("c"),
                               mIfReturn(Phi, mTensorPair(mVar("a"),
                                                          mOne()))))));

    // Fallback: identical Bitcoin mapping, widget routed back to Bob.
    Transaction F;
    F.Inputs = T.Inputs;
    Output FCarol = ToCarol;
    FCarol.Type = pOne();
    Output FBob = ToBob;
    FBob.Type = Widget;
    F.Outputs.push_back(FCarol);
    F.Outputs.push_back(FBob);
    F.Proof = mLam(
        "x", pTensor(F.Grant, pTensor(F.inputTensor(), F.receiptTensor())),
        mTensorLet("c", "ar", mVar("x"),
                   mTensorLet("a", "r", mVar("ar"),
                              mOneLet(mVar("c"),
                                      mTensorPair(mOne(), mVar("a"))))));
    T.Fallbacks.push_back(F);
    return T;
  }

  tc::Node Node;
  Actor Alice, Bob, Carol;
  uint32_t Clock = 0;
  std::set<std::string> UsedInputs;
};

TEST_F(FallbackTest, PrimaryUsedWhenConditionHolds) {
  auto [WidgetTxid, Widget] = grantWidget();
  Transaction T =
      buildConditional(WidgetTxid, Widget, /*Deadline=*/Clock + 6000);
  auto P = buildPair(T, Bob.Wallet, Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  std::string Txid = confirmPair(Node, *P, Clock);
  // Carol holds the widget.
  EXPECT_TRUE(
      logic::propEqual(Node.state().outputType(Txid, 0), Widget));
  EXPECT_TRUE(
      logic::propEqual(Node.state().outputType(Txid, 1), logic::pOne()));
}

TEST_F(FallbackTest, FallbackUsedWhenConditionFails) {
  auto [WidgetTxid, Widget] = grantWidget();
  // Deadline already passed relative to the next block's timestamp.
  Transaction T = buildConditional(WidgetTxid, Widget, /*Deadline=*/1);
  auto P = buildPair(T, Bob.Wallet, Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  // The node accepts: the primary is invalid but the fallback is valid.
  // One pass over the alternatives checks each exactly once.
  obs::Counter &Checks = obs::counter("checker.checks");
  uint64_t ChecksBefore = Checks.value();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  EXPECT_EQ(Checks.value() - ChecksBefore, 2u);
  std::string Txid = txidHex(P->Btc);
  mine(Node, crypto::KeyId{}, 1, Clock);
  // Bob recovered the widget; Carol's slot is trivial.
  EXPECT_TRUE(
      logic::propEqual(Node.state().outputType(Txid, 0), logic::pOne()));
  EXPECT_TRUE(
      logic::propEqual(Node.state().outputType(Txid, 1), Widget));
}

TEST_F(FallbackTest, SpoiledWhenNothingIsValid) {
  auto [WidgetTxid, Widget] = grantWidget();
  Transaction T = buildConditional(WidgetTxid, Widget, /*Deadline=*/1);
  // Sabotage the fallback too.
  T.Fallbacks[0].Proof = logic::mOne();
  auto P = buildPair(T, Bob.Wallet, Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();

  // The node's pre-check refuses it (no valid alternative) — a
  // well-behaved node protects the user from spoiling inputs.
  EXPECT_FALSE(Node.submitPair(*P).hasValue());

  // A hostile miner can still confirm the Bitcoin transaction; the
  // Typecoin state then records spoiled inputs (Section 5: "an invalid
  // transaction spoils its inputs").
  ASSERT_TRUE(Bob.Wallet.signTransaction(P->Btc, Node.chain()).hasValue());
  bitcoin::Mempool Loose{bitcoin::MempoolPolicy{0, false}};
  ASSERT_TRUE(Loose.acceptTransaction(P->Btc, Node.chain()).hasValue());
  Clock += 600;
  auto Blk = bitcoin::mineAndSubmit(Node.chain(), Loose, crypto::KeyId{},
                                    Clock);
  ASSERT_TRUE(Blk.hasValue()) << Blk.error().message();
  std::string Txid = txidHex(P->Btc);
  tc::ChainOracle Oracle(Node.chain(), Clock);
  auto Applied = Node.state().applyTransaction(T, Txid, Oracle);
  ASSERT_TRUE(Applied.hasValue()) << Applied.error().message();
  EXPECT_EQ(*Applied, T.Fallbacks.size() + 1); // Spoiled marker.
  // The widget is destroyed: outputs carry only the trivial type.
  EXPECT_TRUE(
      logic::propEqual(Node.state().outputType(Txid, 0), logic::pOne()));
  EXPECT_TRUE(
      logic::propEqual(Node.state().outputType(Txid, 1), logic::pOne()));
  EXPECT_TRUE(Node.state().isConsumed(WidgetTxid, 0));
}

TEST_F(FallbackTest, FirstValidFallbackWins) {
  // Paper: "the first valid fallback transaction is used instead."
  auto [WidgetTxid, Widget] = grantWidget();
  Transaction T = buildConditional(WidgetTxid, Widget, /*Deadline=*/1);
  // Prepend an *invalid* fallback (nonsense proof) before the good one;
  // selection must skip it and land on index 2.
  Transaction BadFallback = T.Fallbacks[0];
  BadFallback.Proof = logic::mOne();
  T.Fallbacks.insert(T.Fallbacks.begin(), BadFallback);

  auto P = buildPair(T, Bob.Wallet, Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  std::string Txid = txidHex(P->Btc);
  mine(Node, crypto::KeyId{}, 1, Clock);

  tc::ChainOracle Oracle(Node.chain(), Clock);
  // (Already applied by the node; selection index is observable through
  // the registered output types: the good fallback routes the widget to
  // output 1.)
  EXPECT_TRUE(
      logic::propEqual(Node.state().outputType(Txid, 1), Widget));
  EXPECT_TRUE(
      logic::propEqual(Node.state().outputType(Txid, 0), logic::pOne()));
  (void)Oracle;
}

} // namespace
