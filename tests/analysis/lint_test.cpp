//===- tests/analysis/lint_test.cpp - Unit tests per diagnostic class -----===//
//
// One test per tclint diagnostic class: the affine-usage audit, the
// transaction-structure lints, the script-standardness lints, the
// embedding lints, and the batch server's gate semantics. The node-level
// half of the severity contract lives in submit_contract_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "analysis/lint.h"

#include "bitcoin/standard.h"
#include "support/rng.h"
#include "typecoin/embed.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::analysis;
using namespace typecoin::logic;

namespace {

const std::string TxHex(64, 'a');

crypto::PublicKey ownerKey() {
  Rng Rand(42);
  return crypto::PrivateKey::generate(Rand).publicKey();
}

/// A structurally clean single-input single-output transaction whose
/// proof consumes its hypothesis exactly once.
tc::Transaction cleanTx() {
  tc::Transaction T;
  tc::Input In;
  In.SourceTxid = TxHex;
  In.SourceIndex = 0;
  In.Type = pOne();
  In.Amount = 100000;
  T.Inputs.push_back(std::move(In));
  tc::Output Out;
  Out.Type = pOne();
  Out.Amount = 100000;
  Out.Owner = ownerKey();
  T.Outputs.push_back(std::move(Out));
  T.Proof = mLam("x", pOne(), mVar("x"));
  return T;
}

/// Run the affine audit over \p M with affine context \p Affine.
LintReport audit(const ProofPtr &M,
                 const std::vector<std::string> &Affine = {},
                 const std::vector<std::string> &Persistent = {}) {
  LintReport Out;
  auditAffineUsage(M, Affine, Persistent, Out);
  return Out;
}

// --- Affine-usage audit ---------------------------------------------------

TEST(AffineAudit, ReuseIsFlaggedWithBothSpans) {
  LintReport R = audit(
      mLam("x", pOne(), mTensorPair(mVar("x"), mVar("x"))));
  ASSERT_TRUE(R.has("affine-reuse"));
  const Diagnostic *D = R.firstAtLeast(Severity::Error);
  ASSERT_NE(D, nullptr);
  // The message names the hypothesis; the span locates the second use
  // and the message embeds the first.
  EXPECT_NE(D->Message.find("'x'"), std::string::npos);
  EXPECT_NE(D->Span.find("tensor.r"), std::string::npos);
  EXPECT_NE(D->Message.find("tensor.l"), std::string::npos);
}

TEST(AffineAudit, SingleUseIsClean) {
  EXPECT_TRUE(audit(mLam("x", pOne(), mVar("x"))).empty());
}

TEST(AffineAudit, WithPairSharesTheContext) {
  // Additive pairs: both components may consume the same hypothesis.
  EXPECT_FALSE(audit(mWithPair(mVar("a"), mVar("a")), {"a"}).hasErrors());
}

TEST(AffineAudit, ConsumptionAfterWithPairIsTheUnion) {
  // 'a' consumed inside the with-pair is unavailable afterwards.
  LintReport R = audit(
      mTensorPair(mWithPair(mVar("a"), mOne()), mVar("a")), {"a"});
  EXPECT_TRUE(R.has("affine-reuse"));
}

TEST(AffineAudit, CaseBranchesEachConsume) {
  // Both branches of a case may consume the same outer hypothesis.
  ProofPtr M = mCase(mVar("s"), "x", mVar("b"), "y", mVar("b"));
  EXPECT_FALSE(audit(M, {"s", "b"}).hasErrors());
  // But a use after the case sees the union of branch consumptions.
  LintReport R = audit(mTensorPair(M, mVar("b")), {"s", "b"});
  EXPECT_TRUE(R.has("affine-reuse"));
}

TEST(AffineAudit, BangBlocksAffineHypotheses) {
  LintReport R = audit(mBang(mVar("a")), {"a"});
  EXPECT_TRUE(R.has("affine-banged"));
}

TEST(AffineAudit, PersistentHypothesesContract) {
  EXPECT_FALSE(audit(mTensorPair(mVar("p"), mVar("p")), {}, {"p"})
                   .hasErrors());
}

TEST(AffineAudit, BangLetBindsPersistently) {
  // banglet x = !1 in (x, x): x is persistent, reuse is fine.
  ProofPtr M = mBangLet("x", mBang(mOne()),
                        mTensorPair(mVar("x"), mVar("x")));
  EXPECT_FALSE(audit(M).hasErrors());
}

TEST(AffineAudit, UnboundVariableIsFlagged) {
  LintReport R = audit(mVar("nope"));
  EXPECT_TRUE(R.has("affine-unbound"));
}

TEST(AffineAudit, UnusedHypothesisWarnsButIsLegal) {
  LintReport R = audit(mLam("x", pOne(), mOne()));
  EXPECT_TRUE(R.has("affine-unused"));
  EXPECT_FALSE(R.hasErrors()); // Weakening is legal (Section 4).
}

TEST(AffineAudit, UnusedWarningCanBeSuppressed) {
  LintReport Out;
  AffineAuditOptions Opts;
  Opts.WarnUnused = false;
  auditAffineUsage(mLam("x", pOne(), mOne()), {}, {}, Out, "proof", Opts);
  EXPECT_TRUE(Out.empty());
}

TEST(AffineAudit, DepthGuardFiresOnce) {
  ProofPtr M = mOne();
  for (unsigned I = 0; I < MaxTermNesting + 48; ++I)
    M = mBang(M);
  LintReport Out;
  auditAffineUsage(M, {}, {}, Out, "proof");
  EXPECT_TRUE(Out.has("proof-depth"));
  EXPECT_EQ(Out.count(Severity::Error), 1u);
}

TEST(AffineAudit, NullProofIsMalformed) {
  EXPECT_TRUE(audit(nullptr).has("proof-malformed"));
}

// --- Transaction-structure lint -------------------------------------------

TEST(TxLint, CleanTransactionHasNoErrors) {
  LintReport R = lint(cleanTx());
  EXPECT_FALSE(R.hasErrors()) << R.str();
}

TEST(TxLint, NoInputs) {
  tc::Transaction T = cleanTx();
  T.Inputs.clear();
  EXPECT_TRUE(lint(T).has("input-none"));
}

TEST(TxLint, MalformedTxid) {
  tc::Transaction T = cleanTx();
  T.Inputs[0].SourceTxid = "not-hex";
  EXPECT_TRUE(lint(T).has("input-txid"));
}

TEST(TxLint, DuplicateInput) {
  tc::Transaction T = cleanTx();
  T.Inputs.push_back(T.Inputs[0]);
  EXPECT_TRUE(lint(T).has("input-dup"));
}

TEST(TxLint, NegativeInputAmountOnlyWarns) {
  tc::Transaction T = cleanTx();
  T.Inputs[0].Amount = -1;
  LintReport R = lint(T);
  EXPECT_TRUE(R.has("input-amount"));
  EXPECT_FALSE(R.hasErrors());
}

TEST(TxLint, OutputOutsideMoneyRange) {
  tc::Transaction T = cleanTx();
  T.Outputs[0].Amount = -5;
  EXPECT_TRUE(lint(T).has("output-amount"));
}

TEST(TxLint, DustOutputSeverityFollowsPolicy) {
  tc::Transaction T = cleanTx();
  T.Outputs[0].Amount = bitcoin::DustThreshold - 1;
  EXPECT_TRUE(lint(T).hasErrors());
  LintOptions Lax;
  Lax.RequireStandard = false;
  LintReport R = lint(T, Lax);
  EXPECT_TRUE(R.has("output-dust"));
  EXPECT_FALSE(R.hasErrors());
}

TEST(TxLint, MissingGrantProofAndTypes) {
  tc::Transaction T = cleanTx();
  T.Grant = nullptr;
  T.Proof = nullptr;
  T.Inputs[0].Type = nullptr;
  T.Outputs[0].Type = nullptr;
  LintReport R = lint(T);
  EXPECT_TRUE(R.has("grant-missing"));
  EXPECT_TRUE(R.has("proof-missing"));
  EXPECT_TRUE(R.has("input-type"));
  EXPECT_TRUE(R.has("output-type"));
}

TEST(TxLint, IncompatibleFallbackShape) {
  tc::Transaction T = cleanTx();
  tc::Transaction F = cleanTx();
  F.Inputs[0].SourceIndex = 7; // Different outpoint: not Section 5 legal.
  T.Fallbacks.push_back(F);
  EXPECT_TRUE(lint(T).has("fallback-shape"));
}

TEST(TxLint, FallbackProofsAreAuditedWithSpanPrefix) {
  tc::Transaction T = cleanTx();
  tc::Transaction F = cleanTx();
  F.Proof = mLam("x", pOne(), mTensorPair(mVar("x"), mVar("x")));
  T.Fallbacks.push_back(F);
  LintReport R = lint(T);
  ASSERT_TRUE(R.has("affine-reuse"));
  bool Prefixed = false;
  for (const Diagnostic &D : R.diagnostics())
    if (D.Code == "affine-reuse" &&
        D.Span.rfind("fallback[0]/", 0) == 0)
      Prefixed = true;
  EXPECT_TRUE(Prefixed) << R.str();
}

// --- Script-standardness lint ---------------------------------------------

bitcoin::Transaction carrierWith(std::vector<bitcoin::TxOut> Outs) {
  bitcoin::Transaction Btc;
  bitcoin::OutPoint Point;
  Point.Tx.Hash[0] = 0x42;
  Btc.Inputs.push_back(bitcoin::TxIn{Point, {}});
  Btc.Outputs = std::move(Outs);
  return Btc;
}

TEST(ScriptLint, NonStandardScript) {
  auto Btc = carrierWith(
      {{1000000, bitcoin::Script().op(bitcoin::OP_NOP)}});
  LintReport R = lintScripts(Btc);
  EXPECT_TRUE(R.has("script-nonstandard"));
  EXPECT_TRUE(R.hasErrors());
  // Matches the relay policy exactly: checkStandard rejects it too.
  EXPECT_FALSE(bitcoin::checkStandard(Btc).hasValue());
}

TEST(ScriptLint, StandardnessDowngradesWithoutPolicy) {
  auto Btc = carrierWith(
      {{1000000, bitcoin::Script().op(bitcoin::OP_NOP)}});
  LintOptions Lax;
  Lax.RequireStandard = false;
  EXPECT_FALSE(lintScripts(Btc, Lax).hasErrors());
}

TEST(ScriptLint, TwoNullDataOutputs) {
  auto Btc = carrierWith(
      {{0, bitcoin::makeNullData(bytesOfString("a"))},
       {0, bitcoin::makeNullData(bytesOfString("b"))}});
  EXPECT_TRUE(lintScripts(Btc).has("script-nulldata-count"));
}

TEST(ScriptLint, DustOutput) {
  auto Btc = carrierWith({{100, bitcoin::makeP2PKH(ownerKey().id())}});
  EXPECT_TRUE(lintScripts(Btc).has("output-dust"));
}

TEST(ScriptLint, NegativeValueIsAlwaysAnError) {
  auto Btc = carrierWith({{-1, bitcoin::makeP2PKH(ownerKey().id())}});
  LintOptions Lax;
  Lax.RequireStandard = false;
  EXPECT_TRUE(lintScripts(Btc, Lax).has("output-amount"));
  EXPECT_TRUE(lintScripts(Btc, Lax).hasErrors());
}

TEST(ScriptLint, NonPushScriptSig) {
  auto Btc = carrierWith({{1000000, bitcoin::makeP2PKH(ownerKey().id())}});
  Btc.Inputs[0].ScriptSig = bitcoin::Script().op(bitcoin::OP_DUP);
  EXPECT_TRUE(lintScripts(Btc).has("script-sig-not-push"));
}

TEST(ScriptLint, ReportsEveryViolationNotJustTheFirst) {
  auto Btc = carrierWith(
      {{1000000, bitcoin::Script().op(bitcoin::OP_NOP)},
       {100, bitcoin::makeP2PKH(ownerKey().id())},
       {0, bitcoin::makeNullData(bytesOfString("a"))},
       {0, bitcoin::makeNullData(bytesOfString("b"))}});
  LintReport R = lintScripts(Btc);
  EXPECT_TRUE(R.has("script-nonstandard"));
  EXPECT_TRUE(R.has("output-dust"));
  EXPECT_TRUE(R.has("script-nulldata-count"));
  EXPECT_GE(R.count(Severity::Error), 3u);
}

// --- Embedding lint -------------------------------------------------------

TEST(EmbedLint, CleanEmbeddingRoundTrips) {
  tc::Transaction T = cleanTx();
  auto Btc = tc::embedTransaction(T, tc::EmbedScheme::Multisig1of2);
  ASSERT_TRUE(Btc.hasValue()) << Btc.error().message();
  LintReport R = lintEmbedding(T, *Btc);
  EXPECT_FALSE(R.hasErrors()) << R.str();
}

TEST(EmbedLint, MissingMetadata) {
  tc::Transaction T = cleanTx();
  auto Btc = carrierWith({{1000000, bitcoin::makeP2PKH(ownerKey().id())}});
  EXPECT_TRUE(lintEmbedding(T, Btc).has("embed-missing"));
}

TEST(EmbedLint, HashMismatch) {
  tc::Transaction T = cleanTx();
  auto Btc = tc::embedTransaction(T, tc::EmbedScheme::Multisig1of2);
  ASSERT_TRUE(Btc.hasValue());
  // Any serialization-visible change to T changes its hash.
  T.Outputs[0].Amount += 1;
  EXPECT_TRUE(lintEmbedding(T, *Btc).has("embed-mismatch"));
}

// --- Gate semantics -------------------------------------------------------

TEST(LintGate, AcceptsCleanTransaction) {
  EXPECT_TRUE(lintGate(cleanTx()).hasValue());
}

TEST(LintGate, SharedErrorRejectsDespiteFallback) {
  // A duplicated input condemns every alternative at once (fallbacks
  // must share inputs, Section 5).
  tc::Transaction T = cleanTx();
  T.Inputs.push_back(T.Inputs[0]);
  tc::Transaction F = T;
  T.Fallbacks.push_back(F);
  EXPECT_FALSE(lintGate(T).hasValue());
}

TEST(LintGate, BrokenPrimaryWithCleanFallbackRelays) {
  // Section 5: an invalid primary with a valid fallback still relays.
  tc::Transaction T = cleanTx();
  T.Proof = nullptr;
  T.Fallbacks.push_back(cleanTx());
  EXPECT_TRUE(lintGate(T).hasValue());
}

TEST(LintGate, AllAlternativesBrokenRejects) {
  tc::Transaction T = cleanTx();
  T.Proof = mLam("x", pOne(), mTensorPair(mVar("x"), mVar("x")));
  tc::Transaction F = cleanTx();
  F.Proof = nullptr;
  T.Fallbacks.push_back(F);
  EXPECT_FALSE(lintGate(T).hasValue());
}

// --- Diagnostic plumbing --------------------------------------------------

TEST(Diagnostics, RenderingAndMerge) {
  LintReport A;
  A.error("some-code", "message", "output[1]");
  EXPECT_NE(A.str().find("error [some-code] message (at output[1])"),
            std::string::npos);
  LintReport B;
  B.warn("other", "text", "proof");
  A.merge(B, "fallback[0]");
  ASSERT_EQ(A.size(), 2u);
  EXPECT_EQ(A.diagnostics()[1].Span, "fallback[0]/proof");
  EXPECT_FALSE(A.toStatus().hasValue());
  EXPECT_TRUE(B.toStatus().hasValue()); // Warnings alone succeed.
}

TEST(Diagnostics, FindingsJsonSchema) {
  LintReport R;
  R.note("a-note", "n");
  R.warn("a-warn", "w", "output[0]");
  R.error("an-error", "e");
  std::string Doc = findingsJson(R).dump();
  EXPECT_NE(Doc.find("\"typecoin-findings/1\""), std::string::npos);
  EXPECT_NE(Doc.find("\"a-warn\""), std::string::npos);
  EXPECT_NE(Doc.find("\"output[0]\""), std::string::npos);
  EXPECT_NE(Doc.find("\"error\": 1"), std::string::npos) << Doc;
}

} // namespace
