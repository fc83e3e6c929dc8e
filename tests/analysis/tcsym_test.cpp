//===- tests/analysis/tcsym_test.cpp - Symbolic script verifier tests -----===//
//
// Three layers:
//   * golden verdicts for every standard script template in
//     bitcoin/standard.h plus the carrier shapes the embedding produces,
//   * an adversarial corpus (provably unspendable scripts, unbalanced
//     conditionals, each malleability class, interpreter-limit
//     breaches, path-bound saturation),
//   * a property sweep pinning the symbolic executor to the concrete
//     interpreter on closed-world scripts with concrete stacks (where
//     symbolic execution must degenerate to concrete execution).
//
//===----------------------------------------------------------------------===//

#include "analysis/tcsym.h"

#include "bitcoin/standard.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "support/rng.h"
#include "typecoin/embed.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::analysis;
using bitcoin::Script;

namespace {

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

uint64_t counterNow(const std::string &Name) {
  return obs::counter(Name).value();
}

// --- Golden verdicts for the standard templates ---------------------------

TEST(TcSym, P2PKHIsSpendableWithSigSlackOnly) {
  uint64_t Spendable = counterNow("sym.verdict.spendable");
  ScriptVerdict V = analyzeScript(bitcoin::makeP2PKH(keyFromSeed(1).id()));
  EXPECT_EQ(counterNow("sym.verdict.spendable"), Spendable + 1);
  EXPECT_TRUE(V.WellFormed);
  EXPECT_TRUE(V.StackSafe);
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  EXPECT_EQ(V.InputsNeeded, 2u); // <sig> <pubkey>
  // The signature's DER slack is inherent; there is no never-examined
  // element and no alternative signature set.
  EXPECT_EQ(V.Malleability, unsigned(MalleableDER));
  EXPECT_TRUE(V.Report.has("sym-malleable-der"));
  EXPECT_FALSE(V.Report.hasErrors());
}

TEST(TcSym, P2PKIsSpendableWithOneInput) {
  ScriptVerdict V =
      analyzeScript(bitcoin::makeP2PK(keyFromSeed(2).publicKey()));
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  EXPECT_EQ(V.InputsNeeded, 1u); // <sig>
  EXPECT_EQ(V.Malleability, unsigned(MalleableDER));
}

TEST(TcSym, MultiSig2of3HasAllThreeClasses) {
  std::vector<Bytes> Keys;
  for (uint64_t I = 0; I < 3; ++I)
    Keys.push_back(keyFromSeed(10 + I).publicKey().serialize());
  ScriptVerdict V = analyzeScript(bitcoin::makeMultiSig(2, Keys));
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  // Two signatures plus the consensus dummy element.
  EXPECT_EQ(V.InputsNeeded, 3u);
  EXPECT_EQ(V.Malleability,
            unsigned(MalleableDER | MalleableExtraStack |
                     MalleableSigSubst));
}

TEST(TcSym, MultiSig2of2HasNoSigSubstitution) {
  std::vector<Bytes> Keys;
  for (uint64_t I = 0; I < 2; ++I)
    Keys.push_back(keyFromSeed(20 + I).publicKey().serialize());
  ScriptVerdict V = analyzeScript(bitcoin::makeMultiSig(2, Keys));
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  // Both key slots are required: no alternative signature set, but the
  // dummy element slack and DER slack remain.
  EXPECT_EQ(V.Malleability,
            unsigned(MalleableDER | MalleableExtraStack));
}

TEST(TcSym, VerdictJsonNamesMalleabilityClasses) {
  std::vector<Bytes> Keys = {keyFromSeed(2).publicKey().serialize(),
                             keyFromSeed(3).publicKey().serialize()};
  ScriptVerdict V = analyzeScript(bitcoin::makeMultiSig(1, Keys));
  std::string Doc = verdictJson(V).dump();
  EXPECT_NE(Doc.find("\"spendable\""), std::string::npos);
  EXPECT_NE(Doc.find("\"der\""), std::string::npos);
  EXPECT_NE(Doc.find("\"extra-stack\""), std::string::npos);
  EXPECT_NE(Doc.find("\"sig-subst\""), std::string::npos);
}

TEST(TcSym, NullDataIsProvablyUnspendable) {
  ScriptVerdict V = analyzeScript(bitcoin::makeNullData({1, 2, 3}));
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
  EXPECT_TRUE(V.Report.has("sym-unspendable"));
}

// --- Carrier transactions (the embedding's own scripts) -------------------

tc::Transaction carrierTc() {
  tc::Transaction T;
  tc::Input In;
  In.SourceTxid = std::string(64, 'a');
  In.SourceIndex = 0;
  In.Type = logic::pOne();
  In.Amount = 100000;
  T.Inputs.push_back(std::move(In));
  tc::Output Out;
  Out.Type = logic::pOne();
  Out.Amount = 100000;
  Out.Owner = keyFromSeed(3).publicKey();
  T.Outputs.push_back(std::move(Out));
  T.Proof = logic::mLam("x", logic::pOne(), logic::mVar("x"));
  return T;
}

TEST(TcSym, Multisig1of2CarrierIsSpendableAndMalleable) {
  auto Btc = tc::embedTransaction(carrierTc(), tc::EmbedScheme::Multisig1of2);
  ASSERT_TRUE(Btc.hasValue()) << Btc.error().message();
  std::vector<ScriptVerdict> Verdicts;
  LintReport R = analyzeCarrierScripts(*Btc, SymOptions(), &Verdicts);
  ASSERT_FALSE(Verdicts.empty());
  // The paper's embedding output: spendable (so GC-able), but carrying
  // every malleability class — which is why registration keys on the
  // Typecoin payload hash, not the carrier txid.
  EXPECT_EQ(Verdicts[0].Spend, Spendability::Spendable);
  EXPECT_EQ(Verdicts[0].Malleability,
            unsigned(MalleableDER | MalleableExtraStack |
                     MalleableSigSubst));
  EXPECT_FALSE(R.hasErrors());
}

TEST(TcSym, NullDataCarrierIsNotedNotFlagged) {
  auto Btc = tc::embedTransaction(carrierTc(), tc::EmbedScheme::NullData);
  ASSERT_TRUE(Btc.hasValue()) << Btc.error().message();
  LintReport R = analyzeCarrierScripts(*Btc);
  EXPECT_TRUE(R.has("sym-nulldata"));
  EXPECT_FALSE(R.hasErrors());
}

TEST(TcSym, BogusOutputCarrierPassesAsSpendableShape) {
  // The rejected strategy: the metadata rides as a fake P2PK "key".
  // tcsym cannot know the key is fake (spendability of a P2PK is
  // witness-optimistic), so the deadweight argument against this scheme
  // rests on the key being unusable, not on script shape.
  auto Btc = tc::embedTransaction(carrierTc(), tc::EmbedScheme::BogusOutput);
  ASSERT_TRUE(Btc.hasValue()) << Btc.error().message();
  LintReport R = analyzeCarrierScripts(*Btc);
  EXPECT_FALSE(R.hasErrors());
}

// --- Adversarial corpus ---------------------------------------------------

TEST(TcSym, ContradictionIsUnspendable) {
  Script S;
  S.pushInt(1).pushInt(2).op(bitcoin::OP_EQUALVERIFY).pushInt(1);
  uint64_t Unspendable = counterNow("sym.verdict.unspendable");
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(counterNow("sym.verdict.unspendable"), Unspendable + 1);
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
  EXPECT_TRUE(V.StackSafe);
  EXPECT_TRUE(V.Report.has("sym-unspendable"));
}

TEST(TcSym, UnbalancedIfIsUnspendable) {
  Script S;
  S.op(bitcoin::OP_IF).pushInt(1);
  ScriptVerdict V = analyzeScript(S);
  // Both arms of the symbolic condition die in "unbalanced conditional".
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
  EXPECT_EQ(V.PathsExplored, 2u);
}

TEST(TcSym, ElseWithoutIfIsUnspendable) {
  Script S;
  S.op(bitcoin::OP_ELSE).pushInt(1);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
}

TEST(TcSym, TruncatedPushIsMalformed) {
  // 0x4c (PUSHDATA1) with no length byte.
  Script S(Bytes{0x4c});
  ScriptVerdict V = analyzeScript(S);
  EXPECT_FALSE(V.WellFormed);
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
  EXPECT_TRUE(V.Report.has("sym-malformed"));
}

TEST(TcSym, BothBranchesSatisfiableIsSigSubstitution) {
  Script S;
  S.op(bitcoin::OP_IF).pushInt(1).op(bitcoin::OP_ELSE).pushInt(1).op(
      bitcoin::OP_ENDIF);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  EXPECT_EQ(V.PathsExplored, 2u);
  // Two satisfiable paths with different branch trails: a third party
  // can swap the witness between arms.
  EXPECT_TRUE(V.Malleability & MalleableSigSubst);
}

TEST(TcSym, OneLiveBranchIsNotSigSubstitution) {
  Script S;
  S.op(bitcoin::OP_IF).pushInt(1).op(bitcoin::OP_ELSE).op(
      bitcoin::OP_RETURN).op(bitcoin::OP_ENDIF);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  EXPECT_FALSE(V.Malleability & MalleableSigSubst);
}

TEST(TcSym, DroppedWitnessElementIsExtraStackSlack) {
  Script S;
  S.op(bitcoin::OP_DROP).pushInt(1);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  EXPECT_EQ(V.InputsNeeded, 1u);
  // The dropped element is never examined: any bytes satisfy.
  EXPECT_TRUE(V.Malleability & MalleableExtraStack);
  EXPECT_TRUE(V.Report.has("sym-malleable-extrastack"));
}

TEST(TcSym, AnyoneCanSpendIsWarned) {
  Script S;
  S.pushInt(1);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  EXPECT_EQ(V.InputsNeeded, 0u);
  EXPECT_TRUE(V.Report.has("sym-anyone-can-spend"));
}

TEST(TcSym, HashLockConstrainsThePreimage) {
  Bytes Preimage{1, 2, 3};
  auto D = crypto::sha256(Preimage);
  Script S;
  S.op(bitcoin::OP_SHA256).push(Bytes(D.begin(), D.end())).op(
      bitcoin::OP_EQUAL);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  EXPECT_EQ(V.InputsNeeded, 1u);
  // The preimage is examined (hash compared), so there is no
  // extra-stack slack and no signature anywhere.
  EXPECT_EQ(V.Malleability, unsigned(MalleableNone));
}

TEST(TcSym, OpCountBreachIsStackUnsafe) {
  Script S;
  for (int I = 0; I < 205; ++I)
    S.op(bitcoin::OP_NOP);
  S.pushInt(1);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_FALSE(V.StackSafe);
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
  EXPECT_TRUE(V.Report.has("sym-stack-unsafe"));
}

TEST(TcSym, OversizedPushIsStackUnsafe) {
  Script S;
  S.push(Bytes(bitcoin::MaxScriptPushSize + 1, 0x7f));
  ScriptVerdict V = analyzeScript(S);
  EXPECT_FALSE(V.StackSafe);
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
}

TEST(TcSym, ScriptSizeBreachIsMalformed) {
  Script S;
  while (S.size() <= bitcoin::MaxScriptSize)
    S.push(Bytes(500, 0x01));
  ScriptVerdict V = analyzeScript(S);
  EXPECT_FALSE(V.WellFormed);
  EXPECT_FALSE(V.StackSafe);
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
}

TEST(TcSym, PathBoundYieldsUnknown) {
  Script S;
  S.op(bitcoin::OP_IF).pushInt(1).op(bitcoin::OP_ENDIF);
  SymOptions Opts;
  Opts.MaxPaths = 1; // The very first fork exceeds the bound.
  ScriptVerdict V = analyzeScript(S, Opts);
  EXPECT_EQ(V.Spend, Spendability::Unknown);
  EXPECT_TRUE(V.PathLimitHit);
  EXPECT_TRUE(V.Report.has("sym-undecided"));
}

TEST(TcSym, DeepNestingStillConverges) {
  // 6 sequential symbolic IFs: 64 paths, inside the default bound.
  Script S;
  for (int I = 0; I < 6; ++I)
    S.op(bitcoin::OP_IF).op(bitcoin::OP_ENDIF);
  S.pushInt(1);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(V.Spend, Spendability::Spendable);
  EXPECT_EQ(V.PathsExplored, 64u);
  EXPECT_FALSE(V.PathLimitHit);
}

TEST(TcSym, BadMultisigKeyCountIsUnspendable) {
  Script S;
  S.pushInt(1).pushInt(21).op(bitcoin::OP_CHECKMULTISIG);
  ScriptVerdict V = analyzeScript(S);
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
}

TEST(TcSym, ClosedWorldUnderflowFails) {
  Script S;
  S.op(bitcoin::OP_DUP);
  SymOptions Opts;
  Opts.ClosedWorld = true;
  ScriptVerdict V = analyzeScript(S, Opts);
  EXPECT_EQ(V.Spend, Spendability::Unspendable);
  // The same script in the open world draws a witness element.
  EXPECT_EQ(analyzeScript(S).Spend, Spendability::Spendable);
}

// --- Property sweep: symbolic vs concrete on closed-world scripts ---------
//
// With a concrete initial stack and no signature operations, symbolic
// execution must follow exactly one path whose success and final stack
// agree with the concrete interpreter element-for-element.

void appendRandomElement(Script &S, Rng &R) {
  using namespace typecoin::bitcoin;
  switch (R.nextBelow(28)) {
  case 0:
  case 1: { // data push, 0-5 bytes
    Bytes B(R.nextBelow(6));
    for (auto &C : B)
      C = static_cast<uint8_t>(R.nextBelow(256));
    S.push(B);
    break;
  }
  case 2:
    S.pushInt(static_cast<int64_t>(R.nextBelow(33)) - 16);
    break;
  case 3:
    S.op(OP_NOP);
    break;
  case 4:
    S.op(OP_VERIFY);
    break;
  case 5:
    S.op(R.nextBool(0.5) ? OP_TOALTSTACK : OP_FROMALTSTACK);
    break;
  case 6:
    S.op(R.nextBool(0.5) ? OP_2DROP : OP_2DUP);
    break;
  case 7:
    S.op(R.nextBool(0.5) ? OP_3DUP : OP_IFDUP);
    break;
  case 8:
    S.op(OP_DEPTH);
    break;
  case 9:
    S.op(R.nextBool(0.5) ? OP_DROP : OP_DUP);
    break;
  case 10:
    S.op(R.nextBool(0.5) ? OP_NIP : OP_OVER);
    break;
  case 11:
    S.op(R.nextBool(0.5) ? OP_PICK : OP_ROLL);
    break;
  case 12:
    S.op(R.nextBool(0.5) ? OP_ROT : OP_SWAP);
    break;
  case 13:
    S.op(R.nextBool(0.5) ? OP_TUCK : OP_SIZE);
    break;
  case 14:
    S.op(R.nextBool(0.5) ? OP_EQUAL : OP_EQUALVERIFY);
    break;
  case 15:
  case 16: {
    static const Opcode Unary[] = {OP_1ADD, OP_1SUB,       OP_NEGATE,
                                   OP_ABS,  OP_NOT,        OP_0NOTEQUAL};
    S.op(Unary[R.nextBelow(6)]);
    break;
  }
  case 17:
  case 18:
  case 19: {
    static const Opcode Binary[] = {
        OP_ADD,      OP_SUB,        OP_BOOLAND,
        OP_BOOLOR,   OP_NUMEQUAL,   OP_NUMEQUALVERIFY,
        OP_NUMNOTEQUAL, OP_LESSTHAN, OP_GREATERTHAN,
        OP_LESSTHANOREQUAL, OP_GREATERTHANOREQUAL, OP_MIN,
        OP_MAX};
    S.op(Binary[R.nextBelow(13)]);
    break;
  }
  case 20:
    S.op(OP_WITHIN);
    break;
  case 21: {
    static const Opcode Hash[] = {OP_RIPEMD160, OP_SHA256, OP_HASH160,
                                  OP_HASH256};
    S.op(Hash[R.nextBelow(4)]);
    break;
  }
  case 22:
  case 23:
    S.op(R.nextBool(0.5) ? OP_IF : OP_NOTIF);
    break;
  case 24:
    S.op(OP_ELSE);
    break;
  case 25:
  case 26:
    S.op(OP_ENDIF);
    break;
  default:
    if (R.nextBool(0.1))
      S.op(OP_RETURN);
    else
      S.op(OP_NOP);
    break;
  }
}

TEST(TcSymProperty, AgreesWithConcreteOnClosedWorldScripts) {
  Rng R(0xc0de5eed);
  size_t Compared = 0;
  for (int Iter = 0; Iter < 3000; ++Iter) {
    Script S;
    size_t Len = R.nextBelow(24);
    for (size_t I = 0; I < Len; ++I)
      appendRandomElement(S, R);

    std::vector<Bytes> Init;
    size_t Depth = R.nextBelow(5);
    for (size_t I = 0; I < Depth; ++I) {
      Bytes B(R.nextBelow(4));
      for (auto &C : B)
        C = static_cast<uint8_t>(R.nextBelow(256));
      Init.push_back(std::move(B));
    }

    std::vector<Bytes> Stack = Init;
    bitcoin::NullSignatureChecker Checker;
    Status Conc = bitcoin::evalScript(S, Stack, Checker);
    bool ConcOk = Conc.hasValue() && !Stack.empty() &&
                  bitcoin::castToBool(Stack.back());

    SymOptions Opts;
    Opts.ClosedWorld = true;
    Opts.InitialStack = Init;
    ScriptVerdict V = analyzeScript(S, Opts);

    ASSERT_EQ(V.PathsExplored, 1u)
        << "concrete stack must not fork: " << S.toString();
    const PathSummary &P = V.Paths[0];
    EXPECT_EQ(P.Succeeds, ConcOk)
        << "script: " << S.toString() << "\nconcrete: "
        << (Conc ? "ok" : Conc.error().message())
        << "\nsymbolic: " << P.FailReason;
    EXPECT_EQ(V.Spend, ConcOk ? Spendability::Spendable
                              : Spendability::Unspendable);

    if (Conc.hasValue()) {
      // The run completed concretely: final stacks agree exactly.
      ASSERT_EQ(P.FinalStack.size(), Stack.size()) << S.toString();
      for (size_t I = 0; I < Stack.size(); ++I) {
        ASSERT_TRUE(P.FinalStack[I].isConcrete()) << S.toString();
        EXPECT_EQ(P.FinalStack[I].Data, Stack[I]) << S.toString();
      }
      ++Compared;
    }
  }
  // The generator must actually produce completing scripts, not just
  // early failures.
  EXPECT_GT(Compared, 200u);
}

} // namespace
