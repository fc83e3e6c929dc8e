//===- tests/typecoin/tc_transaction_test.cpp - Typecoin transactions -----===//

#include "typecoin/transaction.h"

#include "logic/check.h"
#include "support/rng.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::tc;

namespace {

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

logic::PropPtr localAtom(const char *Name) {
  return logic::pAtom(lf::tConst(lf::ConstName::local(Name)));
}

Transaction sampleTx() {
  Transaction T;
  auto S = T.LocalBasis.declareFamily(lf::ConstName::local("cred"),
                                      lf::kProp());
  EXPECT_TRUE(S.hasValue());
  T.Grant = localAtom("cred");
  Input In;
  In.SourceTxid = std::string(64, 'a');
  In.SourceIndex = 1;
  In.Type = logic::pOne();
  In.Amount = 10000;
  T.Inputs.push_back(In);
  Output Out;
  Out.Type = localAtom("cred");
  Out.Amount = 9000;
  Out.Owner = keyFromSeed(1).publicKey();
  T.Outputs.push_back(Out);
  return T;
}

TEST(TcTransaction, SerializeRoundTrip) {
  Transaction T = sampleTx();
  Bytes Ser = T.serialize();
  auto Back = Transaction::deserialize(Ser);
  ASSERT_TRUE(Back.hasValue()) << Back.error().message();
  EXPECT_EQ(Back->serialize(), Ser);
  EXPECT_EQ(Back->hash(), T.hash());
  EXPECT_EQ(Back->Inputs.size(), 1u);
  EXPECT_EQ(Back->Outputs.size(), 1u);
  EXPECT_TRUE(logic::propEqual(Back->Grant, T.Grant));
}

TEST(TcTransaction, SerializeWithFallbacks) {
  Transaction T = sampleTx();
  Transaction F = sampleTx();
  F.Outputs[0].Owner = keyFromSeed(2).publicKey();
  T.Fallbacks.push_back(F);
  auto Back = Transaction::deserialize(T.serialize());
  ASSERT_TRUE(Back.hasValue()) << Back.error().message();
  ASSERT_EQ(Back->Fallbacks.size(), 1u);
  EXPECT_EQ(Back->Fallbacks[0].hash(), F.hash());
}

/// The serialized empty transaction with \p Levels copies of \p Tag
/// inserted at byte \p At, built byte by byte: a term this deep would
/// overflow the stack of the recursive serializer itself.
Bytes nestedPayload(size_t At, uint8_t Tag, size_t Levels) {
  Bytes Ser = Transaction().serialize();
  Ser.insert(Ser.begin() + static_cast<std::ptrdiff_t>(At), Levels, Tag);
  return Ser;
}

/// The empty transaction's proof `()` is its second-to-last byte (the
/// fallback count follows); its grant `1` is its third (after the empty
/// basis's two counts).
Bytes bangedProof(size_t Bangs) {
  size_t ProofAt = Transaction().serialize().size() - 2;
  return nestedPayload(
      ProofAt, static_cast<uint8_t>(logic::Proof::Tag::BangIntro), Bangs);
}

TEST(TcTransaction, DeserializeBoundsTermNesting) {
  // `()` plus the bangs is the proof's nesting: at the bound it decodes,
  // and the checker walks it.
  auto AtBound = Transaction::deserialize(bangedProof(MaxTermNesting - 1));
  ASSERT_TRUE(AtBound.hasValue()) << AtBound.error().message();
  logic::Basis Sigma;
  logic::TrustingVerifier Trust;
  logic::ProofChecker Checker(Sigma, Trust);
  EXPECT_TRUE(Checker.infer(AtBound->Proof).hasValue());

  // One level more is an error, and so is a hostile 100 000-level proof
  // (which used to overflow the decoder's stack).
  for (size_t Bangs : {size_t{MaxTermNesting}, size_t{100000}}) {
    auto Deep = Transaction::deserialize(bangedProof(Bangs));
    ASSERT_FALSE(Deep.hasValue()) << Bangs;
    EXPECT_NE(Deep.error().message().find("nesting"), std::string::npos)
        << Deep.error().message();
  }

  // Propositions share the bound: a grant `!...!1` nested past it.
  auto DeepGrant = Transaction::deserialize(nestedPayload(
      2, static_cast<uint8_t>(logic::Prop::Tag::Bang), 100000));
  EXPECT_FALSE(DeepGrant.hasValue());
}

TEST(TcTransaction, HashCoversEverything) {
  Transaction T = sampleTx();
  crypto::Digest32 Base = T.hash();

  Transaction T2 = T;
  T2.Outputs[0].Amount += 1;
  EXPECT_NE(T2.hash(), Base);

  Transaction T3 = T;
  T3.Proof = logic::mVar("x");
  EXPECT_NE(T3.hash(), Base);

  Transaction T4 = T;
  T4.Fallbacks.push_back(sampleTx());
  EXPECT_NE(T4.hash(), Base);
}

TEST(TcTransaction, TensorShapes) {
  Transaction T = sampleTx();
  // Single input: A is just the input type.
  EXPECT_TRUE(logic::propEqual(T.inputTensor(), logic::pOne()));
  // Single output: B is the output type.
  EXPECT_TRUE(logic::propEqual(T.outputTensor(), localAtom("cred")));
  // Receipt records type, amount, and principal.
  logic::PropPtr R = T.receiptTensor();
  ASSERT_EQ(R->Kind, logic::Prop::Tag::Receipt);
  EXPECT_EQ(R->Amount, 9000u);

  // Multiple inputs tensor right-nested.
  Transaction T2 = sampleTx();
  Input In2;
  In2.SourceTxid = std::string(64, 'b');
  In2.Type = localAtom("cred");
  T2.Inputs.push_back(In2);
  logic::PropPtr A = T2.inputTensor();
  ASSERT_EQ(A->Kind, logic::Prop::Tag::Tensor);

  // No outputs: B = 1.
  Transaction T3 = sampleTx();
  T3.Outputs.clear();
  EXPECT_TRUE(logic::propEqual(T3.outputTensor(), logic::pOne()));
  EXPECT_TRUE(logic::propEqual(T3.receiptTensor(), logic::pOne()));
}

TEST(TcTransaction, ObligationShape) {
  Transaction T = sampleTx();
  logic::PropPtr Ob = T.obligation(logic::cBefore(100));
  ASSERT_EQ(Ob->Kind, logic::Prop::Tag::Lolli);
  EXPECT_EQ(Ob->R->Kind, logic::Prop::Tag::If);
  // The left side is C (x) (A (x) R).
  ASSERT_EQ(Ob->L->Kind, logic::Prop::Tag::Tensor);
  EXPECT_TRUE(logic::propEqual(Ob->L->L, T.Grant));
}

TEST(Affirmation, AffineSignVerify) {
  crypto::PrivateKey Alice = keyFromSeed(3);
  Transaction T = sampleTx();
  logic::PropPtr A = localAtom("cred");

  logic::ProofPtr Assert = makeAssert(Alice, T, A);
  TxAffirmationVerifier V(T);
  EXPECT_TRUE(
      V.verifyAffine(Alice.id().toHex(), A, Assert->Sig).hasValue());

  // The wrong principal fails.
  crypto::PrivateKey Bob = keyFromSeed(4);
  EXPECT_FALSE(
      V.verifyAffine(Bob.id().toHex(), A, Assert->Sig).hasValue());

  // A different proposition fails.
  EXPECT_FALSE(
      V.verifyAffine(Alice.id().toHex(), logic::pOne(), Assert->Sig)
          .hasValue());
}

TEST(Affirmation, AffineSignatureIsTransactionBound) {
  // The affine assert cannot be replayed in another transaction
  // (Section 2: "Signing the transaction prevents an attacker from
  // replaying the affine resource as part of a different transaction").
  crypto::PrivateKey Alice = keyFromSeed(5);
  Transaction T1 = sampleTx();
  logic::PropPtr A = localAtom("cred");
  logic::ProofPtr Assert = makeAssert(Alice, T1, A);

  Transaction T2 = sampleTx();
  T2.Outputs[0].Amount += 1; // A different transaction.
  TxAffirmationVerifier V2(T2);
  EXPECT_FALSE(
      V2.verifyAffine(Alice.id().toHex(), A, Assert->Sig).hasValue());
}

TEST(Affirmation, PersistentSignatureIsLiftable) {
  // assert! signs only the proposition, so it verifies in any
  // transaction context.
  crypto::PrivateKey Alice = keyFromSeed(6);
  logic::PropPtr A = localAtom("cred");
  logic::ProofPtr Assert = makeAssertBang(Alice, A);

  Transaction T1 = sampleTx();
  Transaction T2 = sampleTx();
  T2.Outputs[0].Amount += 1;
  TxAffirmationVerifier V1(T1), V2(T2);
  EXPECT_TRUE(
      V1.verifyPersistent(Alice.id().toHex(), A, Assert->Sig).hasValue());
  EXPECT_TRUE(
      V2.verifyPersistent(Alice.id().toHex(), A, Assert->Sig).hasValue());
}

TEST(Affirmation, MalformedBlobRejected) {
  Transaction T = sampleTx();
  TxAffirmationVerifier V(T);
  logic::PropPtr A = localAtom("cred");
  EXPECT_FALSE(
      V.verifyAffine(std::string(40, 'a'), A, Bytes{1, 2, 3}).hasValue());
  EXPECT_FALSE(V.verifyAffine(std::string(40, 'a'), A, Bytes{}).hasValue());
}

} // namespace
