//===- tests/typecoin/tc_transaction_test.cpp - Typecoin transactions -----===//

#include "typecoin/transaction.h"

#include "logic/check.h"
#include "support/rng.h"
#include "typecoin/opentx.h"

#include <gtest/gtest.h>

#include <algorithm>

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

/// \p Ser with the first occurrence of \p From replaced by \p To.
Bytes splice(const Bytes &Ser, const Bytes &From, const Bytes &To) {
  auto At = std::search(Ser.begin(), Ser.end(), From.begin(), From.end());
  EXPECT_NE(At, Ser.end());
  Bytes Out(Ser.begin(), At);
  Out.insert(Out.end(), To.begin(), To.end());
  Out.insert(Out.end(), At + static_cast<std::ptrdiff_t>(From.size()),
             Ser.end());
  return Out;
}

TEST(TcTransaction, DeserializeRejectsUncompressedOwner) {
  // The owner field is the 33-byte compressed key. The 65-byte encoding
  // of the same point would decode, re-serialize as 33 bytes, and so
  // name one embedded hash by two byte strings.
  crypto::PrivateKey Key = keyFromSeed(1);
  Bytes Short{0x21};
  Bytes Compressed = Key.publicKey().serialize();
  Short.insert(Short.end(), Compressed.begin(), Compressed.end());
  Bytes Long{0x41};
  Bytes Uncompressed = crypto::Secp256k1::instance().serialize(
      Key.publicKey().point(), /*Compressed=*/false);
  Long.insert(Long.end(), Uncompressed.begin(), Uncompressed.end());

  Bytes Ser = sampleTx().serialize();
  ASSERT_TRUE(Transaction::deserialize(Ser).hasValue());
  EXPECT_FALSE(Transaction::deserialize(splice(Ser, Short, Long)).hasValue());
}

TEST(TcTransaction, DeserializeRejectsReceiptFlagAboveOne) {
  // A receipt's body flag is 0 or 1; a 2 would decode and re-serialize
  // as 1.
  Transaction T = sampleTx();
  T.Grant = logic::pReceipt(localAtom("cred"), 7, T.Outputs[0].ownerTerm());
  Writer Basis;
  T.LocalBasis.serialize(Basis);
  size_t FlagAt = Basis.size() + 1; // After the grant's receipt tag.
  Bytes Ser = T.serialize();
  ASSERT_EQ(Ser[FlagAt], 1);
  ASSERT_TRUE(Transaction::deserialize(Ser).hasValue());
  Ser[FlagAt] = 2;
  EXPECT_FALSE(Transaction::deserialize(Ser).hasValue());
}

/// Every part of the encoding the mutation sweep perturbs: a local basis
/// (an LF family and a proposition constant), two inputs, two outputs
/// under different keys, a proof whose binder is typed with receipts
/// (one with a body, one without), and a fallback.
Transaction sweepFixture() {
  Transaction T = sampleTx();
  EXPECT_TRUE(T.LocalBasis
                  .declareProp(lf::ConstName::local("ticket"),
                               localAtom("cred"))
                  .hasValue());
  Input In2;
  In2.SourceTxid = std::string(64, 'b');
  In2.SourceIndex = 2;
  In2.Type = localAtom("cred");
  In2.Amount = 700;
  T.Inputs.push_back(In2);
  Output Out2;
  Out2.Type = logic::pOne();
  Out2.Amount = 600;
  Out2.Owner = keyFromSeed(7).publicKey();
  T.Outputs.push_back(Out2);
  lf::TermPtr K = T.Outputs[0].ownerTerm();
  logic::PropPtr Receipts =
      logic::pTensor(logic::pReceipt(localAtom("cred"), 9000, K),
                     logic::pReceipt(nullptr, 600, K));
  T.Proof = logic::mLam("r", Receipts, logic::mVar("r"));
  Transaction F = sampleTx();
  F.Outputs[0].Owner = keyFromSeed(2).publicKey();
  T.Fallbacks.push_back(F);
  return T;
}

TEST(TcTransaction, SingleByteMutantsDecodeCanonically) {
  // A decoded transaction's hash is sha256d of the bytes it came from
  // only if decoding is injective: every mutant that decodes must
  // re-serialize to exactly its own bytes.
  Bytes Ser = sweepFixture().serialize();
  ASSERT_EQ(Transaction::deserialize(Ser)->serialize(), Ser);
  Rng Rand(1919);
  int Decoded = 0, NonCanonical = 0;
  std::string First;
  for (int I = 0; I < 20000; ++I) {
    Bytes Mutant = Ser;
    size_t At = Rand.nextBelow(Mutant.size());
    uint8_t Flip = static_cast<uint8_t>(1 + Rand.nextBelow(255));
    Mutant[At] ^= Flip;
    auto Back = Transaction::deserialize(Mutant);
    if (!Back)
      continue;
    ++Decoded;
    if (Back->serialize() != Mutant && NonCanonical++ == 0)
      First = "byte " + std::to_string(At) + " xor " + std::to_string(Flip);
  }
  EXPECT_EQ(NonCanonical, 0) << "first: " << First;
  // Amounts, txids, principals and key bytes decode when perturbed, so
  // a good share of the sweep reaches the re-serialization check.
  EXPECT_GT(Decoded, 5000);
}

TEST(OpenTransaction, TemplateDigestIsPinned) {
  // One open input and one open output beside a closed one: the digest
  // erases the holes (an empty owner, an empty source) and covers the
  // rest of the template.
  OpenTransaction Open;
  Open.Template = sampleTx();
  Output Closed;
  Closed.Type = logic::pOne();
  Closed.Amount = 600;
  Closed.Owner = keyFromSeed(7).publicKey();
  Open.Template.Outputs.push_back(Closed);
  Open.OpenInput = 0;
  Open.OpenOutput = 0;
  EXPECT_EQ(toHex(Open.templateDigest()), "5aeba46276b5a7e90bf296fa365b5a8ac8467eecff818f5f14062927200103dc");
  // Filling the holes does not move the digest of the template.
  auto Filled = Open.fill(std::string(64, 'c'), 3, keyFromSeed(8).publicKey());
  ASSERT_TRUE(Filled.hasValue());
  OpenTransaction Refilled = Open;
  Refilled.Template = *Filled;
  EXPECT_EQ(Refilled.templateDigest(), Open.templateDigest());
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
