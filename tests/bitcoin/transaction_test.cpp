//===- tests/bitcoin/transaction_test.cpp - Tx serialization & sighash ----===//

#include "bitcoin/transaction.h"

#include "bitcoin/standard.h"
#include "obs/metrics.h"
#include "support/rng.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::bitcoin;

namespace {

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

Transaction sampleTx() {
  Transaction Tx;
  TxIn In;
  In.Prevout.Tx.Hash[0] = 0xab;
  In.Prevout.Index = 3;
  In.ScriptSig = Script(Bytes{0x01, 0x55});
  Tx.Inputs.push_back(In);
  TxOut Out;
  Out.Value = 50000;
  Out.ScriptPubKey = makeP2PKH(keyFromSeed(1).id());
  Tx.Outputs.push_back(Out);
  TxOut Out2;
  Out2.Value = 2500;
  Out2.ScriptPubKey = makeP2PKH(keyFromSeed(2).id());
  Tx.Outputs.push_back(Out2);
  return Tx;
}

TEST(Transaction, SerializeRoundTrip) {
  Transaction Tx = sampleTx();
  Bytes Ser = Tx.serialize();
  auto Back = Transaction::deserialize(Ser);
  ASSERT_TRUE(Back.hasValue()) << Back.error().message();
  EXPECT_EQ(Back->serialize(), Ser);
  EXPECT_EQ(Back->txid(), Tx.txid());
  EXPECT_EQ(Back->Inputs.size(), 1u);
  EXPECT_EQ(Back->Outputs.size(), 2u);
  EXPECT_EQ(Back->Outputs[0].Value, 50000);
}

TEST(Transaction, DeserializeRejectsTrailingBytes) {
  Bytes Ser = sampleTx().serialize();
  Ser.push_back(0x00);
  EXPECT_FALSE(Transaction::deserialize(Ser).hasValue());
}

TEST(Transaction, DeserializeRejectsTruncation) {
  Bytes Ser = sampleTx().serialize();
  Ser.resize(Ser.size() - 3);
  EXPECT_FALSE(Transaction::deserialize(Ser).hasValue());
}

TEST(Transaction, TxIdChangesWithContent) {
  Transaction Tx = sampleTx();
  TxId Before = Tx.txid();
  // In-place mutation after txid() requires dropping the memoized id.
  Tx.Outputs[0].Value += 1;
  Tx.invalidateCaches();
  EXPECT_NE(Tx.txid(), Before);
}

TEST(Transaction, TxIdMemoSurvivesRepeatedCalls) {
  Transaction Tx = sampleTx();
  EXPECT_EQ(Tx.txid(), Tx.txid());
  // Copies and assignments start with cold caches bound to their own
  // contents.
  Transaction Copy = Tx;
  Copy.Outputs[0].Value += 1;
  EXPECT_NE(Copy.txid(), Tx.txid());
  Copy = Tx;
  EXPECT_EQ(Copy.txid(), Tx.txid());
}

TEST(Transaction, DigestWorkCountersCountComputations) {
  // bitcoin.txid.computed and bitcoin.sighash.computed count the hashes
  // that fill a memo, not the calls: the oracle for how often a node
  // recomputes a digest it already had.
  obs::Counter &Txids = obs::counter("bitcoin.txid.computed");
  obs::Counter &SigHashes = obs::counter("bitcoin.sighash.computed");
  Transaction Tx = sampleTx();
  Tx.Inputs.push_back(Tx.Inputs[0]);
  Tx.Inputs[1].Prevout.Index = 4;

  uint64_t T0 = Txids.value();
  for (int I = 0; I < 3; ++I)
    Tx.txid();
  EXPECT_EQ(Txids.value() - T0, 1u);
  // A copy starts with a cold memo.
  Transaction Copy = Tx;
  Copy.txid();
  Copy.txid();
  EXPECT_EQ(Txids.value() - T0, 2u);

  Script Code = makeP2PKH(keyFromSeed(1).id());
  uint64_t S0 = SigHashes.value();
  ASSERT_TRUE(signatureHash(Tx, 0, Code, SIGHASH_ALL).hasValue());
  ASSERT_TRUE(signatureHash(Tx, 0, Code, SIGHASH_ALL).hasValue());
  EXPECT_EQ(SigHashes.value() - S0, 1u);
  ASSERT_TRUE(signatureHash(Tx, 1, Code, SIGHASH_ALL).hasValue());
  EXPECT_EQ(SigHashes.value() - S0, 2u);
  // Computing sighashes hashed no txid.
  EXPECT_EQ(Txids.value() - T0, 2u);
}

TEST(Transaction, CoinbaseDetection) {
  Transaction Tx;
  Tx.Inputs.push_back(TxIn{OutPoint::null(), Script(), 0xffffffff});
  Tx.Outputs.push_back(TxOut{100, Script()});
  EXPECT_TRUE(Tx.isCoinbase());
  EXPECT_FALSE(sampleTx().isCoinbase());
}

TEST(SigHash, DiffersAcrossInputs) {
  Transaction Tx = sampleTx();
  Tx.Inputs.push_back(Tx.Inputs[0]);
  Tx.Inputs[1].Prevout.Index = 4;
  Script Code = makeP2PKH(keyFromSeed(1).id());
  auto H0 = signatureHash(Tx, 0, Code, SIGHASH_ALL);
  auto H1 = signatureHash(Tx, 1, Code, SIGHASH_ALL);
  ASSERT_TRUE(H0.hasValue());
  ASSERT_TRUE(H1.hasValue());
  EXPECT_NE(*H0, *H1);
}

TEST(SigHash, CommitsToOutputsUnderAll) {
  Transaction Tx = sampleTx();
  Script Code = makeP2PKH(keyFromSeed(1).id());
  auto H1 = signatureHash(Tx, 0, Code, SIGHASH_ALL);
  Tx.Outputs[0].Value += 1;
  Tx.invalidateCaches();
  auto H2 = signatureHash(Tx, 0, Code, SIGHASH_ALL);
  ASSERT_TRUE(H1.hasValue() && H2.hasValue());
  EXPECT_NE(*H1, *H2);
}

TEST(SigHash, NoneIgnoresOutputs) {
  Transaction Tx = sampleTx();
  Script Code = makeP2PKH(keyFromSeed(1).id());
  auto H1 = signatureHash(Tx, 0, Code, SIGHASH_NONE);
  Tx.Outputs[0].Value += 999;
  Tx.Outputs.pop_back();
  auto H2 = signatureHash(Tx, 0, Code, SIGHASH_NONE);
  ASSERT_TRUE(H1.hasValue() && H2.hasValue());
  EXPECT_EQ(*H1, *H2);
}

TEST(SigHash, SingleCoversOnlyMatchingOutput) {
  Transaction Tx = sampleTx();
  Script Code = makeP2PKH(keyFromSeed(1).id());
  auto H1 = signatureHash(Tx, 0, Code, SIGHASH_SINGLE);
  // Changing output 1 (not matching input 0) leaves the hash unchanged.
  Tx.Outputs[1].Value += 7;
  Tx.invalidateCaches();
  auto H2 = signatureHash(Tx, 0, Code, SIGHASH_SINGLE);
  ASSERT_TRUE(H1.hasValue() && H2.hasValue());
  EXPECT_EQ(*H1, *H2);
  // Changing output 0 does change it.
  Tx.Outputs[0].Value += 7;
  Tx.invalidateCaches();
  auto H3 = signatureHash(Tx, 0, Code, SIGHASH_SINGLE);
  ASSERT_TRUE(H3.hasValue());
  EXPECT_NE(*H1, *H3);
}

TEST(SigHash, SingleWithoutMatchingOutputIsError) {
  Transaction Tx = sampleTx();
  Tx.Inputs.push_back(Tx.Inputs[0]);
  Tx.Inputs.push_back(Tx.Inputs[0]);
  Tx.Inputs[1].Prevout.Index = 9;
  Tx.Inputs[2].Prevout.Index = 10;
  Script Code;
  EXPECT_FALSE(signatureHash(Tx, 2, Code, SIGHASH_SINGLE).hasValue());
}

TEST(SigHash, AnyoneCanPayIgnoresOtherInputs) {
  Transaction Tx = sampleTx();
  Script Code = makeP2PKH(keyFromSeed(1).id());
  auto H1 =
      signatureHash(Tx, 0, Code, SIGHASH_ALL | SIGHASH_ANYONECANPAY);
  // Adding another input does not disturb an ANYONECANPAY signature.
  Tx.Inputs.push_back(TxIn{OutPoint{TxId{}, 77}, Script(), 0xffffffff});
  auto H2 =
      signatureHash(Tx, 0, Code, SIGHASH_ALL | SIGHASH_ANYONECANPAY);
  ASSERT_TRUE(H1.hasValue() && H2.hasValue());
  EXPECT_EQ(*H1, *H2);
  // ...but without ANYONECANPAY it does.
  auto H3 = signatureHash(Tx, 0, Code, SIGHASH_ALL);
  Transaction Tx2 = sampleTx();
  auto H4 = signatureHash(Tx2, 0, Code, SIGHASH_ALL);
  ASSERT_TRUE(H3.hasValue() && H4.hasValue());
  EXPECT_NE(*H3, *H4);
}

TEST(SigHash, OutOfRangeInput) {
  Transaction Tx = sampleTx();
  EXPECT_FALSE(signatureHash(Tx, 5, Script(), SIGHASH_ALL).hasValue());
}

TEST(SignatureChecker, EndToEndP2PKH) {
  crypto::PrivateKey Key = keyFromSeed(42);
  Script Lock = makeP2PKH(Key.id());

  Transaction Tx = sampleTx();
  auto Sig = signInput(Tx, 0, Lock, {Key});
  ASSERT_TRUE(Sig.hasValue()) << Sig.error().message();
  Tx.Inputs[0].ScriptSig = *Sig;

  TransactionSignatureChecker Checker(Tx, 0, Lock);
  EXPECT_TRUE(verifyScript(Tx.Inputs[0].ScriptSig, Lock, Checker).hasValue());

  // A different key fails.
  crypto::PrivateKey Wrong = keyFromSeed(43);
  Transaction Tx2 = sampleTx();
  auto Sig2 = signInput(Tx2, 0, Lock, {Wrong});
  EXPECT_FALSE(Sig2.hasValue());
}

TEST(SignatureChecker, TamperedTxFailsVerification) {
  crypto::PrivateKey Key = keyFromSeed(44);
  Script Lock = makeP2PKH(Key.id());
  Transaction Tx = sampleTx();
  auto Sig = signInput(Tx, 0, Lock, {Key});
  ASSERT_TRUE(Sig.hasValue());
  Tx.Inputs[0].ScriptSig = *Sig;
  // Tamper with an output after signing.
  Tx.Outputs[0].Value -= 1;
  Tx.invalidateCaches();
  TransactionSignatureChecker Checker(Tx, 0, Lock);
  EXPECT_FALSE(
      verifyScript(Tx.Inputs[0].ScriptSig, Lock, Checker).hasValue());
}

} // namespace
