//===- tests/analysis/audit_test.cpp - Ledger invariant auditor -----------===//
//
// Exercises the TYPECOIN_AUDIT machinery explicitly (the hook is
// installed by hand, so these tests run in every build): the chain
// auditor across block extension, a successful reorg, and the rollback
// path of a failed reorg; the mempool auditor against a deliberately
// stale pool; and the Typecoin consumption auditor.
//
//===----------------------------------------------------------------------===//

#include "typecoin/audit.h"

#include "bitcoin/miner.h"
#include "bitcoin/standard.h"
#include "support/rng.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::bitcoin;

namespace {

ChainParams testParams() {
  ChainParams P;
  P.CoinbaseMaturity = 1;
  return P;
}

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

/// Mine a block on an explicit parent hash (side branches), as in
/// tests/bitcoin/reorg_invalid_test.cpp.
Block mineOn(const Blockchain &Chain, const BlockHash &Parent,
             const crypto::KeyId &Payout, uint32_t Time,
             const std::vector<Transaction> &Txs = {}) {
  Block B;
  B.Header.Prev = Parent;
  B.Header.Time = Time;
  B.Header.Bits = Chain.params().GenesisBits;
  Transaction Coinbase;
  TxIn In;
  In.Prevout = OutPoint::null();
  Script Tag;
  Tag.pushInt(static_cast<int64_t>(Time));
  In.ScriptSig = Tag;
  Coinbase.Inputs.push_back(std::move(In));
  Coinbase.Outputs.push_back(TxOut{Chain.params().Subsidy, makeP2PKH(Payout)});
  B.Txs.push_back(std::move(Coinbase));
  for (const Transaction &Tx : Txs)
    B.Txs.push_back(Tx);
  B.updateMerkleRoot();
  EXPECT_TRUE(mineBlock(B));
  return B;
}

/// Sign and build a spend of the given coinbase to a fresh key.
Transaction spendCoinbase(const Blockchain &Chain, const TxId &Coinbase,
                          const crypto::PrivateKey &Miner, uint64_t Seed) {
  Transaction Spend;
  Spend.Inputs.push_back(TxIn{OutPoint{Coinbase, 0}, {}});
  Spend.Outputs.push_back(TxOut{Chain.params().Subsidy - 10000,
                                makeP2PKH(keyFromSeed(Seed).id())});
  auto Sig = signInput(Spend, 0, makeP2PKH(Miner.id()), {Miner});
  EXPECT_TRUE(Sig.hasValue());
  Spend.Inputs[0].ScriptSig = *Sig;
  return Spend;
}

TEST(ChainAudit, PassesWhileExtendingWithSpends) {
  Blockchain Chain(testParams());
  tc::installChainAuditor(Chain); // Audits after every submit.
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  for (int I = 0; I < 3; ++I) {
    Clock += 600;
    auto B = mineAndSubmit(Chain, Pool, Miner.id(), Clock);
    ASSERT_TRUE(B.hasValue()) << B.error().message();
  }
  auto CoinbaseHash = Chain.blockByHash(*Chain.blockHashAt(1))->Txs[0].txid();
  ASSERT_TRUE(Pool.acceptTransaction(
                      spendCoinbase(Chain, CoinbaseHash, Miner, 50), Chain)
                  .hasValue());
  Clock += 600;
  // The audited replay must match the incremental UTXO set after a
  // block that actually moves coins.
  auto B = mineAndSubmit(Chain, Pool, Miner.id(), Clock);
  ASSERT_TRUE(B.hasValue()) << B.error().message();
  EXPECT_TRUE(tc::auditChain(Chain).hasValue());
  EXPECT_TRUE(tc::auditMempool(Pool, Chain).hasValue());
}

TEST(ChainAudit, PassesAcrossSuccessfulReorg) {
  Blockchain Chain(testParams());
  tc::installChainAuditor(Chain);
  Mempool Pool;
  auto Miner = keyFromSeed(4);
  uint32_t Clock = 0;
  for (int I = 0; I < 2; ++I) {
    Clock += 600;
    ASSERT_TRUE(mineAndSubmit(Chain, Pool, Miner.id(), Clock).hasValue());
  }
  BlockHash Genesis = *Chain.blockHashAt(0);
  Block A1 = mineOn(Chain, Genesis, keyFromSeed(5).id(), 20000);
  Block A2 = mineOn(Chain, A1.hash(), keyFromSeed(5).id(), 20600);
  Block A3 = mineOn(Chain, A2.hash(), keyFromSeed(5).id(), 21200);
  // Every submit (quiet storage, then the reorg) passes the auditor.
  ASSERT_TRUE(Chain.submitBlock(A1).hasValue());
  ASSERT_TRUE(Chain.submitBlock(A2).hasValue());
  ASSERT_TRUE(Chain.submitBlock(A3).hasValue());
  EXPECT_EQ(Chain.tipHash(), A3.hash());
  EXPECT_TRUE(tc::auditChain(Chain).hasValue());
}

TEST(ChainAudit, PassesAfterFailedReorgRollback) {
  // The reorg_invalid_test scenario with the auditor installed: a
  // heavier branch whose flaw only surfaces at connect time. The reorg
  // aborts and rolls back; the audit re-derives the restored state and
  // must find it exact.
  Blockchain Chain(testParams());
  tc::installChainAuditor(Chain);
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  for (int I = 0; I < 2; ++I) {
    Clock += 600;
    ASSERT_TRUE(mineAndSubmit(Chain, Pool, Miner.id(), Clock).hasValue());
  }
  BlockHash HonestTip = Chain.tipHash();
  size_t HonestUtxo = Chain.utxo().size();

  BlockHash Genesis = *Chain.blockHashAt(0);
  Block A1 = mineOn(Chain, Genesis, keyFromSeed(2).id(), 10000);
  Block A2 = mineOn(Chain, A1.hash(), keyFromSeed(2).id(), 10600);
  Transaction Bogus;
  TxIn BadIn;
  BadIn.Prevout.Tx.Hash[0] = 0x99;
  Bogus.Inputs.push_back(BadIn);
  Bogus.Outputs.push_back(TxOut{1000, makeP2PKH(keyFromSeed(3).id())});
  Block A3 = mineOn(Chain, A2.hash(), keyFromSeed(2).id(), 11200, {Bogus});

  ASSERT_TRUE(Chain.submitBlock(A1).hasValue());
  ASSERT_TRUE(Chain.submitBlock(A2).hasValue());
  EXPECT_FALSE(Chain.submitBlock(A3).hasValue());

  EXPECT_EQ(Chain.tipHash(), HonestTip);
  EXPECT_EQ(Chain.utxo().size(), HonestUtxo);
  EXPECT_TRUE(tc::auditChain(Chain).hasValue());
}

TEST(MempoolAudit, DetectsStalePoolEntries) {
  Blockchain Chain(testParams());
  Mempool PoolA, PoolB;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  for (int I = 0; I < 2; ++I) {
    Clock += 600;
    ASSERT_TRUE(mineAndSubmit(Chain, PoolB, Miner.id(), Clock).hasValue());
  }
  auto CoinbaseHash = Chain.blockByHash(*Chain.blockHashAt(1))->Txs[0].txid();

  // PoolA holds a spend of the coinbase...
  Transaction SpendA = spendCoinbase(Chain, CoinbaseHash, Miner, 50);
  ASSERT_TRUE(PoolA.acceptTransaction(SpendA, Chain).hasValue());
  EXPECT_TRUE(tc::auditMempool(PoolA, Chain).hasValue());

  // ...but a conflicting spend confirms via PoolB, and PoolA is never
  // told. Its entry now spends an unavailable txout.
  Transaction SpendB = spendCoinbase(Chain, CoinbaseHash, Miner, 51);
  ASSERT_TRUE(PoolB.acceptTransaction(SpendB, Chain).hasValue());
  Clock += 600;
  ASSERT_TRUE(mineAndSubmit(Chain, PoolB, Miner.id(), Clock).hasValue());

  EXPECT_TRUE(tc::auditMempool(PoolB, Chain).hasValue());
  EXPECT_FALSE(tc::auditMempool(PoolA, Chain).hasValue());
}

TEST(StateAudit, ConsumptionInvariantsHold) {
  // A spoiled registration still consumes its inputs ("an invalid
  // transaction spoils its inputs", Section 5); the auditor checks the
  // consumption bookkeeping agrees with the registered bodies.
  tc::State State;
  EXPECT_TRUE(tc::auditState(State).hasValue());

  tc::Transaction T;
  tc::Input In;
  In.SourceTxid = std::string(64, 'b');
  In.SourceIndex = 0;
  In.Type = logic::pOne();
  T.Inputs.push_back(In);
  // No proof: the transaction cannot validate and spoils.
  class NeverSpent : public logic::CondOracle {
    uint64_t evaluationTime() const override { return 0; }
    Result<bool> isSpent(const std::string &, uint32_t) const override {
      return false;
    }
  } Oracle;
  auto Applied = State.applyTransaction(T, std::string(64, 'c'), Oracle);
  ASSERT_TRUE(Applied.hasValue());
  EXPECT_TRUE(State.isSpoiled(std::string(64, 'c')));
  EXPECT_TRUE(State.isConsumed(std::string(64, 'b'), 0));
  EXPECT_TRUE(tc::auditState(State).hasValue());
}

} // namespace
