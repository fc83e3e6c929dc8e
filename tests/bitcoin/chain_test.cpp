//===- tests/bitcoin/chain_test.cpp - Chain, mining, reorg, mempool -------===//

#include "bitcoin/chain.h"

#include "bitcoin/miner.h"
#include "bitcoin/standard.h"
#include "support/rng.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::bitcoin;

namespace {

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

ChainParams testParams() {
  ChainParams P;
  P.CoinbaseMaturity = 1;
  return P;
}

/// Mines \p N empty blocks paying \p Payout.
void mineBlocks(Blockchain &Chain, Mempool &Pool, const crypto::KeyId &Payout,
                int N, uint32_t &Clock) {
  for (int I = 0; I < N; ++I) {
    Clock += 600;
    auto B = mineAndSubmit(Chain, Pool, Payout, Clock);
    ASSERT_TRUE(B.hasValue()) << B.error().message();
  }
}

TEST(Chain, GenesisState) {
  Blockchain Chain(testParams());
  EXPECT_EQ(Chain.height(), 0);
  EXPECT_EQ(Chain.blockCount(), 1u);
  // The genesis coinbase is an OP_RETURN output: provably unspendable,
  // so it never enters the UTXO table.
  EXPECT_EQ(Chain.utxo().size(), 0u);
}

TEST(Chain, MineExtendsChain) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 5, Clock);
  EXPECT_EQ(Chain.height(), 5);
}

TEST(Chain, RejectsUnknownParent) {
  Blockchain Chain(testParams());
  Block B;
  B.Header.Prev.Hash[0] = 0x99;
  B.Header.Bits = Chain.params().GenesisBits;
  Transaction Cb;
  Cb.Inputs.push_back(TxIn{OutPoint::null(), Script(), 0xffffffff});
  Cb.Outputs.push_back(TxOut{0, makeNullData(bytesOfString("x"))});
  B.Txs.push_back(Cb);
  B.updateMerkleRoot();
  ASSERT_TRUE(mineBlock(B));
  EXPECT_FALSE(Chain.submitBlock(B).hasValue());
}

TEST(Chain, RejectsBadMerkleRoot) {
  Blockchain Chain(testParams());
  Mempool Pool;
  Block B = assembleBlock(Chain, Pool, keyFromSeed(1).id(), 600);
  B.Header.MerkleRoot[0] ^= 1;
  mineBlock(B);
  EXPECT_FALSE(Chain.submitBlock(B).hasValue());
}

TEST(Chain, RejectsOverpayingCoinbase) {
  Blockchain Chain(testParams());
  Mempool Pool;
  Block B = assembleBlock(Chain, Pool, keyFromSeed(1).id(), 600);
  B.Txs[0].Outputs[0].Value = Chain.params().Subsidy + 1;
  B.Txs[0].invalidateCaches();
  B.updateMerkleRoot();
  ASSERT_TRUE(mineBlock(B));
  EXPECT_FALSE(Chain.submitBlock(B).hasValue());
}

TEST(Chain, SpendCoinbaseAfterMaturity) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  auto Alice = keyFromSeed(2);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 2, Clock);

  // Spend the first mined coinbase.
  auto CoinbaseHash = Chain.blockByHash(*Chain.blockHashAt(1))->Txs[0].txid();
  Transaction Spend;
  Spend.Inputs.push_back(TxIn{OutPoint{CoinbaseHash, 0}, {}});
  Spend.Outputs.push_back(
      TxOut{Chain.params().Subsidy - 10000, makeP2PKH(Alice.id())});
  auto Sig = signInput(Spend, 0, makeP2PKH(Miner.id()), {Miner});
  ASSERT_TRUE(Sig.hasValue()) << Sig.error().message();
  Spend.Inputs[0].ScriptSig = *Sig;

  ASSERT_TRUE(Pool.acceptTransaction(Spend, Chain).hasValue());
  mineBlocks(Chain, Pool, Miner.id(), 1, Clock);
  EXPECT_EQ(Chain.confirmations(Spend.txid()), 1);
  EXPECT_TRUE(Chain.utxo().contains(OutPoint{Spend.txid(), 0}));
}

TEST(Chain, RejectsDoubleSpendInBlocks) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 2, Clock);

  auto CoinbaseHash = Chain.blockByHash(*Chain.blockHashAt(1))->Txs[0].txid();
  Script Lock = makeP2PKH(Miner.id());
  auto MakeSpend = [&](uint64_t Seed) {
    Transaction Spend;
    Spend.Inputs.push_back(TxIn{OutPoint{CoinbaseHash, 0}, {}});
    Spend.Outputs.push_back(TxOut{Chain.params().Subsidy - 10000,
                                  makeP2PKH(keyFromSeed(Seed).id())});
    auto Sig = signInput(Spend, 0, Lock, {Miner});
    Spend.Inputs[0].ScriptSig = *Sig;
    return Spend;
  };
  Transaction SpendA = MakeSpend(50);
  Transaction SpendB = MakeSpend(51);

  ASSERT_TRUE(Pool.acceptTransaction(SpendA, Chain).hasValue());
  // The mempool rejects the conflicting spend.
  EXPECT_FALSE(Pool.acceptTransaction(SpendB, Chain).hasValue());

  mineBlocks(Chain, Pool, Miner.id(), 1, Clock);

  // A block containing SpendB now fails validation (output is spent).
  Mempool Pool2(MempoolPolicy{0, false});
  Block Bad = assembleBlock(Chain, Pool2, Miner.id(), Clock + 600);
  Bad.Txs.push_back(SpendB);
  Bad.updateMerkleRoot();
  ASSERT_TRUE(mineBlock(Bad));
  EXPECT_FALSE(Chain.submitBlock(Bad).hasValue());
}

TEST(Chain, ConfirmationsCount) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 1, Clock);
  TxId Coinbase = Chain.blockByHash(Chain.tipHash())->Txs[0].txid();
  EXPECT_EQ(Chain.confirmations(Coinbase), 1);
  mineBlocks(Chain, Pool, Miner.id(), 5, Clock);
  // Six blocks on top: the paper's "confirmed" point.
  EXPECT_EQ(Chain.confirmations(Coinbase), 6);
}

TEST(Chain, IsSpentEvidence) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 2, Clock);

  auto CoinbaseHash = Chain.blockByHash(*Chain.blockHashAt(1))->Txs[0].txid();
  OutPoint Point{CoinbaseHash, 0};
  auto Unspent = Chain.isSpent(Point);
  ASSERT_TRUE(Unspent.hasValue());
  EXPECT_FALSE(*Unspent);

  Transaction Spend;
  Spend.Inputs.push_back(TxIn{Point, {}});
  Spend.Outputs.push_back(TxOut{Chain.params().Subsidy - 10000,
                                makeP2PKH(keyFromSeed(3).id())});
  auto Sig = signInput(Spend, 0, makeP2PKH(Miner.id()), {Miner});
  Spend.Inputs[0].ScriptSig = *Sig;
  ASSERT_TRUE(Pool.acceptTransaction(Spend, Chain).hasValue());
  mineBlocks(Chain, Pool, Miner.id(), 1, Clock);

  auto Spent = Chain.isSpent(Point);
  ASSERT_TRUE(Spent.hasValue());
  EXPECT_TRUE(*Spent);

  // Unknown transactions yield no evidence.
  OutPoint Unknown;
  Unknown.Tx.Hash[0] = 0x77;
  EXPECT_FALSE(Chain.isSpent(Unknown).hasValue());
}

TEST(Chain, ReorgToLongerBranch) {
  Blockchain Chain(testParams());
  Mempool PoolA, PoolB;
  auto MinerA = keyFromSeed(1);
  auto MinerB = keyFromSeed(2);

  // Branch A: two blocks on genesis.
  uint32_t Clock = 0;
  mineBlocks(Chain, PoolA, MinerA.id(), 2, Clock);
  BlockHash TipA = Chain.tipHash();
  EXPECT_EQ(Chain.height(), 2);

  // Branch B: fork from genesis on a second chain instance, then feed
  // three blocks to the original chain to force a reorg.
  Blockchain Fork(testParams());
  Mempool ForkPool;
  uint32_t ForkClock = 1000;
  for (int I = 0; I < 3; ++I) {
    ForkClock += 600;
    auto B = mineAndSubmit(Fork, ForkPool, MinerB.id(), ForkClock);
    ASSERT_TRUE(B.hasValue());
    ASSERT_TRUE(Chain.submitBlock(*B).hasValue());
  }

  EXPECT_EQ(Chain.height(), 3);
  EXPECT_NE(Chain.tipHash(), TipA);
  EXPECT_EQ(Chain.tipHash(), Fork.tipHash());

  // Miner A's coinbases are no longer on the best chain.
  const Block *OldBlock = Chain.blockByHash(TipA);
  ASSERT_NE(OldBlock, nullptr);
  EXPECT_EQ(Chain.confirmations(OldBlock->Txs[0].txid()), 0);
  // Miner B's are.
  EXPECT_EQ(Chain.confirmations(
                Chain.blockByHash(Chain.tipHash())->Txs[0].txid()),
            1);
}

TEST(Chain, ReorgRestoresUtxo) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 1, Clock);
  size_t UtxoAfterOne = Chain.utxo().size();

  // Competing 2-block branch from genesis.
  Blockchain Fork(testParams());
  Mempool ForkPool;
  uint32_t ForkClock = 5000;
  for (int I = 0; I < 2; ++I) {
    ForkClock += 600;
    auto B = mineAndSubmit(Fork, ForkPool, keyFromSeed(9).id(), ForkClock);
    ASSERT_TRUE(B.hasValue());
    ASSERT_TRUE(Chain.submitBlock(*B).hasValue());
  }
  EXPECT_EQ(Chain.height(), 2);
  // Old branch's coinbase output is gone; new branch contributed two.
  EXPECT_EQ(Chain.utxo().size(), UtxoAfterOne + 1);
  for (const auto &[Point, C] : Chain.utxo().entries()) {
    EXPECT_TRUE(Chain.confirmations(Point.Tx) > 0);
  }
}

TEST(Chain, DuplicateBlockIsIdempotent) {
  Blockchain Chain(testParams());
  Mempool Pool;
  uint32_t Clock = 600;
  auto B = mineAndSubmit(Chain, Pool, keyFromSeed(1).id(), Clock);
  ASSERT_TRUE(B.hasValue());
  EXPECT_TRUE(Chain.submitBlock(*B).hasValue());
  EXPECT_EQ(Chain.height(), 1);
}

TEST(Mempool, FeePolicy) {
  Blockchain Chain(testParams());
  Mempool Pool(MempoolPolicy{/*MinRelayFee=*/50000, true});
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  Mempool MinePool;
  for (int I = 0; I < 2; ++I) {
    Clock += 600;
    ASSERT_TRUE(mineAndSubmit(Chain, MinePool, Miner.id(), Clock).hasValue());
  }
  auto CoinbaseHash = Chain.blockByHash(*Chain.blockHashAt(1))->Txs[0].txid();
  Transaction Spend;
  Spend.Inputs.push_back(TxIn{OutPoint{CoinbaseHash, 0}, {}});
  // Fee of 10000 < 50000 minimum.
  Spend.Outputs.push_back(TxOut{Chain.params().Subsidy - 10000,
                                makeP2PKH(keyFromSeed(3).id())});
  auto Sig = signInput(Spend, 0, makeP2PKH(Miner.id()), {Miner});
  Spend.Inputs[0].ScriptSig = *Sig;
  EXPECT_FALSE(Pool.acceptTransaction(Spend, Chain).hasValue());
}

TEST(Mempool, ChainedUnconfirmedSpends) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  auto Alice = keyFromSeed(2);
  auto Bob = keyFromSeed(3);
  uint32_t Clock = 0;
  Mempool MinePool;
  for (int I = 0; I < 2; ++I) {
    Clock += 600;
    ASSERT_TRUE(mineAndSubmit(Chain, MinePool, Miner.id(), Clock).hasValue());
  }
  auto CoinbaseHash = Chain.blockByHash(*Chain.blockHashAt(1))->Txs[0].txid();

  Transaction ToAlice;
  ToAlice.Inputs.push_back(TxIn{OutPoint{CoinbaseHash, 0}, {}});
  ToAlice.Outputs.push_back(
      TxOut{Chain.params().Subsidy - 10000, makeP2PKH(Alice.id())});
  ToAlice.Inputs[0].ScriptSig =
      *signInput(ToAlice, 0, makeP2PKH(Miner.id()), {Miner});
  ASSERT_TRUE(Pool.acceptTransaction(ToAlice, Chain).hasValue());

  // Alice immediately re-spends the unconfirmed output to Bob.
  Transaction ToBob;
  ToBob.Inputs.push_back(TxIn{OutPoint{ToAlice.txid(), 0}, {}});
  ToBob.Outputs.push_back(
      TxOut{Chain.params().Subsidy - 20000, makeP2PKH(Bob.id())});
  ToBob.Inputs[0].ScriptSig =
      *signInput(ToBob, 0, makeP2PKH(Alice.id()), {Alice});
  ASSERT_TRUE(Pool.acceptTransaction(ToBob, Chain).hasValue());

  // A second spend of the pool output ToBob already spends.
  Transaction ToAliceAgain;
  ToAliceAgain.Inputs.push_back(TxIn{OutPoint{ToAlice.txid(), 0}, {}});
  ToAliceAgain.Outputs.push_back(
      TxOut{Chain.params().Subsidy - 30000, makeP2PKH(Alice.id())});
  ToAliceAgain.Inputs[0].ScriptSig =
      *signInput(ToAliceAgain, 0, makeP2PKH(Alice.id()), {Alice});
  Status Again = Pool.acceptTransaction(ToAliceAgain, Chain);
  ASSERT_FALSE(Again.hasValue());
  EXPECT_NE(Again.error().message().find("already spent by pool"),
            std::string::npos);

  // A spend of an output the pool transaction does not have.
  Transaction NoSuchOutput;
  NoSuchOutput.Inputs.push_back(TxIn{OutPoint{ToAlice.txid(), 1}, {}});
  NoSuchOutput.Outputs.push_back(TxOut{100000, makeP2PKH(Bob.id())});
  NoSuchOutput.Inputs[0].ScriptSig =
      *signInput(NoSuchOutput, 0, makeP2PKH(Alice.id()), {Alice});
  Status Missing = Pool.acceptTransaction(NoSuchOutput, Chain);
  ASSERT_FALSE(Missing.hasValue());
  EXPECT_NE(Missing.error().message().find("missing or spent"),
            std::string::npos);

  // One spend of a confirmed coin and a pool output together.
  auto Coinbase2 = Chain.blockByHash(*Chain.blockHashAt(2))->Txs[0].txid();
  Transaction Mixed;
  Mixed.Inputs.push_back(TxIn{OutPoint{Coinbase2, 0}, {}});
  Mixed.Inputs.push_back(TxIn{OutPoint{ToBob.txid(), 0}, {}});
  Mixed.Outputs.push_back(
      TxOut{2 * Chain.params().Subsidy - 40000, makeP2PKH(Alice.id())});
  Script MinerSig = *signInput(Mixed, 0, makeP2PKH(Miner.id()), {Miner});
  Script BobSig = *signInput(Mixed, 1, makeP2PKH(Bob.id()), {Bob});
  Mixed.Inputs[0].ScriptSig = MinerSig;
  Mixed.Inputs[1].ScriptSig = BobSig;
  ASSERT_TRUE(Pool.acceptTransaction(Mixed, Chain).hasValue());
  EXPECT_EQ(Pool.size(), 3u);

  Clock += 600;
  ASSERT_TRUE(mineAndSubmit(Chain, Pool, Miner.id(), Clock).hasValue());
  EXPECT_EQ(Pool.size(), 0u);
  EXPECT_EQ(Chain.confirmations(ToBob.txid()), 1);
  EXPECT_EQ(Chain.confirmations(Mixed.txid()), 1);
}

TEST(Pow, CompactRoundTrip) {
  using crypto::U256;
  for (uint32_t Bits : {0x207fffffu, 0x1d00ffffu, 0x1b0404cbu}) {
    U256 Target = compactToTarget(Bits);
    EXPECT_FALSE(Target.isZero());
    EXPECT_EQ(targetToCompact(Target), Bits);
  }
}

TEST(Pow, WorkMonotonicInDifficulty) {
  // Lower target = more work.
  EXPECT_GT(blockWork(0x1d00ffff), blockWork(0x207fffff));
}

TEST(Pow, RetargetClamps) {
  uint32_t Bits = 0x1d00ffff;
  // Blocks came 100x too fast: target shrinks, clamped to 1/4.
  uint32_t Harder = retarget(Bits, 2016 * 6, 600, 2016);
  EXPECT_GT(blockWork(Harder), blockWork(Bits));
  EXPECT_LT(blockWork(Harder), blockWork(Bits) * 4.1);
  // Blocks came 100x too slow: target grows, clamped to 4x.
  uint32_t Easier = retarget(Bits, 2016 * 60000, 600, 2016);
  EXPECT_LT(blockWork(Easier), blockWork(Bits));
  EXPECT_GT(blockWork(Easier), blockWork(Bits) / 4.1);
}

TEST(Merkle, SingleAndPair) {
  std::vector<crypto::Digest32> One{crypto::sha256(bytesOfString("a"))};
  EXPECT_EQ(merkleRoot(One), One[0]);

  std::vector<crypto::Digest32> Two{crypto::sha256(bytesOfString("a")),
                                    crypto::sha256(bytesOfString("b"))};
  EXPECT_NE(merkleRoot(Two), Two[0]);
}

TEST(Merkle, ProofsVerify) {
  std::vector<crypto::Digest32> Leaves;
  for (int I = 0; I < 7; ++I)
    Leaves.push_back(crypto::sha256(bytesOfString("leaf" + std::to_string(I))));
  auto Root = merkleRoot(Leaves);
  for (size_t I = 0; I < Leaves.size(); ++I) {
    MerkleProof Proof = merkleProve(Leaves, I);
    EXPECT_TRUE(merkleVerify(Leaves[I], Proof, Root)) << I;
    // A proof for one leaf fails for another.
    if (I > 0) {
      EXPECT_FALSE(merkleVerify(Leaves[0], Proof, Root));
    }
  }
}

TEST(Block, SerializeRoundTrip) {
  Blockchain Chain(testParams());
  Mempool Pool;
  Block B = assembleBlock(Chain, Pool, keyFromSeed(1).id(), 600);
  mineBlock(B);
  auto Back = Block::deserialize(B.serialize());
  ASSERT_TRUE(Back.hasValue()) << Back.error().message();
  EXPECT_EQ(Back->hash(), B.hash());
  EXPECT_EQ(Back->Txs.size(), B.Txs.size());
}

} // namespace
