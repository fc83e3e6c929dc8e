//===- tests/fastpath/sigcache_test.cpp - Signature cache correctness -----===//
//
// The shared signature-verification cache must only ever return "already
// verified" for the exact (sighash, pubkey, DER signature) triple that
// was verified — a different SIGHASH type, a malleated signature, or a
// different key must miss — and its eviction policy must never produce a
// false accept, only a re-verification. The end-to-end tests drive the
// intended flow: ECDSA runs once at mempool accept, and block connect /
// revalidate / chain replay hit the cache.
//
//===----------------------------------------------------------------------===//

#include "bitcoin/sigcache.h"

#include "bitcoin/chain.h"
#include "bitcoin/miner.h"
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

ChainParams testParams() {
  ChainParams P;
  P.CoinbaseMaturity = 1;
  return P;
}

crypto::Digest32 digestOf(uint8_t Fill) {
  crypto::Digest32 D{};
  D.fill(Fill);
  return D;
}

TEST(SigCache, KeyCommitsToEveryComponent) {
  SignatureCache SC(16);
  crypto::Digest32 Hash = digestOf(0x11);
  Bytes Pub{0x02, 0xaa, 0xbb};
  Bytes Der{0x30, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x02};

  SignatureCache::Key Base = SC.makeKey(Hash, Pub, Der);
  EXPECT_EQ(Base, SC.makeKey(Hash, Pub, Der));

  // A different sighash (e.g. a different SIGHASH type was signed).
  EXPECT_NE(Base, SC.makeKey(digestOf(0x12), Pub, Der));
  // A different key.
  Bytes Pub2 = Pub;
  Pub2.back() ^= 1;
  EXPECT_NE(Base, SC.makeKey(Hash, Pub2, Der));
  // A malleated signature: (r, n-s) re-encodes to different DER bytes,
  // so any byte-level change to the signature must change the key.
  Bytes Der2 = Der;
  Der2.back() ^= 1;
  EXPECT_NE(Base, SC.makeKey(Hash, Pub, Der2));
}

TEST(SigCache, KeysAreSaltedPerInstance) {
  // Two caches draw independent salts, so an adversary cannot
  // precompute keys for a victim process.
  SignatureCache A(16), B(16);
  crypto::Digest32 Hash = digestOf(0x33);
  Bytes Pub{0x02, 0x01};
  Bytes Der{0x30, 0x00};
  EXPECT_NE(A.makeKey(Hash, Pub, Der), B.makeKey(Hash, Pub, Der));
}

TEST(SigCache, ContainsOnlyWhatWasAdded) {
  SignatureCache SC(16);
  SignatureCache::Key K = SC.makeKey(digestOf(1), {0x02}, {0x30});
  EXPECT_FALSE(SC.contains(K));
  SC.add(K);
  EXPECT_TRUE(SC.contains(K));
  EXPECT_FALSE(SC.contains(SC.makeKey(digestOf(2), {0x02}, {0x30})));
  SC.clear();
  EXPECT_FALSE(SC.contains(K));
  EXPECT_EQ(SC.size(), 0u);
}

TEST(SigCache, EvictsOldestFirstAtCapacity) {
  SignatureCache SC(3);
  uint64_t Evicted0 = obs::counter("sigcache.evict").value();
  std::vector<SignatureCache::Key> Keys;
  for (uint8_t I = 0; I < 5; ++I) {
    Keys.push_back(SC.makeKey(digestOf(I), {0x02, I}, {0x30, I}));
    SC.add(Keys.back());
  }
  EXPECT_EQ(SC.size(), 3u);
  EXPECT_EQ(obs::counter("sigcache.evict").value() - Evicted0, 2u);
  // The two oldest are gone (a re-verification, never a false accept);
  // the three newest remain.
  EXPECT_FALSE(SC.contains(Keys[0]));
  EXPECT_FALSE(SC.contains(Keys[1]));
  EXPECT_TRUE(SC.contains(Keys[2]));
  EXPECT_TRUE(SC.contains(Keys[3]));
  EXPECT_TRUE(SC.contains(Keys[4]));
}

TEST(SigCache, ZeroCapacityDisablesCaching) {
  SignatureCache SC(0);
  SignatureCache::Key K = SC.makeKey(digestOf(7), {0x02}, {0x30});
  SC.add(K);
  EXPECT_EQ(SC.size(), 0u);
  EXPECT_FALSE(SC.contains(K));
}

TEST(SigCache, ResizeShrinksOldestFirst) {
  SignatureCache SC(4);
  std::vector<SignatureCache::Key> Keys;
  for (uint8_t I = 0; I < 4; ++I) {
    Keys.push_back(SC.makeKey(digestOf(I), {0x03, I}, {0x30, I}));
    SC.add(Keys.back());
  }
  SC.resize(2);
  EXPECT_EQ(SC.size(), 2u);
  EXPECT_EQ(SC.capacity(), 2u);
  EXPECT_FALSE(SC.contains(Keys[0]));
  EXPECT_FALSE(SC.contains(Keys[1]));
  EXPECT_TRUE(SC.contains(Keys[2]));
  EXPECT_TRUE(SC.contains(Keys[3]));
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

/// A signed spend of the coinbase at height \p H, paying \p Dest.
Transaction spendCoinbase(const Blockchain &Chain, int H,
                          const crypto::PrivateKey &Owner,
                          const crypto::KeyId &Dest) {
  TxId Coinbase = Chain.blockByHash(*Chain.blockHashAt(H))->Txs[0].txid();
  Transaction Spend;
  Spend.Inputs.push_back(TxIn{OutPoint{Coinbase, 0}, {}});
  Spend.Outputs.push_back(
      TxOut{Chain.params().Subsidy - 10000, makeP2PKH(Dest)});
  Script Lock = makeP2PKH(Owner.id());
  auto Sig = signInput(Spend, 0, Lock, {Owner});
  EXPECT_TRUE(Sig.hasValue());
  Spend.Inputs[0].ScriptSig = *Sig;
  return Spend;
}

TEST(SigCacheE2E, AcceptPopulatesConnectHits) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 2, Clock);

  Transaction Spend = spendCoinbase(Chain, 1, Miner, keyFromSeed(2).id());

  obs::Counter &Hits = obs::counter("sigcache.hit");
  obs::Counter &Misses = obs::counter("sigcache.miss");

  // Mempool accept verifies the signature for the first time: a miss,
  // then the triple enters the cache.
  uint64_t Miss0 = Misses.value();
  ASSERT_TRUE(Pool.acceptTransaction(Spend, Chain).hasValue());
  EXPECT_GE(Misses.value() - Miss0, 1u);

  // Block connect re-checks the same script: now a pure cache hit.
  uint64_t Hit0 = Hits.value();
  uint64_t Miss1 = Misses.value();
  mineBlocks(Chain, Pool, Miner.id(), 1, Clock);
  ASSERT_EQ(Chain.confirmations(Spend.txid()), 1);
  EXPECT_GE(Hits.value() - Hit0, 1u);
  EXPECT_EQ(Misses.value() - Miss1, 0u);
}

TEST(SigCacheE2E, RevalidateHitsWithoutFalseAccepts) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 2, Clock);

  Transaction Spend = spendCoinbase(Chain, 1, Miner, keyFromSeed(2).id());
  ASSERT_TRUE(Pool.acceptTransaction(Spend, Chain).hasValue());

  obs::Counter &Hits = obs::counter("sigcache.hit");
  uint64_t Hit0 = Hits.value();
  // Revalidation after a (simulated) chain event re-runs every pool
  // script; the ECDSA is skipped via the cache.
  Pool.revalidate(Chain);
  EXPECT_EQ(Pool.size(), 1u);
  EXPECT_GE(Hits.value() - Hit0, 1u);

  // A spend of the same output to a different destination has a
  // different sighash: it must NOT hit the entry cached for the first
  // spend. A fresh mempool (no conflict check in the way) accepts it
  // only after a full ECDSA run — a miss.
  Transaction Other = spendCoinbase(Chain, 1, Miner, keyFromSeed(3).id());
  obs::Counter &Misses = obs::counter("sigcache.miss");
  uint64_t Miss0 = Misses.value();
  Mempool Fresh;
  ASSERT_TRUE(Fresh.acceptTransaction(Other, Chain).hasValue());
  EXPECT_GE(Misses.value() - Miss0, 1u);
}

TEST(SigCacheE2E, ChainReplayRunsNoNewEcdsa) {
  // Build a chain whose block 3 carries a signed spend...
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 2, Clock);
  Transaction Spend = spendCoinbase(Chain, 1, Miner, keyFromSeed(2).id());
  ASSERT_TRUE(Pool.acceptTransaction(Spend, Chain).hasValue());
  mineBlocks(Chain, Pool, Miner.id(), 1, Clock);

  // ...then replay every block into a fresh chain, the exact work a
  // reorg performs when it reconnects previously validated blocks. All
  // signatures were verified (and cached) above, so the replay must be
  // pure cache hits — not a single new miss.
  obs::Counter &Hits = obs::counter("sigcache.hit");
  obs::Counter &Misses = obs::counter("sigcache.miss");
  uint64_t Hit0 = Hits.value();
  uint64_t Miss0 = Misses.value();
  Blockchain Replica(testParams());
  for (int H = 1; H <= Chain.height(); ++H) {
    const Block *B = Chain.blockByHash(*Chain.blockHashAt(H));
    ASSERT_NE(B, nullptr);
    ASSERT_TRUE(Replica.submitBlock(*B).hasValue());
  }
  EXPECT_EQ(Replica.tipHash(), Chain.tipHash());
  EXPECT_GE(Hits.value() - Hit0, 1u);
  EXPECT_EQ(Misses.value() - Miss0, 0u);
}

TEST(SigCacheE2E, TamperedSignatureFailsDespiteWarmCache) {
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 2, Clock);

  Transaction Spend = spendCoinbase(Chain, 1, Miner, keyFromSeed(2).id());
  ASSERT_TRUE(Pool.acceptTransaction(Spend, Chain).hasValue());

  // Corrupt one byte of the (cached-as-valid) signature's DER encoding:
  // the cache keys on the exact bytes, so this is a miss followed by a
  // failing ECDSA — never a false accept.
  Transaction Bad = Spend;
  ASSERT_GE(Bad.Inputs[0].ScriptSig.bytes().size(), 10u);
  Bytes Raw = Bad.Inputs[0].ScriptSig.bytes();
  Raw[5] ^= 1;
  Bad.Inputs[0].ScriptSig = Script(Raw);
  Mempool Fresh;
  EXPECT_FALSE(Fresh.acceptTransaction(Bad, Chain).hasValue());
}

TEST(SigCacheE2E, HitSkipsKeyParseOnlyForTheCachedKeyBytes) {
  // The checker parses the public key only on a cache miss. That is
  // sound because the cache key commits to the exact key bytes: the
  // same signature under any other encoding misses, parses, and fails.
  Blockchain Chain(testParams());
  Mempool Pool;
  auto Miner = keyFromSeed(1);
  uint32_t Clock = 0;
  mineBlocks(Chain, Pool, Miner.id(), 2, Clock);
  Transaction Spend = spendCoinbase(Chain, 1, Miner, keyFromSeed(2).id());
  Script Lock = makeP2PKH(Miner.id());

  auto Hash = signatureHash(Spend, 0, Lock, SIGHASH_ALL);
  ASSERT_TRUE(Hash.hasValue());
  Bytes Sig = Miner.sign(*Hash).toDER();
  Sig.push_back(SIGHASH_ALL);
  Bytes Pub = Miner.publicKey().serialize();
  TransactionSignatureChecker Checker(Spend, 0, Lock);
  ASSERT_TRUE(Checker.checkSignature(Sig, Pub)); // Verified, now cached.

  Bytes Flipped = Pub;
  Flipped[0] ^= 0x01; // 0x02 <-> 0x03: the valid point -P.
  Bytes NoRoot(33, 0x00);
  NoRoot[0] = 0x02;
  NoRoot[32] = 0x05; // x = 5: x^3 + 7 has no square root mod p.
  ASSERT_FALSE(crypto::PublicKey::parse(NoRoot).hasValue());
  Bytes BadPrefix = Pub;
  BadPrefix[0] = 0x05;
  for (const Bytes &Other : {Flipped, NoRoot, BadPrefix})
    EXPECT_FALSE(Checker.checkSignature(Sig, Other));

  obs::Counter &Hits = obs::counter("sigcache.hit");
  obs::Counter &Misses = obs::counter("sigcache.miss");
  uint64_t Hit0 = Hits.value();
  uint64_t Miss0 = Misses.value();
  EXPECT_TRUE(Checker.checkSignature(Sig, Pub));
  EXPECT_EQ(Hits.value() - Hit0, 1u);
  EXPECT_EQ(Misses.value() - Miss0, 0u);
}

} // namespace
