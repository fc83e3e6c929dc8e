//===- bench/bench_t8_validation_fastpath.cpp - Experiment T8 -------------===//
//
// The validation fast path: how much block-connect work the signature
// cache removes (cold vs warm) and how the remainder scales across the
// TYPECOIN_PAR_VERIFY worker pool (1/2/4 threads). The workload is a
// fixed chain whose final blocks carry batches of P2PKH spends, replayed
// into a fresh Blockchain per iteration — exactly what initial sync,
// reorg replay, and chaos-harness recovery do.
//
//===----------------------------------------------------------------------===//

#include "bitcoin/chain.h"

#include "bitcoin/miner.h"
#include "bitcoin/sigcache.h"
#include "bitcoin/standard.h"
#include "support/rng.h"
#include "support/threadpool.h"

#include <benchmark/benchmark.h>

using namespace typecoin;
using namespace typecoin::bitcoin;

namespace {

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

ChainParams benchParams() {
  ChainParams P;
  P.CoinbaseMaturity = 1;
  return P;
}

/// The fixed workload: 12 coinbases to one miner, a maturity block, then
/// two blocks spending 6 coinbases each (12 ECDSA verifications per
/// replay). Built once; returns all blocks above genesis in order.
const std::vector<Block> &workloadBlocks() {
  static const std::vector<Block> Blocks = [] {
    Blockchain Chain(benchParams());
    Mempool Pool;
    auto Miner = keyFromSeed(1);
    Script Lock = makeP2PKH(Miner.id());
    uint32_t Clock = 0;
    std::vector<Block> Out;
    for (int I = 0; I < 13; ++I) {
      Clock += 600;
      auto B = mineAndSubmit(Chain, Pool, Miner.id(), Clock);
      Out.push_back(*B);
    }
    for (int Batch = 0; Batch < 2; ++Batch) {
      for (int J = 0; J < 6; ++J) {
        int H = 1 + Batch * 6 + J;
        TxId Cb = Chain.blockByHash(*Chain.blockHashAt(H))->Txs[0].txid();
        Transaction Spend;
        Spend.Inputs.push_back(TxIn{OutPoint{Cb, 0}, {}});
        Spend.Outputs.push_back(
            TxOut{Chain.params().Subsidy - 10000,
                  makeP2PKH(keyFromSeed(100 + H).id())});
        auto Sig = signInput(Spend, 0, Lock, {Miner});
        Spend.Inputs[0].ScriptSig = *Sig;
        (void)Pool.acceptTransaction(Spend, Chain);
      }
      Clock += 600;
      auto B = mineAndSubmit(Chain, Pool, Miner.id(), Clock);
      Out.push_back(*B);
    }
    return Out;
  }();
  return Blocks;
}

void replayAll() {
  Blockchain Chain(benchParams());
  for (const Block &B : workloadBlocks())
    if (!Chain.submitBlock(B))
      std::abort(); // the workload is valid by construction
  benchmark::DoNotOptimize(Chain.tipHash());
}

/// Args: {workers, warm}. workers = 0 is the serial path; warm keeps the
/// process-wide signature cache populated across iterations, cold clears
/// it so every replay pays full ECDSA.
void BM_BlockConnectReplay(benchmark::State &State) {
  unsigned Workers = static_cast<unsigned>(State.range(0));
  bool Warm = State.range(1) != 0;
  (void)workloadBlocks(); // build outside timing
  ThreadPool::configure(Workers);
  if (Warm) {
    SignatureCache::instance().clear();
    replayAll(); // populate the cache once, outside timing
  }
  for (auto _ : State) {
    if (!Warm) {
      State.PauseTiming();
      SignatureCache::instance().clear();
      State.ResumeTiming();
    }
    replayAll();
  }
  ThreadPool::configure(0);
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(workloadBlocks().size()));
}
BENCHMARK(BM_BlockConnectReplay)
    ->Args({0, 0}) // serial, cold cache
    ->Args({0, 1}) // serial, warm cache
    ->Args({1, 0}) // pool knob at 1 == serial (sanity)
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({2, 1})
    ->Args({4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// The raw script-check batch (no UTXO/undo bookkeeping): the spend
/// block's 6 inputs checked serially vs across the pool. Args: {workers,
/// warm}; cold clears the signature cache before every iteration, warm
/// fills it once so each check costs a cache hit.
void BM_ScriptCheckBatch(benchmark::State &State) {
  unsigned Workers = static_cast<unsigned>(State.range(0));
  bool Warm = State.range(1) != 0;
  const std::vector<Block> &Blocks = workloadBlocks();
  const Block &SpendBlock = Blocks[Blocks.size() - 2];
  // Rebuild the UTXO view the block connects against.
  Blockchain Chain(benchParams());
  for (size_t I = 0; I + 2 < Blocks.size(); ++I)
    (void)Chain.submitBlock(Blocks[I]);
  std::vector<ScriptCheck> Checks;
  for (size_t I = 1; I < SpendBlock.Txs.size(); ++I) {
    auto R = checkTxInputs(SpendBlock.Txs[I], Chain.utxo(), Chain.height() + 1,
                           Chain.params().CoinbaseMaturity, &Checks);
    if (!R)
      std::abort();
  }
  ThreadPool::configure(Workers);
  if (Warm) {
    SignatureCache::instance().clear();
    if (!runScriptChecks(Checks))
      std::abort(); // populate the cache once, outside timing
  }
  for (auto _ : State) {
    if (!Warm) {
      State.PauseTiming();
      SignatureCache::instance().clear();
      State.ResumeTiming();
    }
    auto S = runScriptChecks(Checks);
    benchmark::DoNotOptimize(S);
  }
  ThreadPool::configure(0);
}
BENCHMARK(BM_ScriptCheckBatch)
    ->Args({0, 0}) // serial, cold cache
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({0, 1}) // serial, warm cache: the sigcache-hit cost
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// The memoized-identity micro path: txid() and signatureHash() on a
/// transaction whose caches are hot, the common case inside mempool
/// loops and block assembly after this PR's hoisting.
void BM_TxidMemoized(benchmark::State &State) {
  const std::vector<Block> &Blocks = workloadBlocks();
  const Transaction &Tx = Blocks.back().Txs[1];
  (void)Tx.txid();
  for (auto _ : State)
    benchmark::DoNotOptimize(Tx.txid());
}
BENCHMARK(BM_TxidMemoized);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
