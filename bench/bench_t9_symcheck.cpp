//===- bench/bench_t9_symcheck.cpp - Experiment T9 ------------------------===//
//
// The cost model of `tclint --sym --dataflow`: per-script symbolic
// analysis latency on the standard templates, path-enumeration scaling
// on branchy scripts (2^n paths for n sequential symbolic conditionals),
// and the affine dataflow pass against pending-set size. These bound
// what the two passes add to a tclint run.
//
//===----------------------------------------------------------------------===//

#include "analysis/dataflow.h"
#include "analysis/tcsym.h"

#include "bitcoin/standard.h"
#include "support/rng.h"

#include <benchmark/benchmark.h>

using namespace typecoin;
using namespace typecoin::analysis;

namespace {

crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

void BM_SymAnalyzeP2PKH(benchmark::State &State) {
  bitcoin::Script S = bitcoin::makeP2PKH(keyFromSeed(1).id());
  for (auto _ : State)
    benchmark::DoNotOptimize(analyzeScript(S));
}
BENCHMARK(BM_SymAnalyzeP2PKH);

void BM_SymAnalyzeMultisig2of3(benchmark::State &State) {
  std::vector<Bytes> Keys;
  for (uint64_t I = 0; I < 3; ++I)
    Keys.push_back(keyFromSeed(10 + I).publicKey().serialize());
  bitcoin::Script S = bitcoin::makeMultiSig(2, Keys);
  for (auto _ : State)
    benchmark::DoNotOptimize(analyzeScript(S));
}
BENCHMARK(BM_SymAnalyzeMultisig2of3);

/// Path enumeration: n sequential symbolic IFs fork into 2^n paths.
void BM_SymAnalyzeBranchy(benchmark::State &State) {
  bitcoin::Script S;
  for (int64_t I = 0; I < State.range(0); ++I)
    S.op(bitcoin::OP_IF).op(bitcoin::OP_ENDIF);
  S.pushInt(1);
  SymOptions Opts;
  Opts.MaxPaths = 4096;
  size_t Paths = 0;
  for (auto _ : State) {
    ScriptVerdict V = analyzeScript(S, Opts);
    Paths = V.PathsExplored;
    benchmark::DoNotOptimize(V);
  }
  State.counters["paths"] = static_cast<double>(Paths);
}
BENCHMARK(BM_SymAnalyzeBranchy)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// The dataflow pass over a pending chain of n transactions, each
/// consuming its predecessor's output (worst case for the cycle DFS).
void BM_AffineDataflowPending(benchmark::State &State) {
  std::vector<DataflowTx> Pending;
  for (int64_t I = 0; I < State.range(0); ++I) {
    DataflowTx T;
    T.Txid = "p" + std::to_string(I);
    T.Consumes = {I == 0 ? "aa:0"
                         : "p" + std::to_string(I - 1) + ":0"};
    Pending.push_back(std::move(T));
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(analyzeAffineDataflow(Pending));
}
BENCHMARK(BM_AffineDataflowPending)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
