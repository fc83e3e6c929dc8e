//===- bench/bench_t1_confirmation_latency.cpp - Experiment T1 ------------===//
//
// Paper claims (Section 2 item 6, Section 3.2): blocks arrive roughly
// every ten minutes; a transaction with six subsequent blocks is
// "confirmed", which "takes roughly an hour"; and "certainly we could
// not base a filesystem on a mechanism that requires an hour to deliver
// an access permission."
//
// This harness simulates Poisson block arrivals and reports the time to
// k confirmations for k = 1..6, then benchmarks that simulator and one
// block's relay across a pumped cluster of P2P nodes.
//
//===----------------------------------------------------------------------===//

#include "bitcoin/netsim.h"
#include "net/cluster.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace typecoin;
using namespace typecoin::bitcoin;

namespace {

constexpr uint64_t Seed = 20150613; // PLDI'15 opening day.

std::vector<double> uniformSubmits(int N, double Horizon, uint64_t S) {
  Rng Rand(S);
  std::vector<double> Times;
  Times.reserve(N);
  for (int I = 0; I < N; ++I)
    Times.push_back(Rand.nextDouble() * Horizon);
  return Times;
}

void printTable() {
  std::printf("=== T1: time to k confirmations "
              "(Poisson blocks, 10 min mean, 10k transactions) ===\n");
  std::printf("%4s %12s %12s %12s   %s\n", "k", "mean (min)",
              "median (min)", "p95 (min)", "paper");
  NetSimParams Params;
  auto Records = simulateConfirmations(
      Params, uniformSubmits(10000, 3600.0 * 1000, Seed), 6, Seed + 1);
  for (int K = 1; K <= 6; ++K) {
    std::vector<double> Latencies;
    Latencies.reserve(Records.size());
    for (const auto &R : Records)
      Latencies.push_back(R.ConfirmTimes[K - 1] - R.SubmitTime);
    LatencyStats S = summarize(Latencies);
    const char *Note = K == 6 ? "\"roughly an hour\"" : "";
    std::printf("%4d %12.1f %12.1f %12.1f   %s\n", K, S.Mean / 60,
                S.Median / 60, S.P95 / 60, Note);
  }
  std::printf("\n");
}

void BM_SimulateConfirmations(benchmark::State &State) {
  NetSimParams Params;
  auto Submits = uniformSubmits(static_cast<int>(State.range(0)),
                                3600.0 * 100, Seed);
  for (auto _ : State) {
    auto Records = simulateConfirmations(Params, Submits, 6, Seed);
    benchmark::DoNotOptimize(Records);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_SimulateConfirmations)->Arg(100)->Arg(1000)->Arg(10000);

void BM_NetworkBlockPropagation(benchmark::State &State) {
  // Wire-level relay: one mined block reaching N fully-meshed NetNodes
  // (compact announcements over loopback, pumped on a VirtualClock).
  // Building and tearing down the cluster is not timed.
  size_t N = static_cast<size_t>(State.range(0));
  ChainParams Params;
  Params.CoinbaseMaturity = 1;
  net::NetConfig Cfg;
  // No ping traffic: the timed region is the block's relay alone.
  Cfg.Timers.PingIntervalSec = 1e9;
  Rng Rand(Seed);
  crypto::KeyId Miner = crypto::PrivateKey::generate(Rand).id();
  for (auto _ : State) {
    State.PauseTiming();
    auto C = std::make_unique<net::Cluster>(Params, N, 0, Cfg);
    State.ResumeTiming();
    auto B = C->mineAt(0, Miner, 600);
    benchmark::DoNotOptimize(B);
    size_t Rounds = C->settle();
    benchmark::DoNotOptimize(Rounds);
    State.PauseTiming();
    bool Converged = B.hasValue() && C->converged() &&
                     C->chain(N - 1).height() == 1;
    C.reset();
    State.ResumeTiming();
    if (!Converged) {
      State.SkipWithError("cluster did not converge on the mined block");
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}
BENCHMARK(BM_NetworkBlockPropagation)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
