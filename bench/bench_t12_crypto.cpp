//===- bench/bench_t12_crypto.cpp - Experiment T12 ------------------------===//
//
// The crypto raw-speed tier (ROADMAP item 4c) plus the hash-consing
// digest path (4a). Micro-benchmarks for the primitives every typecoin
// transfer pays for:
//
//  * field multiplication and squaring on the 5x52-limb lazily reduced
//    FieldElement, against the Montgomery multiply the scalar ring n
//    uses,
//  * scalar multiplication: comb/wNAF table paths against the retained
//    naive double-and-add ladders,
//  * doubleMultiply — the ladder ecdsaVerify runs, which ecdsaVerify
//    ends with a Jacobian x check instead of a conversion to affine —
//    table Straus vs the bitwise Shamir reference,
//  * ECDSA sign/verify end to end, compressed public-key parse (a
//    Jacobi symbol) and decompression (the fixed square-root chain),
//  * propDigest / propEqual on a shared-subterm depth-10 proposition
//    with interning off vs on (O(depth) serialize-and-hash vs O(1)
//    pointer compare + memo read).
//
// Before/after numbers vs BENCH_2026-08-06_fastpath.json live in
// EXPERIMENTS.md (T12).
//
//===----------------------------------------------------------------------===//

#include "crypto/ecdsa.h"
#include "crypto/keys.h"
#include "crypto/secp256k1.h"
#include "lf/intern.h"
#include "logic/intern.h"
#include "logic/proposition.h"
#include "support/rng.h"

#include <benchmark/benchmark.h>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

U256 randomScalar(Rng &R) {
  U256 Out;
  for (int I = 0; I < 4; ++I)
    Out.Limbs[I] = R.next();
  return Secp256k1::instance().scalar().reduce(Out);
}

void BM_FieldMul(benchmark::State &State) {
  Rng R(7);
  FieldElement A = FieldElement::fromU256(randomScalar(R));
  FieldElement B = FieldElement::fromU256(randomScalar(R));
  for (auto _ : State) {
    A = A * B;
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldSqr(benchmark::State &State) {
  // The square-root chain in Secp256k1::parse is 253 of these to 13
  // multiplies, so this row, not BM_FieldMul, sets its cost.
  Rng R(7);
  FieldElement A = FieldElement::fromU256(randomScalar(R));
  for (auto _ : State) {
    A = A.sqr();
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_FieldSqr);

void BM_ScalarOrderMul(benchmark::State &State) {
  // The order ring n runs on ModArith's Montgomery multiply: the
  // baseline the 5x52 field rows are compared against.
  const ModArith &Fn = Secp256k1::instance().scalar();
  Rng R(8);
  U256 A = randomScalar(R), B = randomScalar(R);
  for (auto _ : State) {
    A = Fn.montMul(A, B);
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_ScalarOrderMul);

void BM_MultiplyBase(benchmark::State &State) {
  const Secp256k1 &C = Secp256k1::instance();
  Rng R(9);
  U256 K = randomScalar(R);
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.multiplyBase(K));
  }
}
BENCHMARK(BM_MultiplyBase);

void BM_MultiplyBaseNaive(benchmark::State &State) {
  const Secp256k1 &C = Secp256k1::instance();
  Rng R(9);
  U256 K = randomScalar(R);
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.multiplyNaive(K, C.generator()));
  }
}
BENCHMARK(BM_MultiplyBaseNaive);

void BM_Multiply(benchmark::State &State) {
  const Secp256k1 &C = Secp256k1::instance();
  Rng R(10);
  U256 K = randomScalar(R);
  AffinePoint P = C.multiplyBase(randomScalar(R));
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.multiply(K, P));
  }
}
BENCHMARK(BM_Multiply);

void BM_MultiplyNaive(benchmark::State &State) {
  const Secp256k1 &C = Secp256k1::instance();
  Rng R(10);
  U256 K = randomScalar(R);
  AffinePoint P = C.multiplyBase(randomScalar(R));
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.multiplyNaive(K, P));
  }
}
BENCHMARK(BM_MultiplyNaive);

void BM_DoubleMultiply(benchmark::State &State) {
  const Secp256k1 &C = Secp256k1::instance();
  Rng R(11);
  U256 A = randomScalar(R), B = randomScalar(R);
  AffinePoint P = C.multiplyBase(randomScalar(R));
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.doubleMultiply(A, B, P));
  }
}
BENCHMARK(BM_DoubleMultiply);

void BM_DoubleMultiplyNaive(benchmark::State &State) {
  const Secp256k1 &C = Secp256k1::instance();
  Rng R(11);
  U256 A = randomScalar(R), B = randomScalar(R);
  AffinePoint P = C.multiplyBase(randomScalar(R));
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.doubleMultiplyNaive(A, B, P));
  }
}
BENCHMARK(BM_DoubleMultiplyNaive);

void BM_EcdsaSign(benchmark::State &State) {
  Rng R(12);
  PrivateKey Key = PrivateKey::generate(R);
  Digest32 Hash = sha256({0x74, 0x78});
  for (auto _ : State) {
    benchmark::DoNotOptimize(Key.sign(Hash));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State &State) {
  // The verify alone: the key is decompressed once, outside the loop
  // (BM_PublicKeyDecompress prices that).
  Rng R(13);
  PrivateKey Key = PrivateKey::generate(R);
  Digest32 Hash = sha256({0x74, 0x78});
  Signature Sig = Key.sign(Hash);
  AffinePoint Point = Key.publicKey().point();
  for (auto _ : State) {
    benchmark::DoNotOptimize(ecdsaVerify(Point, Hash, Sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_PublicKeyParse(benchmark::State &State) {
  // Compressed-key validation: a Jacobi symbol of x^3 + 7, no square
  // root. Every Typecoin output names its owner this way, so each
  // decoded output pays this.
  Rng R(14);
  Bytes Enc = PrivateKey::generate(R).publicKey().serialize();
  for (auto _ : State) {
    benchmark::DoNotOptimize(PublicKey::parse(Enc));
  }
}
BENCHMARK(BM_PublicKeyParse);

void BM_PublicKeyDecompress(benchmark::State &State) {
  // The same encoding decoded to its curve point: one field square
  // root. A sigcache miss and an affirmation check pay this before they
  // verify.
  Rng R(14);
  Bytes Enc = PrivateKey::generate(R).publicKey().serialize();
  const Secp256k1 &C = Secp256k1::instance();
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.parse(Enc));
  }
}
BENCHMARK(BM_PublicKeyDecompress);

/// Depth-10 proposition whose left and right children are the same
/// node at every level — 2^10 leaves structurally, 11 unique nodes.
logic::PropPtr deepSharedProp() {
  auto K = lf::principal("00112233445566778899aabbccddeeff00112233");
  logic::PropPtr P =
      logic::pSays(K, logic::pReceipt(nullptr, 42, K));
  for (int I = 0; I < 10; ++I)
    P = logic::pTensor(P, P);
  return P;
}

void BM_PropDigestDeep(benchmark::State &State) {
  bool Intern = State.range(0) != 0;
  lf::setInternEnabled(Intern);
  logic::internClearAll();
  for (auto _ : State) {
    // Rebuild each iteration: with interning the rebuild converges to
    // the cached canonical node and the digest is a memo read; without
    // it, every iteration re-serializes and re-hashes the whole tree.
    benchmark::DoNotOptimize(logic::propDigest(deepSharedProp()));
  }
  lf::setInternEnabled(false);
  logic::internClearAll();
}
BENCHMARK(BM_PropDigestDeep)->Arg(0)->Arg(1);

void BM_PropEqualDeep(benchmark::State &State) {
  bool Intern = State.range(0) != 0;
  lf::setInternEnabled(Intern);
  logic::internClearAll();
  logic::PropPtr A = deepSharedProp();
  logic::PropPtr B = deepSharedProp();
  for (auto _ : State) {
    benchmark::DoNotOptimize(logic::propEqual(A, B));
  }
  lf::setInternEnabled(false);
  logic::internClearAll();
}
BENCHMARK(BM_PropEqualDeep)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
