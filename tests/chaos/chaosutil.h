//===- tests/chaos/chaosutil.h - Shared chaos-suite helpers -----*- C++ -*-===//
//
// Helpers for the fault-injection suite: deterministic keys, explicit
// side-branch mining, Typecoin pair construction against an arbitrary
// chain view, and replay-header logging so every failure is
// reproducible from the ctest log alone (support/replay.h).
//
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_TESTS_CHAOS_CHAOSUTIL_H
#define TYPECOIN_TESTS_CHAOS_CHAOSUTIL_H

#include "bitcoin/miner.h"
#include "support/replay.h"
#include "support/rng.h"
#include "typecoin/builder.h"

#include <gtest/gtest.h>

namespace typecoin {
namespace chaosutil {

inline bitcoin::ChainParams testParams() {
  bitcoin::ChainParams P;
  P.CoinbaseMaturity = 1;
  return P;
}

inline crypto::PrivateKey keyFromSeed(uint64_t Seed) {
  Rng Rand(Seed);
  return crypto::PrivateKey::generate(Rand);
}

/// Mine a block on an explicit parent hash (side branches for reorgs).
inline bitcoin::Block
mineOn(const bitcoin::Blockchain &Chain, const bitcoin::BlockHash &Parent,
       const crypto::KeyId &Payout, uint32_t Time,
       const std::vector<bitcoin::Transaction> &Txs = {}) {
  bitcoin::Block B;
  B.Header.Prev = Parent;
  B.Header.Time = Time;
  B.Header.Bits = Chain.params().GenesisBits;

  bitcoin::Transaction Coinbase;
  bitcoin::TxIn In;
  In.Prevout = bitcoin::OutPoint::null();
  bitcoin::Script Tag;
  Tag.pushInt(static_cast<int64_t>(Time)); // Unique per block.
  In.ScriptSig = Tag;
  Coinbase.Inputs.push_back(std::move(In));
  Coinbase.Outputs.push_back(
      bitcoin::TxOut{Chain.params().Subsidy, bitcoin::makeP2PKH(Payout)});
  B.Txs.push_back(std::move(Coinbase));
  for (const bitcoin::Transaction &Tx : Txs)
    B.Txs.push_back(Tx);
  B.updateMerkleRoot();
  EXPECT_TRUE(bitcoin::mineBlock(B));
  return B;
}

/// A wallet-backed principal for pair construction.
struct Actor {
  tc::Wallet Wallet;
  crypto::PrivateKey Key;

  explicit Actor(uint64_t Seed) : Wallet(Seed), Key(Wallet.newKey()) {}
  crypto::KeyId id() const { return Key.id(); }
  const crypto::PublicKey &pub() const { return Key.publicKey(); }
};

/// Build (without submitting) a grant pair against \p Chain: declare a
/// prop family \p Name, grant one atom of it to \p To, funded and fee'd
/// from \p Issuer's wallet. The issuer needs a mature, unspent output.
inline Result<tc::Pair> buildGrantPair(Actor &Issuer, const char *Name,
                                       const crypto::PublicKey &To,
                                       const bitcoin::Blockchain &Chain,
                                       bitcoin::Amount Amount = 10000) {
  tc::Transaction T;
  TC_TRY(T.LocalBasis.declareFamily(lf::ConstName::local(Name), lf::kProp()));
  T.Grant = logic::pAtom(lf::tConst(lf::ConstName::local(Name)));

  // Use the largest spendable as the trivial input: typed embed outputs
  // the issuer received earlier are small, coinbases are not, and a
  // typed output must not be claimed at type 1.
  auto Spendable = Issuer.Wallet.findSpendable(Chain);
  if (Spendable.empty())
    return makeError("chaosutil: issuer has no spendable output");
  const auto *Best = &Spendable[0];
  for (const auto &S : Spendable)
    if (S.Value > Best->Value)
      Best = &S;
  tc::Input In;
  In.SourceTxid = Best->Point.Tx.toHex();
  In.SourceIndex = Best->Point.Index;
  In.Type = logic::pOne();
  In.Amount = Best->Value;
  T.Inputs.push_back(std::move(In));

  tc::Output Out;
  Out.Type = T.Grant;
  Out.Amount = Amount;
  Out.Owner = To;
  T.Outputs.push_back(std::move(Out));

  using namespace logic;
  T.Proof = mLam(
      "x", pTensor(T.Grant, pTensor(T.inputTensor(), T.receiptTensor())),
      mTensorLet("c", "ar", mVar("x"),
                 mTensorLet("a", "r", mVar("ar"),
                            mOneLet(mVar("a"), mVar("c")))));
  return tc::buildPair(T, Issuer.Wallet, Chain);
}

/// Announce the replay header for a scenario — on stderr via the
/// `[chaos]` diagnostic channel (support/diag.h), so a failing
/// `ctest --output-on-failure` log carries the exact reproduction
/// command without interleaving with gtest's stdout.
inline void announce(const std::string &Scenario, uint64_t Seed,
                     const std::string &Plan) {
  announceChaos(Scenario, Seed, Plan);
}

} // namespace chaosutil
} // namespace typecoin

#endif // TYPECOIN_TESTS_CHAOS_CHAOSUTIL_H
