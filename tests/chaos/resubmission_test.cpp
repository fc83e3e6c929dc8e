//===- tests/chaos/resubmission_test.cpp - Bounded-backoff resubmission ---===//
//
// Delivery safety for the write path: tc::Node keeps every journaled
// pair in a retry queue until its carrier confirms, resubmitting on
// tick() with bounded exponential backoff; services::BatchServer defers
// transiently unsubmittable write-throughs (Section 5 requires them to
// reach the blockchain) and drains them the same way.
//
//===----------------------------------------------------------------------===//

#include "chaosutil.h"

#include "obs/metrics.h"
#include "services/batchserver.h"

using namespace typecoin;
using namespace typecoin::chaosutil;

namespace {

class Resubmission : public ::testing::Test {
protected:
  Resubmission() : Alice(6001) {
    for (int I = 0; I < 3; ++I) {
      Clock += 600;
      EXPECT_TRUE(Node.mineBlock(Alice.id(), Clock).hasValue());
    }
    Clock += 600;
    EXPECT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  }

  tc::Node Node;
  Actor Alice;
  uint32_t Clock = 0;
};

TEST(RetryJitter, ZeroFractionPreservesTheExactSchedule) {
  tc::RetryPolicy P;
  P.InitialDelaySeconds = 2;
  P.BackoffFactor = 2;
  P.MaxDelaySeconds = 16;
  // The default JitterFraction = 0 keeps simulation timelines
  // byte-stable: the schedule is exactly the capped exponential.
  EXPECT_EQ(tc::retryDelay(P, 1), 2.0);
  EXPECT_EQ(tc::retryDelay(P, 2), 4.0);
  EXPECT_EQ(tc::retryDelay(P, 3), 8.0);
  EXPECT_EQ(tc::retryDelay(P, 4), 16.0);
  EXPECT_EQ(tc::retryDelay(P, 5), 16.0); // Capped.
  // The key is irrelevant without jitter.
  EXPECT_EQ(tc::retryDelay(P, 2, "a"), tc::retryDelay(P, 2, "b"));
}

TEST(RetryJitter, JitterIsDeterministicKeyedAndBounded) {
  tc::RetryPolicy P;
  P.InitialDelaySeconds = 2;
  P.BackoffFactor = 2;
  P.MaxDelaySeconds = 64;
  P.JitterFraction = 0.25;
  P.JitterSeed = 42;

  double D = tc::retryDelay(P, 1, "keyA");
  // Deterministic: same (policy, attempt, key) → same delay, always.
  EXPECT_EQ(D, tc::retryDelay(P, 1, "keyA"));
  // Keyed: distinct items de-synchronize (the post-recovery stampede).
  EXPECT_NE(D, tc::retryDelay(P, 1, "keyB"));
  // Seeded: a different deployment jitters differently.
  tc::RetryPolicy Q = P;
  Q.JitterSeed = 43;
  EXPECT_NE(D, tc::retryDelay(Q, 1, "keyA"));
  // Bounded: within [base(1-J), base(1+J)] of the unjittered schedule.
  for (int Attempt = 1; Attempt <= 6; ++Attempt) {
    tc::RetryPolicy Exact = P;
    Exact.JitterFraction = 0;
    double B = tc::retryDelay(Exact, Attempt);
    double J = tc::retryDelay(P, Attempt, "keyA");
    EXPECT_GE(J, B * 0.75) << "attempt " << Attempt;
    EXPECT_LE(J, B * 1.25) << "attempt " << Attempt;
  }
}

TEST_F(Resubmission, ResubmissionCountersTrackAttemptsAndExhaustion) {
  tc::RetryPolicy Policy;
  Policy.InitialDelaySeconds = 2;
  Policy.BackoffFactor = 2;
  Policy.MaxDelaySeconds = 4;
  Policy.MaxAttempts = 3;
  Node.setRetryPolicy(Policy);

  uint64_t Attempts0 = obs::counter("node.resubmit.attempts").value();
  uint64_t Exhausted0 = obs::counter("node.resubmit.exhausted").value();

  auto P = buildGrantPair(Alice, "counted", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  double T0 = static_cast<double>(Node.now());
  EXPECT_EQ(Node.tick(T0 + 3), 1u);   // Attempt 2.
  EXPECT_EQ(Node.tick(T0 + 100), 1u); // Attempt 3 = MaxAttempts.
  EXPECT_EQ(Node.tick(T0 + 1000), 0u);

  EXPECT_EQ(obs::counter("node.resubmit.attempts").value() - Attempts0, 2u);
  EXPECT_EQ(obs::counter("node.resubmit.exhausted").value() - Exhausted0,
            1u);
}

TEST_F(Resubmission, TickFollowsExponentialBackoffAndGivesUp) {
  tc::RetryPolicy Policy;
  Policy.InitialDelaySeconds = 2;
  Policy.BackoffFactor = 2;
  Policy.MaxDelaySeconds = 16;
  Policy.MaxAttempts = 4;
  Node.setRetryPolicy(Policy);

  size_t Relayed = 0;
  Node.setRelay([&Relayed](const tc::Pair &) { ++Relayed; });

  auto P = buildGrantPair(Alice, "ticket", Alice.pub(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  std::string Payload = tc::payloadKey(*P);
  EXPECT_EQ(Node.attemptsOf(Payload), 1); // The initial submission.

  double T0 = static_cast<double>(Node.now());
  // Before the first deadline (T0 + 2): nothing happens.
  EXPECT_EQ(Node.tick(T0 + 1), 0u);
  // After it: one resubmission, next deadline 4s out.
  EXPECT_EQ(Node.tick(T0 + 3), 1u);
  EXPECT_EQ(Node.attemptsOf(Payload), 2);
  EXPECT_EQ(Relayed, 1u);
  EXPECT_EQ(Node.tick(T0 + 3), 0u); // Backoff holds.
  EXPECT_EQ(Node.tick(T0 + 3 + 3), 0u);
  EXPECT_EQ(Node.tick(T0 + 3 + 5), 1u); // 3rd attempt; next 8s out.
  EXPECT_EQ(Node.attemptsOf(Payload), 3);
  EXPECT_EQ(Node.tick(T0 + 100), 1u); // 4th and final attempt.
  EXPECT_EQ(Node.attemptsOf(Payload), 4);
  // MaxAttempts reached: the queue holds the pair but stops retrying.
  EXPECT_EQ(Node.tick(T0 + 1000), 0u);
  EXPECT_EQ(Relayed, 3u);
  EXPECT_EQ(Node.pendingCount(), 1u);

  // Confirmation clears the queue regardless.
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  EXPECT_TRUE(Node.isRegistered(Payload));
  EXPECT_EQ(Node.pendingCount(), 0u);
  EXPECT_EQ(Node.tick(static_cast<double>(Node.now()) + 1000), 0u);
}

TEST_F(Resubmission, LateAdoptionKeepsMempoolAndRetrySchedule) {
  // P2's carrier confirms in a block this node never journaled.
  auto P2 = buildGrantPair(Alice, "late", Alice.pub(), Node.chain());
  ASSERT_TRUE(P2.hasValue()) << P2.error().message();
  Clock += 600;
  ASSERT_TRUE(Node.submitBlock(mineOn(Node.chain(), Node.chain().tipHash(),
                                      crypto::KeyId{}, Clock, {P2->Btc}))
                  .hasValue());

  // A pending pair at its first attempt, and a plain transaction
  // spending a coin neither carrier uses.
  auto P1 = buildGrantPair(Alice, "queued", Alice.pub(), Node.chain());
  ASSERT_TRUE(P1.hasValue()) << P1.error().message();
  ASSERT_TRUE(Node.submitPair(*P1).hasValue());
  std::string Key1 = tc::payloadKey(*P1);
  ASSERT_EQ(Node.attemptsOf(Key1), 1);
  bitcoin::Transaction Plain;
  for (const auto &S : Alice.Wallet.findSpendable(Node.chain())) {
    bool UsedByP1 = false;
    for (const bitcoin::TxIn &In : P1->Btc.Inputs)
      UsedByP1 |= In.Prevout == S.Point;
    if (UsedByP1)
      continue;
    Plain.Inputs.push_back(bitcoin::TxIn{S.Point, {}});
    Plain.Outputs.push_back(
        bitcoin::TxOut{S.Value - 10000, bitcoin::makeP2PKH(Alice.id())});
    break;
  }
  ASSERT_FALSE(Plain.Inputs.empty());
  ASSERT_TRUE(Alice.Wallet.signTransaction(Plain, Node.chain()).hasValue());
  ASSERT_TRUE(Node.submitPlain(Plain).hasValue());
  ASSERT_EQ(Node.mempool().size(), 2u);

  auto Before = obs::Registry::instance().snapshot();
  ASSERT_TRUE(Node.submitPair(*P2).hasValue());
  auto After = obs::Registry::instance().snapshot();

  // The adoption registers P2 and touches nothing else: the pool keeps
  // both entries, P1 keeps its schedule, and no start-up ran.
  EXPECT_TRUE(Node.isRegistered(tc::payloadKey(*P2)));
  EXPECT_TRUE(Node.mempool().contains(Plain.txid()));
  EXPECT_EQ(Node.mempool().size(), 2u);
  EXPECT_EQ(Node.attemptsOf(Key1), 1);
  for (const char *Name :
       {"mempool.clear.dropped", "node.recover.registered",
        "node.recover.requeued", "node.recover.mempool_readmitted"})
    EXPECT_EQ(After.counter(Name), Before.counter(Name)) << Name;
  EXPECT_EQ(After.counter("node.submit.late_adopted") -
                Before.counter("node.submit.late_adopted"),
            1u);
}

TEST_F(Resubmission, BatchServerDefersWriteThroughUntilFunded) {
  announce("batch-deferred-writethrough", 0, "unfunded then funded");
  services::BatchServer Server(Node, 9101);
  tc::RetryPolicy Policy;
  Policy.InitialDelaySeconds = 2;
  Policy.MaxAttempts = 8;
  Server.setRetryPolicy(Policy);

  // A resource held at the server's key.
  auto P = buildGrantPair(Alice, "res", Server.serverKey(), Node.chain());
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  ASSERT_TRUE(Node.submitPair(*P).hasValue());
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  const tc::Registration *Reg =
      Node.registrationOf(tc::payloadKey(*P));
  ASSERT_NE(Reg, nullptr);
  logic::PropPtr Res = Node.state().outputType(Reg->TxidHex, 0);

  // A write-through routing the resource to Alice. The server holds no
  // bitcoins yet, so the carrier cannot be funded — a transient
  // failure: the write must be deferred, not lost.
  tc::Transaction T;
  tc::Input In;
  In.SourceTxid = Reg->TxidHex;
  In.SourceIndex = 0;
  In.Type = Res;
  In.Amount = 10000;
  T.Inputs.push_back(In);
  tc::Output Out;
  Out.Type = Res;
  Out.Amount = 10000;
  Out.Owner = Alice.pub();
  T.Outputs.push_back(Out);
  auto Proof = tc::makeRoutingProof(T);
  ASSERT_TRUE(Proof.hasValue());
  T.Proof = *Proof;

  auto First = Server.recordWriteThrough(T);
  EXPECT_FALSE(First.hasValue());
  EXPECT_NE(First.error().message().find("deferred"), std::string::npos);
  EXPECT_EQ(Server.deferredCount(), 1u);
  EXPECT_EQ(Server.onChainTxCount(), 0u);

  // Still failing: retries back off but keep the obligation.
  double T0 = static_cast<double>(Node.now());
  EXPECT_EQ(Server.retryPending(T0 + 10), 0u);
  EXPECT_EQ(Server.deferredCount(), 1u);

  // Fund the server; the next due retry succeeds.
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(Server.serverId(), Clock).hasValue());
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  size_t Sent = Server.retryPending(static_cast<double>(Node.now()) + 100);
  EXPECT_EQ(Sent, 1u);
  EXPECT_EQ(Server.deferredCount(), 0u);
  EXPECT_EQ(Server.onChainTxCount(), 1u);

  // The routed resource confirms: Alice owns it.
  Clock += 600;
  ASSERT_TRUE(Node.mineBlock(crypto::KeyId{}, Clock).hasValue());
  EXPECT_EQ(Node.pendingCount(), 0u);
  EXPECT_EQ(Node.state().size(), 2u);
}

} // namespace
