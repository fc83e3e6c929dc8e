//===- net/fault.h - Chaos plans as a transport wrapper ---------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault injection for the P2P runtime: per-link \ref FaultPlan (drop /
/// duplicate / jitter) and per-node \ref ByzantinePlan (invalid-block and
/// malleated-transaction relay), applied by a \ref Transport decorator
/// so every chaos scenario exercises the wire codec, compact relay and
/// headers-first sync that production runs.
///
/// One \ref ChaosState is shared by every \ref ChaosTransport of a
/// scenario: it holds the mutable plan table (plans may change mid-run,
/// e.g. cleared to quiesce a chaos run before checking convergence),
/// the partition predicate, and the release schedule of jittered frames
/// so a deterministic driver can advance a VirtualClock straight to the
/// next delivery.
///
/// Fault application is receiver-side (frames are pulled from the inner
/// connection and then dropped / duplicated / delayed under the plan of
/// the directed link), byzantine corruption is sender-side (outbound
/// frames are decoded, mangled, re-encoded). Every draw comes from a
/// per-directed-link PRNG seeded from (scenario seed, from, to), so
/// outcomes are independent of thread interleaving: the same seed
/// produces the same drops on every run, threaded or pumped.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_NET_FAULT_H
#define TYPECOIN_NET_FAULT_H

#include "bitcoin/block.h"
#include "net/transport.h"

#include <optional>
#include <set>

namespace typecoin {
namespace net {

/// Fault injection for one directed link (or, as the default plan, for
/// every link). Probabilities are per frame.
struct FaultPlan {
  /// Probability a frame is silently dropped.
  double Drop = 0.0;
  /// Probability a frame is delivered twice (each copy jittered
  /// independently).
  double Duplicate = 0.0;
  /// Extra uniform delay in [0, JitterSeconds) before a frame is
  /// released to the receiver; different draws reorder frames relative
  /// to send order.
  double JitterSeconds = 0.0;

  bool isClean() const {
    return Drop == 0.0 && Duplicate == 0.0 && JitterSeconds == 0.0;
  }
  /// Human-readable summary for chaos replay headers.
  std::string describe() const;
};

/// Automatic misbehaviour for a byzantine peer. The malleated-relay
/// behaviour follows Andrychowicz et al., "How to deal with malleability
/// of BitCoin transactions": the byzantine peer re-signs nothing, it
/// merely flips each ECDSA `s` to `n - s` in the scriptSigs it relays —
/// the result is an equally valid transaction with a different txid that
/// races the original as a double-spend of the same outpoints.
struct ByzantinePlan {
  /// Probability a relayed block is replaced with a structurally
  /// invalid copy (corrupted Merkle root, PoW re-ground).
  double InvalidBlock = 0.0;
  /// Probability a relayed transaction is replaced with its
  /// signature-malleated twin.
  double MalleateRelay = 0.0;

  std::string describe() const;
};

/// Flip the ECDSA `s` component of every signature found in \p Tx's
/// input scripts to `n - s` (the classic malleation of Andrychowicz et
/// al.). Returns std::nullopt when no signature could be malleated. The
/// result verifies under the same keys but has a different txid.
std::optional<bitcoin::Transaction>
malleateTxSignatures(const bitcoin::Transaction &Tx);

/// The invalid block a byzantine peer emits in place of a valid relay:
/// same parent and payload claim, corrupted Merkle root, PoW re-ground
/// so only full validation exposes it.
bitcoin::Block byzantineCorruptBlock(bitcoin::Block B);

/// Shared, mutable chaos configuration for one scenario.
class ChaosState {
public:
  explicit ChaosState(uint64_t Seed) : Seed(Seed) {}

  // --- Plan table ------------------------------------------------------

  void setDefaultFault(const FaultPlan &Plan);
  void setLinkFault(const std::string &From, const std::string &To,
                    const FaultPlan &Plan);
  void clearFaults();

  void setByzantine(const std::string &Addr, const ByzantinePlan &Plan);

  /// Sever every link crossing \p GroupA vs the rest (frames crossing
  /// the cut are dropped at delivery).
  void partition(std::set<std::string> GroupA);
  void heal();

  /// The effective plan for the directed link \p From -> \p To (a
  /// partition cut reports an unconditional drop).
  FaultPlan planFor(const std::string &From, const std::string &To) const;
  std::optional<ByzantinePlan> byzantineFor(const std::string &Addr) const;

  /// Deterministic per-directed-link seed.
  uint64_t linkSeed(const std::string &From, const std::string &To) const;

  // --- Jitter release schedule -----------------------------------------

  void addPendingRelease(double T);
  void removePendingRelease(double T);
  /// Earliest scheduled release of a jitter-delayed frame, if any — the
  /// deterministic driver advances its VirtualClock here when pumping
  /// makes no progress.
  std::optional<double> nextRelease() const;

private:
  mutable std::mutex Mu;
  uint64_t Seed;
  FaultPlan Default;
  std::map<std::pair<std::string, std::string>, FaultPlan> Links;
  std::map<std::string, ByzantinePlan> Byzantine;
  std::optional<std::set<std::string>> PartitionA;
  std::multiset<double> Pending;
};

/// Wrap \p Inner so every connection it produces applies \p Chaos:
/// receive-side drop/dup/jitter per the directed link's plan, send-side
/// byzantine mangling when this endpoint has a ByzantinePlan.
class ChaosTransport : public Transport {
public:
  ChaosTransport(std::unique_ptr<Transport> Inner,
                 std::shared_ptr<ChaosState> Chaos, const Clock &Clk);
  ~ChaosTransport() override;

  std::string listenAddress() const override;
  Result<std::shared_ptr<Connection>> connect(
      const std::string &Addr) override;
  std::shared_ptr<Connection> accept() override;

private:
  std::shared_ptr<Connection> wrap(std::shared_ptr<Connection> C);

  std::unique_ptr<Transport> Inner;
  std::shared_ptr<ChaosState> Chaos;
  const Clock &Clk;
};

} // namespace net
} // namespace typecoin

#endif // TYPECOIN_NET_FAULT_H
