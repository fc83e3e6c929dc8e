//===- net/cluster.h - Deterministic multi-node harness ---------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fully-meshed cluster of \ref NetNode instances over an in-process
/// \ref LoopbackHub, every link wrapped in a \ref ChaosTransport and
/// every timer driven by one shared \ref VirtualClock. Chaos scenarios
/// drive it through one surface: fault plans (setDefaultFault /
/// setLinkFault / setByzantine), partitionAt / heal, crash / restart,
/// mineAt / submitTransaction, and converged.
///
/// \ref settle pumps every node in index order until the whole cluster
/// is quiescent, advancing the virtual clock to the next jitter release
/// whenever a round makes no progress. With a fixed seed the entire run
/// — every drop, duplicate, and delivery order — replays identically.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_NET_CLUSTER_H
#define TYPECOIN_NET_CLUSTER_H

#include "net/fault.h"
#include "net/node.h"

namespace typecoin {
namespace net {

class Cluster {
public:
  /// Build \p NumNodes nodes ("node0", "node1", ...), mesh-connect
  /// them, and settle the handshakes (fault plans start clean, so the
  /// mesh always comes up).
  Cluster(bitcoin::ChainParams Params, size_t NumNodes,
          uint64_t ChaosSeed = 0, NetConfig Base = NetConfig());
  ~Cluster();

  size_t size() const { return Nodes.size(); }
  NetNode &node(size_t I) { return *Nodes[I]; }
  const NetNode &node(size_t I) const { return *Nodes[I]; }
  const bitcoin::Blockchain &chain(size_t I) const {
    return Nodes[I]->chain();
  }
  const bitcoin::Mempool &mempool(size_t I) const {
    return Nodes[I]->mempool();
  }
  static std::string addressOf(size_t I) {
    return "node" + std::to_string(I);
  }

  // --- Chaos surface ----------------------------------------------------

  void setDefaultFault(const FaultPlan &Plan);
  void setLinkFault(size_t From, size_t To, const FaultPlan &Plan);
  /// Clear all plans and nudge every node to re-sync (lost
  /// announcements do not retransmit themselves).
  void clearFaults();
  void setByzantine(size_t Node, const ByzantinePlan &Plan);

  /// Sever links crossing {nodes < Boundary} vs the rest.
  void partitionAt(size_t Boundary);
  /// Restore the mesh: lift the partition, re-dial links that timed out
  /// across the cut, and re-sync both sides.
  void heal();

  void crash(size_t Node);
  bool isCrashed(size_t Node) const { return Nodes[Node]->isCrashed(); }
  /// Recover the node and re-dial its mesh links; the handshake's
  /// GetHeaders catches it up on what it missed.
  Status restart(size_t Node);

  // --- Traffic ----------------------------------------------------------

  Status submitTransaction(size_t Node, const bitcoin::Transaction &Tx);
  /// Advance the clock to \p Now, then mine at \p Node and announce.
  Result<bitcoin::Block> mineAt(size_t Node, const crypto::KeyId &Payout,
                                double Now);

  /// Pump all nodes round-robin until quiescent (advancing the virtual
  /// clock to pending jitter releases as needed). Returns rounds used.
  size_t settle(size_t MaxRounds = 100000);

  /// Advance the virtual clock (timers fire on the next settle/pump).
  void advance(double Seconds);
  double now() const { return Clk->now(); }

  bool converged() const;
  bool convergedAmong(const std::vector<size_t> &Among) const;

  ChaosState &chaos() { return *Chaos; }
  VirtualClock &clock() { return *Clk; }

private:
  void resyncAll();
  void reconnectMesh();

  LoopbackHub Hub;
  std::shared_ptr<VirtualClock> Clk;
  std::shared_ptr<ChaosState> Chaos;
  std::vector<std::unique_ptr<NetNode>> Nodes;
};

} // namespace net
} // namespace typecoin

#endif // TYPECOIN_NET_CLUSTER_H
