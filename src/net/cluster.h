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
/// Each node owns a durable store on a \ref store::MemVfs the cluster
/// attaches at construction (tc::Node::openStore). \ref crash destroys
/// the node and cuts power to that disk, so only what was synced
/// survives; \ref restart builds a new node on the same address and
/// reopens the disk, the path a real restart takes.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_NET_CLUSTER_H
#define TYPECOIN_NET_CLUSTER_H

#include "net/fault.h"
#include "net/node.h"
#include "store/vfs.h"

namespace typecoin {
namespace net {

class Cluster {
public:
  /// Build \p NumNodes nodes ("node0", "node1", ...), attach each to
  /// its own empty disk, mesh-connect them, and settle the handshakes
  /// (fault plans start clean, so the mesh always comes up).
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

  /// Destroy the node and cut power to its disk. Until \ref restart,
  /// only isCrashed and restart may name the node.
  void crash(size_t Node);
  bool isCrashed(size_t Node) const { return !Nodes[Node]; }
  /// Build the node anew on its address, reopen its disk, and re-dial
  /// its mesh links; the handshake's GetHeaders catches it up on what
  /// it missed. A no-op for a live node.
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
  /// Build node \p I on its address and open its disk.
  Status boot(size_t I);
  void resyncAll();
  void reconnectMesh();

  bitcoin::ChainParams Params;
  NetConfig Base;
  LoopbackHub Hub;
  std::shared_ptr<VirtualClock> Clk;
  std::shared_ptr<ChaosState> Chaos;
  /// Declared before the nodes, whose stores write to them.
  std::vector<store::MemVfs> Disks;
  std::vector<std::unique_ptr<NetNode>> Nodes; ///< nullptr while crashed.
};

} // namespace net
} // namespace typecoin

#endif // TYPECOIN_NET_CLUSTER_H
