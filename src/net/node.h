//===- net/node.h - The concurrent P2P runtime ------------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// NetNode: a full Typecoin node (\ref tc::Node) driven by a real
/// message-passing runtime over an injectable \ref Transport.
///
/// Protocol surface (net/wire.h): Version/Verack handshake with
/// self-connection detection, Ping/Pong liveness, Inv/GetData gossip
/// with per-peer known-inventory dedup, headers-first initial block
/// sync (GetHeaders/Headers with block locators, then batched body
/// fetch), and BIP 152-style compact-block relay (CmpctBlock short ids
/// reconstructed from the mempool, GetBlockTxn/BlockTxn fallback for
/// the misses, full-block re-request on reconstruction mismatch).
///
/// Two execution modes share every message handler:
///
///  * **Threaded** (\ref start / \ref stop): an acceptor/timer thread
///    plus one thread per peer, each blocking in
///    Connection::waitReadable and draining frames into the handlers
///    under the node's state lock. Liveness timers (handshake timeout,
///    ping schedule) run on the acceptor thread's cadence.
///  * **Pumped** (\ref pump): single-threaded and deterministic — one
///    call accepts pending inbound connections, drains every peer in
///    id order, and runs the timers once against the injected \ref
///    Clock. The cluster harness (net/cluster.h) drives this mode with
///    a VirtualClock for reproducible chaos runs.
///
/// Misbehaviour scoring: an invalid block or a poisoned frame stream
/// costs 100 points and the ban threshold is 100, so one provably-bad
/// relay disconnects and bans the sender (by address, refusing future
/// dials).
///
/// A crash is the node's destruction: its connections close and its
/// volatile state goes with it. A restart is a new NetNode on the same
/// address whose tc::Node reopens its store (tc::Node::openStore); the
/// handshake's GetHeaders then catches it up on what it missed.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_NET_NODE_H
#define TYPECOIN_NET_NODE_H

#include "net/peer.h"
#include "net/transport.h"
#include "typecoin/node.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace typecoin {
namespace net {

/// `$TYPECOIN_NET_THREADS`: cap on peer service threads in threaded
/// mode (0 / unset = one thread per peer, uncapped).
size_t netThreadsFromEnv();
/// `$TYPECOIN_COMPACT_RELAY`: "0" / "off" / "false" disables
/// compact-block relay (full Inv/GetData/Block relay only); anything
/// else — including unset — leaves it on.
bool compactRelayFromEnv();
/// `$TYPECOIN_NET_LISTEN`: transport address this process listens on
/// (default "node0"). Consumed by tools/tcnet; library code takes the
/// address explicitly.
std::string netListenFromEnv();
/// `$TYPECOIN_NET_CONNECT`: comma-separated transport addresses to
/// dial at startup (default empty). Consumed by tools/tcnet.
std::vector<std::string> netConnectFromEnv();

/// Tuning for one NetNode.
struct NetConfig {
  uint64_t Services = ServiceCompactRelay;
  /// Announce blocks as compact blocks to peers that negotiated
  /// ServiceCompactRelay (sender side; receivers always understand
  /// CmpctBlock). Defaults from $TYPECOIN_COMPACT_RELAY.
  bool CompactRelay = true;
  int BanThreshold = 100;
  size_t OrphanLimit = 64;
  /// Outstanding body requests per peer during headers-first sync.
  size_t MaxBlocksInFlight = 16;
  /// Cap on bodies queued (accepted headers awaiting a GetData slot)
  /// per peer; headers beyond it are re-fetched on the next GetHeaders
  /// round instead of growing the queue without bound.
  size_t MaxBodiesQueued = 1024;
  PeerTimers Timers;
  /// Seeds the node's nonce generator (handshake nonces, compact-block
  /// announcement nonces) — deterministic runs stay deterministic.
  uint64_t Seed = 0;
  std::string UserAgent = "/typecoin-net:0.1/";
  int RegistrationDepth = 1;
};

/// A Typecoin full node on the wire.
class NetNode {
public:
  /// \p Trans is this node's listening transport (already bound);
  /// \p Clk outlives the node and is shared with the transport's fault
  /// wrappers so jitter and timers agree on "now".
  NetNode(bitcoin::ChainParams Params, NetConfig Cfg,
          std::unique_ptr<Transport> Trans, std::shared_ptr<Clock> Clk);
  ~NetNode();

  NetNode(const NetNode &) = delete;
  NetNode &operator=(const NetNode &) = delete;

  std::string address() const { return Trans->listenAddress(); }

  /// The embedded full node. External mutation bypasses announcement —
  /// use the submit/mine entry points below for anything that should
  /// relay.
  tc::Node &typecoin() { return *Tc; }
  const tc::Node &typecoin() const { return *Tc; }
  const bitcoin::Blockchain &chain() const { return Tc->chain(); }
  const bitcoin::Mempool &mempool() const { return Tc->mempool(); }

  /// Locked snapshots of the chain tip for polling while service
  /// threads are running — the bare chain() reference is only safe
  /// when no threads mutate the node (pumped mode, or after stop()).
  int chainHeight() const;
  bitcoin::BlockHash chainTip() const;

  // --- Connections ------------------------------------------------------

  /// Dial \p Addr and start the handshake. Returns the peer id.
  Result<uint64_t> connectTo(const std::string &Addr);

  size_t peerCount() const;
  /// Peers that completed the Version/Verack handshake.
  size_t readyPeerCount() const;
  /// Is there a live (non-disconnected) connection to \p Addr?
  bool connectedTo(const std::string &Addr) const;

  int banScore(const std::string &Addr) const;
  bool isBanned(const std::string &Addr) const;

  // --- Local traffic (validates, then announces) ------------------------

  /// Admit a plain Bitcoin transaction to the mempool and announce it.
  Status submitTransaction(const bitcoin::Transaction &Tx);
  /// Submit a Typecoin pair (journal + mempool) and announce its
  /// carrier. Resubmissions from tc::Node::tick re-announce through the
  /// relay hook automatically.
  Status submitPair(const tc::Pair &P);
  /// Mine one block on the current tip and announce it (compact where
  /// negotiated).
  Result<bitcoin::Block> mine(const crypto::KeyId &Payout, uint32_t Time);

  // --- Execution --------------------------------------------------------

  /// Deterministic single-threaded step: accept pending inbound
  /// connections, drain every peer's frames through the handlers in
  /// peer-id order, run liveness timers at Clk->now(). Returns the
  /// number of frames processed (0 = quiescent).
  size_t pump();

  /// Start threaded mode: an acceptor/timer thread plus per-peer
  /// service threads (capped by \p MaxThreads; 0 = uncapped, one per
  /// peer — peers beyond the cap are served round-robin by the
  /// acceptor thread). Idempotent.
  void start(size_t MaxThreads = 0);
  /// Stop threads and join them. Connections stay open (stop is not
  /// disconnect), so pump() keeps working afterwards.
  void stop();
  bool running() const { return Running.load(); }

  /// Drive resubmission backoff (tc::Node::tick) and announce whatever
  /// it resubmits. Threaded mode calls this from the timer thread;
  /// pumped mode from pump().
  size_t tick(double Now);

  /// Re-announce our tip and re-request headers on every ready peer —
  /// the recovery nudge after a partition heals or fault plans clear
  /// (lost announcements never retransmit themselves).
  void resync();

  /// Number of orphan blocks parked waiting for parents.
  size_t orphanCount() const;

private:
  struct OrphanEntry {
    bitcoin::Block Blk;
    uint64_t Seq = 0;
  };

  // Locking: NodeMu guards everything below it plus the embedded
  // tc::Node. Handlers never call back into locked entry points;
  // *Locked helpers assume the lock is held.

  std::shared_ptr<Peer> addPeerLocked(std::shared_ptr<Connection> C,
                                      bool Inbound);
  void sendLocked(Peer &P, const Message &M);
  void disconnectLocked(Peer &P, const char *Why);
  void penalizeLocked(Peer &P, int Points, const char *Why);
  void reapLocked();

  /// Drain every decodable frame from \p P through the handlers.
  /// Returns frames processed.
  size_t drainPeerLocked(const std::shared_ptr<Peer> &P);
  size_t acceptPendingLocked();
  void timersLocked(double Now);

  void handleLocked(Peer &P, Message M);
  void handleVersion(Peer &P, const VersionMsg &M);
  void handleInv(Peer &P, const InvMsg &M);
  void handleGetData(Peer &P, const GetDataMsg &M);
  void handleGetHeaders(Peer &P, const GetHeadersMsg &M);
  void handleHeaders(Peer &P, const HeadersMsg &M);
  void handleTx(Peer &P, const TxMsg &M);
  void handleBlock(Peer &P, const BlockMsg &M);
  void handleCmpctBlock(Peer &P, const CmpctBlockMsg &M);
  void handleGetBlockTxn(Peer &P, const GetBlockTxnMsg &M);
  void handleBlockTxn(Peer &P, BlockTxnMsg M);

  void onHandshakeComplete(Peer &P);
  std::vector<bitcoin::BlockHash> locatorLocked() const;
  void sendGetHeadersLocked(Peer &P);
  void requestBodiesLocked(Peer &P);

  /// A block arrived (full, reconstructed, or orphan-released). Accepts
  /// it into the chain, frees dependent orphans, announces the new tip.
  /// \p FromCompact suppresses the misbehaviour penalty on failure (a
  /// short-id collision corrupts reconstruction through no fault of the
  /// sender) and falls back to a full-block GetData instead.
  void acceptBlockLocked(Peer *From, const bitcoin::Block &B,
                         bool FromCompact);
  void addOrphanLocked(Peer &From, const bitcoin::Block &B);
  void announceTxLocked(const bitcoin::Transaction &Tx, Peer *Skip);
  void announceBlockLocked(const bitcoin::Block &B, Peer *Skip);
  CmpctBlockMsg buildCompactLocked(const bitcoin::Block &B);

  void acceptorLoop();
  void peerLoop(std::shared_ptr<Peer> P);
  /// Join and drop the handles of peer threads that have exited, so a
  /// churning peer set does not pin thread slots until stop().
  void reapThreadsLocked();

  NetConfig Cfg;
  std::unique_ptr<Transport> Trans;
  std::shared_ptr<Clock> Clk;
  std::unique_ptr<tc::Node> Tc;

  mutable std::mutex NodeMu;
  std::map<uint64_t, std::shared_ptr<Peer>> Peers;
  uint64_t NextPeerId = 1;
  Rng Nonces;
  uint64_t SelfNonce = 0; ///< Detects dialing ourselves.
  std::map<std::string, int> BanScores;
  std::multimap<bitcoin::BlockHash, OrphanEntry> Orphans;
  uint64_t NextOrphanSeq = 0;
  /// Blocks requested from any peer (suppresses duplicate GetData).
  std::set<bitcoin::BlockHash> BlocksInFlight;

  std::atomic<bool> Running{false};
  std::vector<std::thread> Threads;
  /// Ids of peer threads that finished their loop and are ready to
  /// join (the exiting thread cannot join itself).
  std::vector<std::thread::id> ExitedThreads;
  size_t MaxThreads = 0;
  size_t PeerThreads = 0; ///< Dedicated peer threads currently live.
};

} // namespace net
} // namespace typecoin

#endif // TYPECOIN_NET_NODE_H
