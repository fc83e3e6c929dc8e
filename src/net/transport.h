//===- net/transport.h - Injectable P2P transport ---------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport seam of the P2P runtime: \ref NetNode speaks to peers
/// through the abstract \ref Transport / \ref Connection pair, so the
/// same message loop runs over
///
///  * \ref LoopbackHub — an in-process, mutex-guarded frame switch that
///    keeps multi-node tests deterministic and fast;
///  * the fault-injecting chaos wrappers (net/fault.h), which apply a
///    FaultPlan / ByzantinePlan over any inner transport; and
///  * (future) a real socket transport — nothing in the runtime assumes
///    in-process delivery.
///
/// Connections are *frame-oriented with reliable FIFO ordering*: one
/// send() carries exactly one encoded frame (net/wire.h) and frames
/// arrive in send order unless a chaos wrapper reorders them. receive()
/// is a non-blocking poll; waitReadable() lets the thread-per-peer loop
/// park without spinning. Time is injected through \ref Clock so the
/// deterministic pump mode (tests, bench) and the threaded mode (real
/// runtime) share every timer and jitter computation.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_NET_TRANSPORT_H
#define TYPECOIN_NET_TRANSPORT_H

#include "support/bytes.h"
#include "support/result.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

namespace typecoin {
namespace net {

/// Time source for the runtime, in seconds. The threaded mode uses
/// \ref SteadyClock; deterministic tests drive a \ref VirtualClock.
class Clock {
public:
  virtual ~Clock() = default;
  virtual double now() const = 0;
};

/// Monotonic wall clock (seconds since construction).
class SteadyClock : public Clock {
public:
  SteadyClock();
  double now() const override;

private:
  uint64_t StartNs;
};

/// A manually-advanced clock for deterministic runs. advanceTo() never
/// moves backwards.
class VirtualClock : public Clock {
public:
  double now() const override;
  void advanceTo(double T);
  void advanceBy(double Dt) { advanceTo(now() + Dt); }

private:
  mutable std::mutex Mu;
  double T = 0.0;
};

/// One side of an established peer link.
class Connection {
public:
  virtual ~Connection() = default;

  /// Queue one frame for the peer. Fails once the connection is closed.
  virtual Status send(const Bytes &Frame) = 0;

  /// Non-blocking poll: the next frame, or std::nullopt when none is
  /// ready (which includes "closed and drained" — check isOpen()).
  virtual std::optional<Bytes> receive() = 0;

  /// Park until a frame may be ready or \p TimeoutSec elapses. Returns
  /// true when receive() is worth polling. Spurious wakeups allowed.
  virtual bool waitReadable(double TimeoutSec) = 0;

  /// Close both directions; the peer's receive() drains then reports
  /// closed.
  virtual void close() = 0;
  virtual bool isOpen() const = 0;

  /// The remote endpoint's listen address (stable peer identity).
  virtual std::string peerAddress() const = 0;
};

/// A node's endpoint: dials out and accepts in.
class Transport {
public:
  virtual ~Transport() = default;

  virtual std::string listenAddress() const = 0;

  /// Dial a remote listen address.
  virtual Result<std::shared_ptr<Connection>> connect(
      const std::string &Addr) = 0;

  /// Non-blocking accept poll: nullptr when no connection is pending.
  virtual std::shared_ptr<Connection> accept() = 0;
};

/// An in-process frame switch. Every endpoint opened on the same hub can
/// dial every other by address; frames move through bounded FIFO queues
/// under one hub mutex, and all waiters share the hub's condition
/// variable (coarse, but the loopback exists for determinism and test
/// speed, not throughput).
class LoopbackHub {
public:
  LoopbackHub();
  ~LoopbackHub();

  /// Register an endpoint under \p Addr (must be unused).
  std::unique_ptr<Transport> open(const std::string &Addr);

  /// Frames queued across all connections (quiescence check for
  /// deterministic drivers).
  size_t inFlightFrames() const;

  /// Shared hub state; defined in transport.cpp (the connection and
  /// transport implementations live there too and share it).
  struct State;

private:
  std::shared_ptr<State> S;
};

} // namespace net
} // namespace typecoin

#endif // TYPECOIN_NET_TRANSPORT_H
