//===- tests/net/chaosnet.h - Chaos scenarios over a Cluster ----*- C++ -*-===//
//
// Shared set-up for the `chaos.net.` suites: the chaos-suite helpers
// (chaosutil.h) plus the NetConfig every scenario runs its Cluster with.
//
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_TESTS_NET_CHAOSNET_H
#define TYPECOIN_TESTS_NET_CHAOSNET_H

#include "net/cluster.h"

#include "../chaos/chaosutil.h"

namespace typecoin {
namespace chaosutil {

/// Scenarios jump the virtual clock a block interval at a time and hold
/// frames back under heavy jitter, so liveness timers are off: pings
/// and the download-stall cutoff would otherwise disconnect peers that
/// are merely waiting on the scenario's schedule.
inline net::NetConfig quietTimers() {
  net::NetConfig Cfg;
  Cfg.Timers.PingIntervalSec = 1e9;
  Cfg.Timers.HandshakeTimeoutSec = 1e9;
  Cfg.Timers.StallTimeoutSec = 1e9;
  return Cfg;
}

} // namespace chaosutil
} // namespace typecoin

#endif // TYPECOIN_TESTS_NET_CHAOSNET_H
