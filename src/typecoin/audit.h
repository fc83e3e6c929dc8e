//===- typecoin/audit.h - Runtime invariant auditor --------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `TYPECOIN_AUDIT` debug mode: after each block connect /
/// disconnect (including the rollback path of a failed reorganization),
/// re-derive the ledger invariants the paper's commitment argument
/// rests on and compare them against the incrementally maintained
/// state:
///
///   * **UTXO soundness** — replaying the active chain from genesis
///     reproduces the incremental UTXO set exactly; no txout is spent
///     twice; every entry's height is on the chain.
///   * **Value conservation** — within every non-coinbase transaction
///     inputs cover outputs, and every coinbase claims at most subsidy
///     plus fees (Section 2's "valid transaction" conditions 4 and 7).
///   * **Index consistency** — every transaction of every active block
///     is locatable at its true position, and nothing else claims to be
///     confirmed.
///   * **Mempool consistency** — pool entries are unconfirmed, conflict-
///     free, and spend only available txouts.
///   * **Affine consumption** — at the Typecoin layer, no registered
///     txout is consumed by two registered transactions, and every
///     input of a registered transaction is marked consumed ("a
///     commitment is used at most once").
///
/// The audits are O(chain size) by design: they are a debugging tool
/// (enabled with `-DTYPECOIN_AUDIT=ON` or an explicit
/// \ref installChainAuditor call in tests), not a hot-path check.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_TYPECOIN_AUDIT_H
#define TYPECOIN_TYPECOIN_AUDIT_H

#include "bitcoin/mempool.h"
#include "typecoin/state.h"

namespace typecoin {
namespace tc {

/// Audit the blockchain: active-chain linkage, full UTXO replay, value
/// conservation, and transaction-index consistency.
Status auditChain(const bitcoin::Blockchain &Chain);

/// Audit the mempool against the chain: entries unconfirmed, no
/// conflicting spends, all inputs available (confirmed or in-pool).
Status auditMempool(const bitcoin::Mempool &Pool,
                    const bitcoin::Blockchain &Chain);

/// Audit the Typecoin chain state: every registered input is marked
/// consumed, and no txout is consumed by two registered transactions.
Status auditState(const State &S);

/// Install \ref auditChain as the chain's audit hook, so it runs after
/// every block connect/disconnect (Blockchain::setAuditHook).
void installChainAuditor(bitcoin::Blockchain &Chain);

} // namespace tc
} // namespace typecoin

#endif // TYPECOIN_TYPECOIN_AUDIT_H
