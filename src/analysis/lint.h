//===- analysis/lint.h - Pre-validation lint for Typecoin --------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `tclint`: every finding, located, over Typecoin transactions and
/// their carrying Bitcoin transactions, each family rendered from the one
/// implementation of its rule:
///
///   1. **Transaction structure and affine usage**: inputs, amounts,
///      fallback compatibility (Section 5), and the affine audit
///      (analysis/affine.h) of the primary and every fallback proof.
///   2. **Script standardness**: every `bitcoin::policyViolations`
///      finding; the mempool rejects on the first of the same list.
///   3. **Metadata embedding** (`typecoin/embed.cpp`): the carried hash
///      must extract and match, and `tc::checkCorrespondence` must hold.
///
/// Severity contract: an `Error` diagnostic is emitted only where the
/// full pipeline (proof checker, correspondence check, or relay policy)
/// is guaranteed to reject; everything merely suspicious is a
/// `Warning`. `tc::Node::submitPair` runs no lint; which of its stages
/// rejects each error is pinned by tests/analysis/submit_contract_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_ANALYSIS_LINT_H
#define TYPECOIN_ANALYSIS_LINT_H

#include "analysis/affine.h"
#include "typecoin/node.h"

namespace typecoin {
namespace analysis {

/// Advisory cap on the serialized Typecoin transaction (bytes). It
/// travels out-of-band, and oversized proofs are a denial-of-service
/// vector.
constexpr size_t MaxTcBytes = 1 << 20;

/// Lint knobs.
struct LintOptions {
  /// Enforce script standardness (matches MempoolPolicy::RequireStandard;
  /// when false, script findings are downgraded to warnings).
  bool RequireStandard = true;
  /// Emit affine-unused warnings.
  bool WarnUnused = true;
};

/// Lint a Typecoin transaction alone (structure, amounts, fallback
/// compatibility, and the affine audit of every proof).
LintReport lint(const tc::Transaction &T,
                const LintOptions &Opts = LintOptions());

/// Lint a carrying Bitcoin transaction: output values outside the money
/// range, and every relay-standardness violation (size, per-output
/// script shape, dust, OP_RETURN count, per-input push-only
/// discipline).
LintReport lintScripts(const bitcoin::Transaction &Btc,
                       const LintOptions &Opts = LintOptions());

/// Lint the metadata embedding of a coupled pair: hash extraction, hash
/// match, and structural correspondence.
LintReport lintEmbedding(const tc::Transaction &T,
                         const bitcoin::Transaction &Btc);

/// Lint a coupled pair end-to-end: transaction + scripts + embedding.
LintReport lint(const tc::Pair &P, const LintOptions &Opts = LintOptions());

/// The batch server's triage before it builds a carrier
/// (BatchServer::recordWriteThrough). Rejects when the lint proves the
/// transaction can never be accepted: any shared-structure error
/// (inputs, amounts, fallback shape — identical across fallbacks by the
/// Section 5 compatibility rules), or proof-class errors in the primary
/// *and every* fallback (an invalid primary with a valid fallback is
/// still relayable, Section 5). Such a rejection is permanent, which
/// lets the server fail it at once instead of deferring it.
Status lintGate(const tc::Transaction &T,
                const LintOptions &Opts = LintOptions());

} // namespace analysis
} // namespace typecoin

#endif // TYPECOIN_ANALYSIS_LINT_H
