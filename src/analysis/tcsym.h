//===- analysis/tcsym.h - Symbolic script verifier ---------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `tcsym`: a symbolic abstract interpreter for the Bitcoin script
/// subset in bitcoin/script.{h,cpp}. Where the concrete interpreter
/// executes one script against one witness, tcsym enumerates *every*
/// execution path (forking at IF/NOTIF/IFDUP on symbolic conditions)
/// over an abstract value lattice
///
///   Concrete(bytes)  <  Sig | PubKey  <  Top
///
/// with witness inputs drawn on demand: popping an empty stack
/// materializes a fresh, unconstrained symbolic input standing for the
/// next scriptSig-provided element. Per script it proves:
///
///  * **stack-depth safety** — no path exceeds the interpreter bounds
///    (stack size, op count, push size, script size);
///  * **spendability** — `Spendable` when some path may succeed for a
///    suitable witness, `Unspendable` when *no* path can ever leave a
///    truthy top (OP_RETURN, contradictory EQUALVERIFY of constants,
///    unbalanced conditionals, ...), `Unknown` at the path bound;
///  * **malleability classes** (Andrychowicz et al., "How to deal with
///    malleability of BitCoin transactions"):
///      - `MalleableDER` — a satisfying witness carries an ECDSA
///        signature, whose DER encoding admits semantic-preserving
///        re-encodings that change the carrier txid;
///      - `MalleableExtraStack` — a satisfying witness contains an
///        element whose value is never examined (the CHECKMULTISIG
///        dummy, OP_DROP victims), so any bytes do;
///      - `MalleableSigSubst` — a different signature set also
///        satisfies the script (m-of-n with m < n, or multiple
///        satisfiable IF arms), so a third party holding an alternative
///        key can substitute the witness wholesale.
///
/// Soundness polarity: `Unspendable` and `!StackSafe` are *proofs*
/// (the concrete interpreter rejects every witness); `Spendable` is
/// may-information — it assumes signatures and hash preimages for
/// symbolic operands can be produced, which is exactly the spender's
/// ability. The symbolic-vs-concrete property sweep in
/// tests/analysis/tcsym_test.cpp pins the abstract transfer functions
/// to the concrete ones on closed-world straight-line scripts.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_ANALYSIS_TCSYM_H
#define TYPECOIN_ANALYSIS_TCSYM_H

#include "analysis/diagnostic.h"
#include "bitcoin/transaction.h"

namespace typecoin {
namespace analysis {

/// One abstract stack element.
struct SymValue {
  enum class Kind {
    Concrete, ///< Exact bytes known (script constant or derived value).
    Sig,      ///< A witness input consumed as an ECDSA signature.
    PubKey,   ///< A witness input consumed as a public key.
    Top,      ///< Any bytes.
  };
  Kind K = Kind::Top;
  Bytes Data;       ///< Kind::Concrete only.
  int InputId = -1; ///< >= 0: the witness input this value flows from.

  bool isConcrete() const { return K == Kind::Concrete; }
  static SymValue concrete(Bytes B) {
    SymValue V;
    V.K = Kind::Concrete;
    V.Data = std::move(B);
    return V;
  }
  static SymValue top(int InputId = -1) {
    SymValue V;
    V.InputId = InputId;
    return V;
  }
};

/// Malleability classes, OR-able per path and per script.
enum MalleabilityClass : unsigned {
  MalleableNone = 0,
  MalleableDER = 1u << 0,        ///< DER-encoding slack on a witness sig.
  MalleableExtraStack = 1u << 1, ///< Never-examined witness element.
  MalleableSigSubst = 1u << 2,   ///< Alternative satisfying witness set.
};

enum class Spendability {
  Spendable,   ///< Some path may succeed for a suitable witness.
  Unspendable, ///< Proven: every path fails for every witness.
  Unknown,     ///< Path/step bound hit before a satisfying path was found.
};

const char *spendabilityName(Spendability S);

/// What one enumerated path did (retained for reporting / JSON).
struct PathSummary {
  bool Succeeds = false;        ///< Feasible with a truthy final top.
  size_t InputsConsumed = 0;    ///< Witness elements this path draws.
  unsigned Malleability = MalleableNone;
  std::string BranchTrail;      ///< '1'/'0' per symbolic fork, in order.
  std::string FailReason;       ///< Empty when the path succeeds.
  /// The abstract stack at termination (all-concrete on closed-world
  /// straight-line scripts, where the property sweep compares it
  /// element-by-element against the concrete interpreter's stack).
  std::vector<SymValue> FinalStack;
};

/// The per-script result of symbolic verification.
struct ScriptVerdict {
  bool WellFormed = false;    ///< Decodes; pushes within bounds.
  bool StackSafe = false;     ///< No path breaches interpreter limits.
  Spendability Spend = Spendability::Unknown;
  unsigned Malleability = MalleableNone; ///< OR over succeeding paths.
  /// Minimum witness elements any succeeding path consumes (0 means the
  /// script is satisfiable with an empty scriptSig — anyone-can-spend).
  size_t InputsNeeded = 0;
  size_t PathsExplored = 0;
  bool PathLimitHit = false;
  std::vector<PathSummary> Paths;
  /// sym-* diagnostics mirroring the fields above, for report merging.
  LintReport Report;
};

/// Knobs for the symbolic executor.
struct SymOptions {
  /// Fork bound: enumeration stops (verdict Unknown) past this many
  /// in-flight + finished paths.
  size_t MaxPaths = 128;
  /// Total abstract steps across all paths (DoS bound).
  size_t MaxSteps = 65536;
  /// Closed world: the initial stack is exactly \p InitialStack; popping
  /// past it is a stack underflow instead of drawing a fresh symbolic
  /// witness element. Used by the property sweep and by callers that
  /// know the full witness.
  bool ClosedWorld = false;
  std::vector<Bytes> InitialStack;
};

/// Symbolically verify a locking script.
ScriptVerdict analyzeScript(const bitcoin::Script &Lock,
                            const SymOptions &Opts = SymOptions());

/// Verify every output script of a carrier transaction. Per-output
/// spans (`output[i]`). A provably unspendable non-OP_RETURN output is
/// an error (permanent UTXO deadweight and, for a Typecoin carrier, a
/// resource frozen forever); malleability classes are warnings;
/// OP_RETURN outputs get a note (intentionally unspendable). When
/// \p Verdicts is non-null it receives one verdict per output.
LintReport
analyzeCarrierScripts(const bitcoin::Transaction &Btc,
                      const SymOptions &Opts = SymOptions(),
                      std::vector<ScriptVerdict> *Verdicts = nullptr);

/// Render one script verdict as JSON (embedded into findings documents
/// by `tclint --sym --json`).
obs::Json verdictJson(const ScriptVerdict &V);

} // namespace analysis
} // namespace typecoin

#endif // TYPECOIN_ANALYSIS_TCSYM_H
