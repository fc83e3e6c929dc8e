//===- analysis/tcsym.cpp - Symbolic script verifier ----------------------===//

#include "analysis/tcsym.h"

#include "bitcoin/standard.h"
#include "crypto/ripemd160.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "support/strings.h"

#include <algorithm>
#include <optional>

namespace typecoin {
namespace analysis {

using bitcoin::castToBool;
using bitcoin::Script;
using bitcoin::scriptNumDecode;
using bitcoin::scriptNumEncode;

const char *spendabilityName(Spendability S) {
  switch (S) {
  case Spendability::Spendable:
    return "spendable";
  case Spendability::Unspendable:
    return "unspendable";
  case Spendability::Unknown:
    return "unknown";
  }
  return "unknown";
}

namespace {

Bytes boolBytes(bool B) { return B ? Bytes{1} : Bytes(); }

/// What the path knows about one witness input it has drawn.
struct InputInfo {
  SymValue::Kind Role = SymValue::Kind::Top; ///< Sig/PubKey once consumed.
  /// True once some operation examined the value (comparison, numeric
  /// decode, branch condition, signature check, final truthiness). An
  /// input that stays unconstrained is pure witness slack: any bytes
  /// satisfy the script, which is the extra-stack malleability class.
  bool Constrained = false;
};

/// One in-flight execution path.
struct PathState {
  std::vector<SymValue> Stack;
  std::vector<SymValue> Alt;
  std::vector<InputInfo> Inputs;
  std::vector<bool> ExecStack;
  std::string BranchTrail;
  size_t OpCount = 0;
  size_t ElemIdx = 0; ///< Next element to execute.
  bool UsesWitnessSig = false;
  bool SigSubstSlack = false;
};

/// How a path left the executor.
enum class PathEnd { Fail, Success, Unknown };

class SymEngine {
public:
  SymEngine(const std::vector<Script::Element> &Elems, const SymOptions &Opts)
      : Elems(Elems), Opts(Opts) {}

  void run(ScriptVerdict &V);

private:
  // --- Abstract stack ----------------------------------------------------

  /// Materialize \p N fresh witness inputs at the *bottom* of the stack
  /// (the region the scriptSig populated). Closed world: report
  /// underflow instead.
  bool ensure(PathState &P, size_t N) {
    while (P.Stack.size() < N) {
      if (Opts.ClosedWorld)
        return false;
      int Id = static_cast<int>(P.Inputs.size());
      P.Inputs.push_back(InputInfo{});
      P.Stack.insert(P.Stack.begin(), SymValue::top(Id));
    }
    return true;
  }

  SymValue popValue(PathState &P) {
    SymValue V = std::move(P.Stack.back());
    P.Stack.pop_back();
    return V;
  }

  bool overLimit(const PathState &P) const {
    return P.Stack.size() + P.Alt.size() + 1 >
           bitcoin::MaxScriptStackSize;
  }

  static void markConstrained(PathState &P, const SymValue &V) {
    if (V.InputId >= 0)
      P.Inputs[static_cast<size_t>(V.InputId)].Constrained = true;
  }
  static void setRole(PathState &P, const SymValue &V, SymValue::Kind Role) {
    if (V.InputId >= 0 &&
        P.Inputs[static_cast<size_t>(V.InputId)].Role == SymValue::Kind::Top)
      P.Inputs[static_cast<size_t>(V.InputId)].Role = Role;
  }

  /// Pop an operand as a script number. Returns nullopt-with-ok for a
  /// symbolic operand (value unknown, input constrained); an engaged
  /// error means the path fails like the concrete interpreter would.
  struct NumPop {
    std::optional<int64_t> Value; ///< Engaged when concrete.
    std::string Fail;             ///< Non-empty: the path fails.
  };
  NumPop popNum(PathState &P) {
    NumPop Out;
    if (!ensure(P, 1)) {
      Out.Fail = "script: stack underflow";
      return Out;
    }
    SymValue V = popValue(P);
    if (V.isConcrete()) {
      auto N = scriptNumDecode(V.Data);
      if (!N) {
        Out.Fail = N.error().message();
        return Out;
      }
      Out.Value = *N;
      return Out;
    }
    // Must decode as a valid <= 4 byte number at runtime: examined.
    markConstrained(P, V);
    return Out;
  }

  // --- Path lifecycle ----------------------------------------------------

  void finish(PathState &P, PathEnd End, std::string Reason);
  void fork(const PathState &P, const SymValue &Cond, bool Negate);

  /// Execute one non-push, non-branch opcode. Returns false when the
  /// path terminated (finish() already called).
  bool step(PathState &P, const Script::Element &E);

  /// Run \p P until it terminates or forks.
  void runPath(PathState P);

  const std::vector<Script::Element> &Elems;
  const SymOptions &Opts;
  std::vector<PathState> Work;
  size_t Steps = 0;
  ScriptVerdict *V = nullptr;
  bool StackBreach = false;
};

void SymEngine::finish(PathState &P, PathEnd End, std::string Reason) {
  PathSummary S;
  S.InputsConsumed = P.Inputs.size();
  S.BranchTrail = P.BranchTrail;
  S.FinalStack = std::move(P.Stack);
  switch (End) {
  case PathEnd::Fail:
    S.FailReason = std::move(Reason);
    break;
  case PathEnd::Unknown:
    S.FailReason = std::move(Reason);
    V->PathLimitHit = true;
    break;
  case PathEnd::Success: {
    S.Succeeds = true;
    if (P.UsesWitnessSig)
      S.Malleability |= MalleableDER;
    if (P.SigSubstSlack)
      S.Malleability |= MalleableSigSubst;
    for (const InputInfo &I : P.Inputs)
      if (!I.Constrained)
        S.Malleability |= MalleableExtraStack;
    break;
  }
  }
  ++V->PathsExplored;
  V->Paths.push_back(std::move(S));
}

void SymEngine::fork(const PathState &P, const SymValue &Cond, bool Negate) {
  // Both arms are feasible for some witness; explore each with the
  // branch decision recorded. Negate folds OP_NOTIF into the trail so
  // '1' always means "the IF arm runs".
  if (V->PathsExplored + Work.size() + 2 > Opts.MaxPaths) {
    V->PathLimitHit = true;
    PathState Clone = P;
    finish(Clone, PathEnd::Unknown, "sym: path bound reached");
    return;
  }
  for (bool Taken : {false, true}) {
    PathState Clone = P;
    markConstrained(Clone, Cond);
    Clone.ExecStack.push_back(Negate ? !Taken : Taken);
    Clone.BranchTrail.push_back(Taken ? '1' : '0');
    ++Clone.ElemIdx;
    Work.push_back(std::move(Clone));
  }
}

bool SymEngine::step(PathState &P, const Script::Element &E) {
  using bitcoin::Opcode;
  auto Fail = [&](std::string Why) {
    finish(P, PathEnd::Fail, std::move(Why));
    return false;
  };
  auto Underflow = [&] { return Fail("script: stack underflow"); };
  auto Push = [&](SymValue Val) {
    if (overLimit(P)) {
      StackBreach = true;
      return Fail("script: stack size limit exceeded");
    }
    P.Stack.push_back(std::move(Val));
    return true;
  };

  if (E.Op >= bitcoin::OP_1 && E.Op <= bitcoin::OP_16)
    return Push(SymValue::concrete(scriptNumEncode(E.Op - bitcoin::OP_1 + 1)));

  switch (E.Op) {
  case bitcoin::OP_NOP:
    return true;
  case bitcoin::OP_1NEGATE:
    return Push(SymValue::concrete(scriptNumEncode(-1)));
  case bitcoin::OP_VERIFY: {
    if (!ensure(P, 1))
      return Underflow();
    SymValue C = popValue(P);
    if (C.isConcrete()) {
      if (!castToBool(C.Data))
        return Fail("script: OP_VERIFY failed");
      return true;
    }
    markConstrained(P, C); // Must be truthy at runtime.
    return true;
  }
  case bitcoin::OP_RETURN:
    return Fail("script: OP_RETURN executed");

  case bitcoin::OP_TOALTSTACK: {
    if (!ensure(P, 1))
      return Underflow();
    P.Alt.push_back(popValue(P));
    return true;
  }
  case bitcoin::OP_FROMALTSTACK: {
    if (P.Alt.empty())
      return Fail("script: alt stack underflow");
    SymValue Val = std::move(P.Alt.back());
    P.Alt.pop_back();
    return Push(std::move(Val));
  }
  case bitcoin::OP_2DROP: {
    if (!ensure(P, 2))
      return Underflow();
    P.Stack.pop_back();
    P.Stack.pop_back();
    return true;
  }
  case bitcoin::OP_2DUP: {
    if (!ensure(P, 2))
      return Underflow();
    SymValue A = P.Stack[P.Stack.size() - 2];
    SymValue B = P.Stack[P.Stack.size() - 1];
    return Push(std::move(A)) && Push(std::move(B));
  }
  case bitcoin::OP_3DUP: {
    if (!ensure(P, 3))
      return Underflow();
    for (size_t I = P.Stack.size() - 3, End = P.Stack.size(); I < End; ++I)
      if (!Push(SymValue(P.Stack[I])))
        return false;
    return true;
  }
  case bitcoin::OP_IFDUP: {
    if (!ensure(P, 1))
      return Underflow();
    const SymValue &Top = P.Stack.back();
    if (Top.isConcrete()) {
      if (castToBool(Top.Data))
        return Push(SymValue(Top));
      return true;
    }
    // Truthiness unknown: fork on whether the duplicate appears. Treat
    // like a branch with two successors at the same element.
    if (V->PathsExplored + Work.size() + 2 > Opts.MaxPaths) {
      V->PathLimitHit = true;
      finish(P, PathEnd::Unknown, "sym: path bound reached");
      return false;
    }
    for (bool Truthy : {false, true}) {
      PathState Clone = P;
      markConstrained(Clone, Top);
      Clone.BranchTrail.push_back(Truthy ? '1' : '0');
      if (Truthy)
        Clone.Stack.push_back(Clone.Stack.back());
      ++Clone.ElemIdx;
      Work.push_back(std::move(Clone));
    }
    return false; // Successors queued; this frame is done.
  }
  case bitcoin::OP_DEPTH: {
    if (Opts.ClosedWorld)
      return Push(SymValue::concrete(
          scriptNumEncode(static_cast<int64_t>(P.Stack.size()))));
    // The witness may hold arbitrarily many extra elements below what we
    // have materialized, so the depth is statically unknown.
    return Push(SymValue::top());
  }
  case bitcoin::OP_DROP: {
    if (!ensure(P, 1))
      return Underflow();
    P.Stack.pop_back();
    return true;
  }
  case bitcoin::OP_DUP: {
    if (!ensure(P, 1))
      return Underflow();
    return Push(SymValue(P.Stack.back()));
  }
  case bitcoin::OP_NIP: {
    if (!ensure(P, 2))
      return Underflow();
    P.Stack.erase(P.Stack.end() - 2);
    return true;
  }
  case bitcoin::OP_OVER: {
    if (!ensure(P, 2))
      return Underflow();
    return Push(SymValue(P.Stack[P.Stack.size() - 2]));
  }
  case bitcoin::OP_PICK:
  case bitcoin::OP_ROLL: {
    NumPop N = popNum(P);
    if (!N.Fail.empty())
      return Fail(N.Fail);
    if (!N.Value) {
      // A symbolic index reaches an unknowable stack slot.
      finish(P, PathEnd::Unknown, "sym: PICK/ROLL with symbolic index");
      return false;
    }
    if (*N.Value < 0)
      return Fail("script: PICK/ROLL index out of range");
    if (!ensure(P, static_cast<size_t>(*N.Value) + 1))
      return Fail("script: PICK/ROLL index out of range");
    size_t Idx = P.Stack.size() - 1 - static_cast<size_t>(*N.Value);
    SymValue Val = P.Stack[Idx];
    if (E.Op == bitcoin::OP_ROLL)
      P.Stack.erase(P.Stack.begin() + static_cast<ptrdiff_t>(Idx));
    return Push(std::move(Val));
  }
  case bitcoin::OP_ROT: {
    if (!ensure(P, 3))
      return Underflow();
    std::swap(P.Stack[P.Stack.size() - 3], P.Stack[P.Stack.size() - 2]);
    std::swap(P.Stack[P.Stack.size() - 2], P.Stack[P.Stack.size() - 1]);
    return true;
  }
  case bitcoin::OP_SWAP: {
    if (!ensure(P, 2))
      return Underflow();
    std::swap(P.Stack[P.Stack.size() - 2], P.Stack[P.Stack.size() - 1]);
    return true;
  }
  case bitcoin::OP_TUCK: {
    if (!ensure(P, 2))
      return Underflow();
    SymValue Top = P.Stack.back();
    P.Stack.insert(P.Stack.end() - 2, std::move(Top));
    return true;
  }
  case bitcoin::OP_SIZE: {
    if (!ensure(P, 1))
      return Underflow();
    const SymValue &Top = P.Stack.back();
    if (Top.isConcrete())
      return Push(SymValue::concrete(
          scriptNumEncode(static_cast<int64_t>(Top.Data.size()))));
    return Push(SymValue::top(Top.InputId));
  }

  case bitcoin::OP_EQUAL:
  case bitcoin::OP_EQUALVERIFY: {
    if (!ensure(P, 2))
      return Underflow();
    SymValue B = popValue(P);
    SymValue A = popValue(P);
    if (A.isConcrete() && B.isConcrete()) {
      bool Eq = A.Data == B.Data;
      if (E.Op == bitcoin::OP_EQUALVERIFY) {
        if (!Eq)
          return Fail("script: OP_EQUALVERIFY failed");
        return true;
      }
      return Push(SymValue::concrete(boolBytes(Eq)));
    }
    // At least one side is witness-dependent: both sides are examined,
    // and either outcome is reachable for a suitable witness (hash
    // preimages are assumed producible by the legitimate spender).
    markConstrained(P, A);
    markConstrained(P, B);
    if (E.Op == bitcoin::OP_EQUALVERIFY)
      return true;
    return Push(SymValue::top());
  }

  case bitcoin::OP_1ADD:
  case bitcoin::OP_1SUB:
  case bitcoin::OP_NEGATE:
  case bitcoin::OP_ABS:
  case bitcoin::OP_NOT:
  case bitcoin::OP_0NOTEQUAL: {
    NumPop N = popNum(P);
    if (!N.Fail.empty())
      return Fail(N.Fail);
    if (!N.Value)
      return Push(SymValue::top());
    int64_t X = *N.Value;
    int64_t R = 0;
    switch (E.Op) {
    case bitcoin::OP_1ADD:
      R = X + 1;
      break;
    case bitcoin::OP_1SUB:
      R = X - 1;
      break;
    case bitcoin::OP_NEGATE:
      R = -X;
      break;
    case bitcoin::OP_ABS:
      R = X < 0 ? -X : X;
      break;
    case bitcoin::OP_NOT:
      R = X == 0;
      break;
    default:
      R = X != 0;
      break;
    }
    return Push(SymValue::concrete(scriptNumEncode(R)));
  }

  case bitcoin::OP_ADD:
  case bitcoin::OP_SUB:
  case bitcoin::OP_BOOLAND:
  case bitcoin::OP_BOOLOR:
  case bitcoin::OP_NUMEQUAL:
  case bitcoin::OP_NUMEQUALVERIFY:
  case bitcoin::OP_NUMNOTEQUAL:
  case bitcoin::OP_LESSTHAN:
  case bitcoin::OP_GREATERTHAN:
  case bitcoin::OP_LESSTHANOREQUAL:
  case bitcoin::OP_GREATERTHANOREQUAL:
  case bitcoin::OP_MIN:
  case bitcoin::OP_MAX: {
    NumPop B = popNum(P);
    if (!B.Fail.empty())
      return Fail(B.Fail);
    NumPop A = popNum(P);
    if (!A.Fail.empty())
      return Fail(A.Fail);
    if (!A.Value || !B.Value) {
      if (E.Op == bitcoin::OP_NUMEQUALVERIFY)
        return true; // Satisfiable: a witness can make them equal.
      return Push(SymValue::top());
    }
    int64_t X = *A.Value, Y = *B.Value;
    int64_t R = 0;
    switch (E.Op) {
    case bitcoin::OP_ADD:
      R = X + Y;
      break;
    case bitcoin::OP_SUB:
      R = X - Y;
      break;
    case bitcoin::OP_BOOLAND:
      R = X != 0 && Y != 0;
      break;
    case bitcoin::OP_BOOLOR:
      R = X != 0 || Y != 0;
      break;
    case bitcoin::OP_NUMEQUAL:
    case bitcoin::OP_NUMEQUALVERIFY:
      R = X == Y;
      break;
    case bitcoin::OP_NUMNOTEQUAL:
      R = X != Y;
      break;
    case bitcoin::OP_LESSTHAN:
      R = X < Y;
      break;
    case bitcoin::OP_GREATERTHAN:
      R = X > Y;
      break;
    case bitcoin::OP_LESSTHANOREQUAL:
      R = X <= Y;
      break;
    case bitcoin::OP_GREATERTHANOREQUAL:
      R = X >= Y;
      break;
    case bitcoin::OP_MIN:
      R = X < Y ? X : Y;
      break;
    default:
      R = X > Y ? X : Y;
      break;
    }
    if (E.Op == bitcoin::OP_NUMEQUALVERIFY) {
      if (!R)
        return Fail("script: OP_NUMEQUALVERIFY failed");
      return true;
    }
    return Push(SymValue::concrete(scriptNumEncode(R)));
  }
  case bitcoin::OP_WITHIN: {
    NumPop Max = popNum(P);
    if (!Max.Fail.empty())
      return Fail(Max.Fail);
    NumPop Min = popNum(P);
    if (!Min.Fail.empty())
      return Fail(Min.Fail);
    NumPop X = popNum(P);
    if (!X.Fail.empty())
      return Fail(X.Fail);
    if (!Max.Value || !Min.Value || !X.Value)
      return Push(SymValue::top());
    return Push(SymValue::concrete(
        boolBytes(*Min.Value <= *X.Value && *X.Value < *Max.Value)));
  }

  case bitcoin::OP_RIPEMD160:
  case bitcoin::OP_SHA256:
  case bitcoin::OP_HASH160:
  case bitcoin::OP_HASH256: {
    if (!ensure(P, 1))
      return Underflow();
    SymValue Val = popValue(P);
    if (!Val.isConcrete())
      return Push(SymValue::top(Val.InputId));
    Bytes Out;
    switch (E.Op) {
    case bitcoin::OP_RIPEMD160: {
      auto D = crypto::ripemd160(Val.Data);
      Out.assign(D.begin(), D.end());
      break;
    }
    case bitcoin::OP_SHA256: {
      auto D = crypto::sha256(Val.Data);
      Out.assign(D.begin(), D.end());
      break;
    }
    case bitcoin::OP_HASH160: {
      auto First = crypto::sha256(Val.Data);
      auto D = crypto::ripemd160(First.data(), First.size());
      Out.assign(D.begin(), D.end());
      break;
    }
    default: {
      auto D = crypto::sha256d(Val.Data);
      Out.assign(D.begin(), D.end());
      break;
    }
    }
    return Push(SymValue::concrete(std::move(Out)));
  }

  case bitcoin::OP_CHECKSIG:
  case bitcoin::OP_CHECKSIGVERIFY: {
    if (!ensure(P, 2))
      return Underflow();
    SymValue PubKey = popValue(P);
    SymValue Sig = popValue(P);
    setRole(P, Sig, SymValue::Kind::Sig);
    setRole(P, PubKey, SymValue::Kind::PubKey);
    markConstrained(P, Sig);
    markConstrained(P, PubKey);
    if (!Sig.isConcrete())
      P.UsesWitnessSig = true;
    // Signature validity depends on the (unmodeled) spending
    // transaction; the legitimate spender can always produce a valid
    // signature, so the result is satisfiable either way.
    if (E.Op == bitcoin::OP_CHECKSIGVERIFY)
      return true;
    return Push(SymValue::top());
  }

  case bitcoin::OP_CHECKMULTISIG:
  case bitcoin::OP_CHECKMULTISIGVERIFY: {
    NumPop NKeys = popNum(P);
    if (!NKeys.Fail.empty())
      return Fail(NKeys.Fail);
    if (!NKeys.Value) {
      finish(P, PathEnd::Unknown, "sym: CHECKMULTISIG with symbolic n");
      return false;
    }
    if (*NKeys.Value < 0 || *NKeys.Value > 20)
      return Fail("script: bad multisig key count");
    if (!ensure(P, static_cast<size_t>(*NKeys.Value)))
      return Underflow();
    for (int64_t I = 0; I < *NKeys.Value; ++I) {
      SymValue Key = popValue(P);
      setRole(P, Key, SymValue::Kind::PubKey);
      markConstrained(P, Key);
    }
    NumPop NSigs = popNum(P);
    if (!NSigs.Fail.empty())
      return Fail(NSigs.Fail);
    if (!NSigs.Value) {
      finish(P, PathEnd::Unknown, "sym: CHECKMULTISIG with symbolic m");
      return false;
    }
    if (*NSigs.Value < 0 || *NSigs.Value > *NKeys.Value)
      return Fail("script: bad multisig signature count");
    if (!ensure(P, static_cast<size_t>(*NSigs.Value)))
      return Underflow();
    for (int64_t I = 0; I < *NSigs.Value; ++I) {
      SymValue Sig = popValue(P);
      setRole(P, Sig, SymValue::Kind::Sig);
      markConstrained(P, Sig);
      if (!Sig.isConcrete())
        P.UsesWitnessSig = true;
    }
    // The famous off-by-one: one extra element is popped and never
    // examined — the canonical extra-stack malleability vector. Leave
    // it unconstrained so a witness-drawn dummy is classified as slack.
    if (!ensure(P, 1))
      return Underflow();
    popValue(P);
    if (*NSigs.Value >= 1 && *NSigs.Value < *NKeys.Value)
      P.SigSubstSlack = true; // m-of-n, m < n: other key subsets satisfy.
    bool TriviallyTrue = *NSigs.Value == 0;
    if (E.Op == bitcoin::OP_CHECKMULTISIGVERIFY)
      return true;
    if (TriviallyTrue)
      return Push(SymValue::concrete(boolBytes(true)));
    return Push(SymValue::top());
  }

  default:
    return Fail(strformat("script: unknown or disabled opcode 0x%02x",
                          static_cast<unsigned>(E.Op)));
  }
}

void SymEngine::runPath(PathState P) {
  while (P.ElemIdx < Elems.size()) {
    if (++Steps > Opts.MaxSteps) {
      V->PathLimitHit = true;
      finish(P, PathEnd::Unknown, "sym: step bound reached");
      return;
    }
    const Script::Element &E = Elems[P.ElemIdx];
    bool Executing = std::find(P.ExecStack.begin(), P.ExecStack.end(),
                               false) == P.ExecStack.end();
    bool IsBranch = E.Op == bitcoin::OP_IF || E.Op == bitcoin::OP_NOTIF ||
                    E.Op == bitcoin::OP_ELSE || E.Op == bitcoin::OP_ENDIF;
    if (!Executing && !IsBranch) {
      ++P.ElemIdx;
      continue;
    }
    if (E.IsPush) {
      if (E.Push.size() > bitcoin::MaxScriptPushSize) {
        StackBreach = true;
        finish(P, PathEnd::Fail, "script: push exceeds 520 bytes");
        return;
      }
      if (overLimit(P)) {
        StackBreach = true;
        finish(P, PathEnd::Fail, "script: stack size limit exceeded");
        return;
      }
      P.Stack.push_back(SymValue::concrete(E.Push));
      ++P.ElemIdx;
      continue;
    }
    if (E.Op > bitcoin::OP_16 && ++P.OpCount > bitcoin::MaxOpsPerScript) {
      StackBreach = true;
      finish(P, PathEnd::Fail, "script: op count limit exceeded");
      return;
    }
    if (IsBranch) {
      switch (E.Op) {
      case bitcoin::OP_IF:
      case bitcoin::OP_NOTIF: {
        if (!Executing) {
          P.ExecStack.push_back(false);
          break;
        }
        if (!ensure(P, 1)) {
          finish(P, PathEnd::Fail, "script: stack underflow");
          return;
        }
        SymValue Cond = popValue(P);
        if (Cond.isConcrete()) {
          bool Value = castToBool(Cond.Data);
          if (E.Op == bitcoin::OP_NOTIF)
            Value = !Value;
          P.ExecStack.push_back(Value);
          break;
        }
        fork(P, Cond, E.Op == bitcoin::OP_NOTIF);
        return; // Successors queued.
      }
      case bitcoin::OP_ELSE:
        if (P.ExecStack.empty()) {
          finish(P, PathEnd::Fail, "script: OP_ELSE without OP_IF");
          return;
        }
        P.ExecStack.back() = !P.ExecStack.back();
        break;
      default: // OP_ENDIF
        if (P.ExecStack.empty()) {
          finish(P, PathEnd::Fail, "script: OP_ENDIF without OP_IF");
          return;
        }
        P.ExecStack.pop_back();
        break;
      }
      ++P.ElemIdx;
      continue;
    }
    size_t Before = P.ElemIdx;
    if (!step(P, E))
      return; // Terminated or queued successors (IFDUP fork).
    P.ElemIdx = Before + 1;
  }

  // End of script.
  if (!P.ExecStack.empty()) {
    finish(P, PathEnd::Fail, "script: unbalanced conditional");
    return;
  }
  if (P.Stack.empty() && !ensure(P, 1)) {
    finish(P, PathEnd::Fail, "script: evaluated to false (empty stack)");
    return;
  }
  const SymValue &Top = P.Stack.back();
  if (Top.isConcrete()) {
    if (castToBool(Top.Data))
      finish(P, PathEnd::Success, "");
    else
      finish(P, PathEnd::Fail, "script: evaluated to false");
    return;
  }
  markConstrained(P, Top); // Must be truthy: examined.
  finish(P, PathEnd::Success, "");
}

void SymEngine::run(ScriptVerdict &Out) {
  V = &Out;
  PathState Init;
  for (const Bytes &B : Opts.InitialStack)
    Init.Stack.push_back(SymValue::concrete(B));
  Work.push_back(std::move(Init));
  while (!Work.empty()) {
    PathState P = std::move(Work.back());
    Work.pop_back();
    runPath(std::move(P));
  }
  Out.StackSafe = !StackBreach;
}

struct SymMetrics {
  obs::Counter &Spendable = obs::counter("sym.verdict.spendable");
  obs::Counter &Unspendable = obs::counter("sym.verdict.unspendable");
  obs::Counter &Unknown = obs::counter("sym.verdict.unknown");
  obs::Histogram &Paths = obs::sizeHistogram("sym.paths");
  obs::Histogram &AnalyzeNs = obs::latencyHistogram("sym.analyze_ns");

  static SymMetrics &get() {
    static SymMetrics M;
    return M;
  }
};

ScriptVerdict analyzeScriptImpl(const Script &Lock, const SymOptions &Opts) {
  ScriptVerdict V;
  if (Lock.size() > bitcoin::MaxScriptSize) {
    V.WellFormed = false;
    V.StackSafe = false;
    V.Spend = Spendability::Unspendable;
    V.Report.error("sym-malformed",
                   "script exceeds the 10000-byte size limit; every "
                   "spend attempt is rejected");
    return V;
  }
  auto Elems = Lock.decode();
  if (!Elems) {
    V.WellFormed = false;
    V.StackSafe = false;
    V.Spend = Spendability::Unspendable;
    V.Report.error("sym-malformed",
                   "script does not decode (" + Elems.error().message() +
                       "); every spend attempt is rejected");
    return V;
  }
  V.WellFormed = true;

  SymEngine Engine(*Elems, Opts);
  Engine.run(V);

  // Aggregate path verdicts.
  size_t Succeeding = 0;
  bool AnyUnbalanced = false;
  std::string FirstFail;
  std::string FirstTrail;
  bool TrailsDiffer = false;
  V.InputsNeeded = SIZE_MAX;
  for (const PathSummary &P : V.Paths) {
    if (P.Succeeds) {
      if (Succeeding == 0)
        FirstTrail = P.BranchTrail;
      else if (P.BranchTrail != FirstTrail)
        TrailsDiffer = true;
      ++Succeeding;
      V.Malleability |= P.Malleability;
      V.InputsNeeded = std::min(V.InputsNeeded, P.InputsConsumed);
    } else {
      if (FirstFail.empty())
        FirstFail = P.FailReason;
      if (P.FailReason.find("unbalanced") != std::string::npos)
        AnyUnbalanced = true;
    }
  }
  if (Succeeding == 0)
    V.InputsNeeded = 0;
  if (Succeeding >= 2 && TrailsDiffer)
    V.Malleability |= MalleableSigSubst; // Multiple satisfiable arms.

  if (Succeeding > 0)
    V.Spend = Spendability::Spendable;
  else if (V.PathLimitHit)
    V.Spend = Spendability::Unknown;
  else
    V.Spend = Spendability::Unspendable;

  // Mirror the verdict as diagnostics so carriers/CLI can merge reports.
  if (V.Spend == Spendability::Unspendable)
    V.Report.error("sym-unspendable",
                   "provably unspendable: every execution path fails (" +
                       (FirstFail.empty() ? std::string("no paths")
                                          : FirstFail) +
                       ")");
  if (AnyUnbalanced && V.Spend == Spendability::Unspendable)
    V.Report.note("sym-unbalanced-if",
                  "some path ends inside an unterminated IF/ELSE");
  if (!V.StackSafe)
    V.Report.error("sym-stack-unsafe",
                   "some execution path breaches an interpreter bound "
                   "(stack size, op count, or push size)");
  if (V.Spend == Spendability::Unknown)
    V.Report.warn("sym-undecided",
                  "path or step bound reached before a satisfying path "
                  "was found (" +
                      std::to_string(V.PathsExplored) + " paths explored)");
  if (V.Spend == Spendability::Spendable && V.InputsNeeded == 0)
    V.Report.warn("sym-anyone-can-spend",
                  "satisfiable with an empty scriptSig: anyone can spend "
                  "this output");
  if (V.Malleability & MalleableDER)
    V.Report.warn("sym-malleable-der",
                  "a satisfying witness carries an ECDSA signature; "
                  "non-canonical DER re-encodings change the txid");
  if (V.Malleability & MalleableExtraStack)
    V.Report.warn("sym-malleable-extrastack",
                  "a satisfying witness contains a never-examined "
                  "element (e.g. the CHECKMULTISIG dummy); any bytes "
                  "there change the txid");
  if (V.Malleability & MalleableSigSubst)
    V.Report.warn("sym-malleable-sigsubst",
                  "an alternative signature set also satisfies the "
                  "script (m < n multisig or multiple satisfiable "
                  "branches)");
  return V;
}

} // namespace

ScriptVerdict analyzeScript(const Script &Lock, const SymOptions &Opts) {
  SymMetrics &M = SymMetrics::get();
  ScriptVerdict V;
  {
    obs::ScopedTimer Timer(M.AnalyzeNs);
    V = analyzeScriptImpl(Lock, Opts);
  }
  M.Paths.observe(V.PathsExplored);
  switch (V.Spend) {
  case Spendability::Spendable:
    M.Spendable.inc();
    break;
  case Spendability::Unspendable:
    M.Unspendable.inc();
    break;
  case Spendability::Unknown:
    M.Unknown.inc();
    break;
  }
  return V;
}

LintReport analyzeCarrierScripts(const bitcoin::Transaction &Btc,
                                 const SymOptions &Opts,
                                 std::vector<ScriptVerdict> *Verdicts) {
  LintReport Out;
  for (size_t I = 0; I < Btc.Outputs.size(); ++I) {
    const std::string Span = "output[" + std::to_string(I) + "]";
    const bitcoin::Script &S = Btc.Outputs[I].ScriptPubKey;
    bitcoin::SolvedScript Solved = bitcoin::solveScript(S);
    if (Solved.Kind == bitcoin::TxOutKind::NullData) {
      // Intentionally unspendable data carrier; do not flag deadweight.
      Out.note("sym-nulldata",
               "OP_RETURN data carrier (intentionally unspendable)", Span);
      if (Verdicts)
        Verdicts->push_back(ScriptVerdict{});
      continue;
    }
    ScriptVerdict V = analyzeScript(S, Opts);
    Out.merge(V.Report, Span);
    if (Verdicts)
      Verdicts->push_back(std::move(V));
  }
  return Out;
}

obs::Json verdictJson(const ScriptVerdict &V) {
  obs::Json Doc = obs::Json::object();
  Doc.set("wellFormed", V.WellFormed);
  Doc.set("stackSafe", V.StackSafe);
  Doc.set("spendability", spendabilityName(V.Spend));
  obs::Json Mall = obs::Json::array();
  if (V.Malleability & MalleableDER)
    Mall.push("der");
  if (V.Malleability & MalleableExtraStack)
    Mall.push("extra-stack");
  if (V.Malleability & MalleableSigSubst)
    Mall.push("sig-subst");
  Doc.set("malleability", std::move(Mall));
  Doc.set("inputsNeeded", static_cast<int64_t>(V.InputsNeeded));
  Doc.set("pathsExplored", static_cast<int64_t>(V.PathsExplored));
  Doc.set("pathLimitHit", V.PathLimitHit);
  return Doc;
}

} // namespace analysis
} // namespace typecoin
