//===- logic/context.h - Affine hypothesis contexts -------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The context discipline of Appendix A's proof judgement, shared by the
/// proof checker (`logic/check.cpp`) and the affine audit
/// (`analysis/affine.cpp`): innermost-binder lookup, consume-once for
/// affine hypotheses, the same context for both arms of `&` and `case`
/// with the union of their consumption afterwards (sound for the
/// additive connectives, DESIGN.md ablation 2), no affine hypotheses
/// inside `!M`, and scope exit that hands weakened hypotheses (legal,
/// Section 4) back to the caller. Each user attaches its own per-entry
/// data (\p Info) and words its own diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_LOGIC_CONTEXT_H
#define TYPECOIN_LOGIC_CONTEXT_H

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace typecoin {
namespace logic {

/// What looking up a proof variable found.
enum class Use {
  Unbound,  ///< No binder of that name is in scope.
  Blocked,  ///< An affine hypothesis, inside a `!` body.
  Consumed, ///< An affine hypothesis that was already used.
  Ok,       ///< Available; an affine hypothesis is now consumed.
};

/// A flat stack of named hypotheses with consumption flags.
template <class Info> class AffineContext {
public:
  struct Entry {
    std::string Name;
    bool Affine = false;
    bool Consumed = false;
    bool Blocked = false; ///< Unavailable inside a ! body.
    Info Data;
  };

  /// The current scope mark, for a later \ref exitScope.
  size_t mark() const { return Env.size(); }

  void bind(const std::string &Name, bool Affine, Info Data = Info()) {
    Env.push_back(Entry{Name, Affine, false, false, std::move(Data)});
  }

  /// Use the innermost binder of \p Name, consuming it if affine.
  /// Returns what was found and that binder (null when unbound).
  std::pair<Use, Entry *> use(const std::string &Name) {
    for (size_t I = Env.size(); I-- > 0;) {
      Entry &E = Env[I];
      if (E.Name != Name)
        continue;
      if (E.Blocked)
        return {Use::Blocked, &E};
      if (E.Affine) {
        if (E.Consumed)
          return {Use::Consumed, &E};
        E.Consumed = true;
      }
      return {Use::Ok, &E};
    }
    return {Use::Unbound, nullptr};
  }

  std::vector<bool> snapshot() const {
    std::vector<bool> Out;
    Out.reserve(Env.size());
    for (const Entry &E : Env)
      Out.push_back(E.Consumed);
    return Out;
  }

  void restore(const std::vector<bool> &Snap) {
    assert(Snap.size() <= Env.size());
    for (size_t I = 0; I < Snap.size(); ++I)
      Env[I].Consumed = Snap[I];
  }

  /// Consumed in either branch counts as consumed.
  void merge(const std::vector<bool> &BranchA,
             const std::vector<bool> &BranchB) {
    assert(BranchA.size() == BranchB.size());
    for (size_t I = 0; I < Env.size() && I < BranchA.size(); ++I)
      Env[I].Consumed = BranchA[I] || BranchB[I];
  }

  /// Make every available affine hypothesis unavailable (entering a `!`
  /// body). Returns what to pass to \ref unblock on the way out.
  std::vector<size_t> block() {
    std::vector<size_t> Blocked;
    for (size_t I = 0; I < Env.size(); ++I)
      if (Env[I].Affine && !Env[I].Blocked) {
        Env[I].Blocked = true;
        Blocked.push_back(I);
      }
    return Blocked;
  }

  void unblock(const std::vector<size_t> &Blocked) {
    for (size_t I : Blocked)
      Env[I].Blocked = false;
  }

  /// Leave the scope opened at \p Mark, first handing each affine
  /// hypothesis bound in it that was never consumed to \p OnWeakened.
  template <class F> void exitScope(size_t Mark, F &&OnWeakened) {
    for (size_t I = Mark; I < Env.size(); ++I)
      if (Env[I].Affine && !Env[I].Consumed)
        OnWeakened(static_cast<const Entry &>(Env[I]));
    Env.resize(Mark);
  }

  /// Leave the scope opened at \p Mark without inspecting it.
  void exitScope(size_t Mark) { Env.resize(Mark); }

private:
  std::vector<Entry> Env;
};

} // namespace logic
} // namespace typecoin

#endif // TYPECOIN_LOGIC_CONTEXT_H
