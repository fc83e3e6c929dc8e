//===- logic/condition.cpp - Conditions and entailment ----------------------===//

#include "logic/condition.h"

#include "lf/serialize.h"

#include <cassert>
#include <optional>

namespace typecoin {
namespace logic {

CondPtr cTrue() {
  static const CondPtr C = std::make_shared<Cond>(Cond::Tag::True);
  return C;
}

CondPtr cAnd(CondPtr L, CondPtr R) {
  auto C = std::make_shared<Cond>(Cond::Tag::And);
  C->L = std::move(L);
  C->R = std::move(R);
  return C;
}

CondPtr cNot(CondPtr Inner) {
  auto C = std::make_shared<Cond>(Cond::Tag::Not);
  C->L = std::move(Inner);
  return C;
}

CondPtr cBefore(lf::TermPtr Time) {
  auto C = std::make_shared<Cond>(Cond::Tag::Before);
  C->Time = std::move(Time);
  return C;
}

CondPtr cBefore(uint64_t Time) { return cBefore(lf::nat(Time)); }

CondPtr cSpent(std::string Txid, uint32_t Index) {
  auto C = std::make_shared<Cond>(Cond::Tag::Spent);
  C->Txid = std::move(Txid);
  C->Index = Index;
  return C;
}

CondPtr cUnspent(std::string Txid, uint32_t Index) {
  return cNot(cSpent(std::move(Txid), Index));
}

bool condEqual(const CondPtr &A, const CondPtr &B) {
  if (A.get() == B.get())
    return true;
  if (A->Kind != B->Kind)
    return false;
  switch (A->Kind) {
  case Cond::Tag::True:
    return true;
  case Cond::Tag::And:
    return condEqual(A->L, B->L) && condEqual(A->R, B->R);
  case Cond::Tag::Not:
    return condEqual(A->L, B->L);
  case Cond::Tag::Before:
    return lf::termEqual(A->Time, B->Time);
  case Cond::Tag::Spent:
    return A->Txid == B->Txid && A->Index == B->Index;
  }
  return false;
}

CondPtr shiftCond(const CondPtr &C, int Delta, unsigned Cutoff) {
  switch (C->Kind) {
  case Cond::Tag::True:
  case Cond::Tag::Spent:
    return C;
  case Cond::Tag::And:
    return cAnd(shiftCond(C->L, Delta, Cutoff),
                shiftCond(C->R, Delta, Cutoff));
  case Cond::Tag::Not:
    return cNot(shiftCond(C->L, Delta, Cutoff));
  case Cond::Tag::Before:
    return cBefore(lf::shiftTerm(C->Time, Delta, Cutoff));
  }
  return C;
}

CondPtr substCond(const CondPtr &C, unsigned Index,
                  const lf::TermPtr &Value) {
  switch (C->Kind) {
  case Cond::Tag::True:
  case Cond::Tag::Spent:
    return C;
  case Cond::Tag::And:
    return cAnd(substCond(C->L, Index, Value),
                substCond(C->R, Index, Value));
  case Cond::Tag::Not:
    return cNot(substCond(C->L, Index, Value));
  case Cond::Tag::Before:
    return cBefore(lf::substTerm(C->Time, Index, Value));
  }
  return C;
}

static bool termHasFreeVar(const lf::TermPtr &T, unsigned Index) {
  using lf::Term;
  switch (T->Kind) {
  case Term::Tag::Var:
    return T->VarIndex == Index;
  case Term::Tag::Const:
  case Term::Tag::Principal:
  case Term::Tag::Nat:
    return false;
  case Term::Tag::Lam:
    return termHasFreeVar(T->Body, Index + 1);
  case Term::Tag::App:
    return termHasFreeVar(T->Fn, Index) || termHasFreeVar(T->Arg, Index);
  }
  return false;
}

bool condHasFreeVar(const CondPtr &C, unsigned Index) {
  switch (C->Kind) {
  case Cond::Tag::True:
  case Cond::Tag::Spent:
    return false;
  case Cond::Tag::And:
    return condHasFreeVar(C->L, Index) || condHasFreeVar(C->R, Index);
  case Cond::Tag::Not:
    return condHasFreeVar(C->L, Index);
  case Cond::Tag::Before:
    return termHasFreeVar(C->Time, Index);
  }
  return false;
}

std::string printCond(const CondPtr &C) {
  switch (C->Kind) {
  case Cond::Tag::True:
    return "true";
  case Cond::Tag::And:
    return "(" + printCond(C->L) + " /\\ " + printCond(C->R) + ")";
  case Cond::Tag::Not:
    return "~" + printCond(C->L);
  case Cond::Tag::Before:
    return "before(" + lf::printTerm(C->Time) + ")";
  case Cond::Tag::Spent:
    return "spent(" + C->Txid.substr(0, 8) + "." +
           std::to_string(C->Index) + ")";
  }
  return "?";
}

void writeCond(Writer &W, const CondPtr &C) {
  W.writeU8(static_cast<uint8_t>(C->Kind));
  switch (C->Kind) {
  case Cond::Tag::True:
    break;
  case Cond::Tag::And:
    writeCond(W, C->L);
    writeCond(W, C->R);
    break;
  case Cond::Tag::Not:
    writeCond(W, C->L);
    break;
  case Cond::Tag::Before:
    lf::writeTerm(W, C->Time);
    break;
  case Cond::Tag::Spent:
    W.writeString(C->Txid);
    W.writeU32(C->Index);
    break;
  }
}

Result<CondPtr> readCond(Reader &R) {
  Reader::Nest Level(R);
  TC_TRY(Level.check());
  TC_UNWRAP(Tag, R.readU8());
  switch (static_cast<Cond::Tag>(Tag)) {
  case Cond::Tag::True:
    return cTrue();
  case Cond::Tag::And: {
    TC_UNWRAP(L, readCond(R));
    TC_UNWRAP(Right, readCond(R));
    return cAnd(L, Right);
  }
  case Cond::Tag::Not: {
    TC_UNWRAP(L, readCond(R));
    return cNot(L);
  }
  case Cond::Tag::Before: {
    TC_UNWRAP(Time, lf::readTerm(R));
    return cBefore(Time);
  }
  case Cond::Tag::Spent: {
    TC_UNWRAP(Txid, R.readString());
    TC_UNWRAP(Index, R.readU32());
    return cSpent(Txid, Index);
  }
  }
  return makeError("logic: bad condition tag");
}

// Entailment -----------------------------------------------------------------

namespace {

/// One decomposition pass: returns true if a rule applied (sequent(s)
/// pushed onto Work replaced the current one).
[[maybe_unused]] bool atomic(const CondPtr &C) {
  return C->Kind == Cond::Tag::Before || C->Kind == Cond::Tag::Spent;
}

std::optional<uint64_t> literalTime(const CondPtr &C) {
  assert(C->Kind == Cond::Tag::Before);
  auto Norm = lf::normalizeTerm(C->Time);
  if (!Norm || (*Norm)->Kind != lf::Term::Tag::Nat)
    return std::nullopt;
  return (*Norm)->NatValue;
}

bool prove(std::vector<CondPtr> Left, std::vector<CondPtr> Right,
           unsigned Depth) {
  if (Depth > 10000)
    return false; // Defensive; rule applications strictly shrink size.

  // Decompose the left side.
  for (size_t I = 0; I < Left.size(); ++I) {
    const CondPtr C = Left[I];
    switch (C->Kind) {
    case Cond::Tag::True:
      Left.erase(Left.begin() + static_cast<ptrdiff_t>(I));
      return prove(std::move(Left), std::move(Right), Depth + 1);
    case Cond::Tag::And: {
      Left[I] = C->L;
      Left.push_back(C->R);
      return prove(std::move(Left), std::move(Right), Depth + 1);
    }
    case Cond::Tag::Not: {
      Left.erase(Left.begin() + static_cast<ptrdiff_t>(I));
      Right.push_back(C->L);
      return prove(std::move(Left), std::move(Right), Depth + 1);
    }
    default:
      break;
    }
  }
  // Decompose the right side.
  for (size_t I = 0; I < Right.size(); ++I) {
    const CondPtr C = Right[I];
    switch (C->Kind) {
    case Cond::Tag::True:
      return true; // true-R axiom.
    case Cond::Tag::And: {
      // Prove both branches.
      std::vector<CondPtr> R1 = Right, R2 = Right;
      R1[I] = C->L;
      R2[I] = C->R;
      return prove(Left, std::move(R1), Depth + 1) &&
             prove(std::move(Left), std::move(R2), Depth + 1);
    }
    case Cond::Tag::Not: {
      Right.erase(Right.begin() + static_cast<ptrdiff_t>(I));
      Left.push_back(C->L);
      return prove(std::move(Left), std::move(Right), Depth + 1);
    }
    default:
      break;
    }
  }

  // Atomic phase: initial sequents.
  for (const CondPtr &L : Left) {
    assert(atomic(L));
    for (const CondPtr &R : Right) {
      if (condEqual(L, R))
        return true;
      if (L->Kind == Cond::Tag::Before && R->Kind == Cond::Tag::Before) {
        auto TL = literalTime(L), TR = literalTime(R);
        if (TL && TR && *TL <= *TR)
          return true;
      }
    }
  }
  return false;
}

} // namespace

bool condEntails(const std::vector<CondPtr> &Left,
                 const std::vector<CondPtr> &Right) {
  return prove(Left, Right, 0);
}

bool condEntails(const CondPtr &Phi, const CondPtr &PhiPrime) {
  return condEntails(std::vector<CondPtr>{Phi},
                     std::vector<CondPtr>{PhiPrime});
}

Result<bool> evalCond(const CondPtr &C, const CondOracle &Oracle) {
  switch (C->Kind) {
  case Cond::Tag::True:
    return true;
  case Cond::Tag::And: {
    TC_UNWRAP(L, evalCond(C->L, Oracle));
    if (!L)
      return false;
    return evalCond(C->R, Oracle);
  }
  case Cond::Tag::Not: {
    TC_UNWRAP(Inner, evalCond(C->L, Oracle));
    return !Inner;
  }
  case Cond::Tag::Before: {
    auto T = literalTime(C);
    if (!T)
      return makeError("logic: before() with a non-literal time");
    return Oracle.evaluationTime() < *T;
  }
  case Cond::Tag::Spent:
    return Oracle.isSpent(C->Txid, C->Index);
  }
  return makeError("logic: malformed condition");
}

} // namespace logic
} // namespace typecoin
