//===- logic/proposition.cpp - Affine propositions ---------------------------===//

#include "logic/proposition.h"

#include "logic/intern.h"

#include <cassert>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace typecoin {
namespace logic {

using lf::LFType;
using lf::LFTypePtr;
using lf::TermPtr;

// Constructors ---------------------------------------------------------------

PropPtr pAtom(LFTypePtr Applied) {
  auto P = std::make_shared<Prop>(Prop::Tag::Atom);
  P->Atom = std::move(Applied);
  return internProp(std::move(P));
}

PropPtr pAtom(lf::ConstName Head, const std::vector<TermPtr> &Args) {
  return pAtom(lf::tApps(lf::tConst(std::move(Head)), Args));
}

static PropPtr binary(Prop::Tag Kind, PropPtr L, PropPtr R) {
  auto P = std::make_shared<Prop>(Kind);
  P->L = std::move(L);
  P->R = std::move(R);
  return internProp(std::move(P));
}

PropPtr pTensor(PropPtr L, PropPtr R) {
  return binary(Prop::Tag::Tensor, std::move(L), std::move(R));
}

PropPtr pTensorAll(const std::vector<PropPtr> &Ps) {
  if (Ps.empty())
    return pOne();
  PropPtr Out = Ps.back();
  for (size_t I = Ps.size() - 1; I-- > 0;)
    Out = pTensor(Ps[I], Out);
  return Out;
}

PropPtr pLolli(PropPtr L, PropPtr R) {
  return binary(Prop::Tag::Lolli, std::move(L), std::move(R));
}

PropPtr pWith(PropPtr L, PropPtr R) {
  return binary(Prop::Tag::With, std::move(L), std::move(R));
}

PropPtr pPlus(PropPtr L, PropPtr R) {
  return binary(Prop::Tag::Plus, std::move(L), std::move(R));
}

PropPtr pZero() {
  static const PropPtr P = std::make_shared<Prop>(Prop::Tag::Zero);
  return P;
}

PropPtr pOne() {
  static const PropPtr P = std::make_shared<Prop>(Prop::Tag::One);
  return P;
}

PropPtr pBang(PropPtr Body) {
  auto P = std::make_shared<Prop>(Prop::Tag::Bang);
  P->Body = std::move(Body);
  return internProp(std::move(P));
}

PropPtr pForall(LFTypePtr QType, PropPtr Body) {
  auto P = std::make_shared<Prop>(Prop::Tag::Forall);
  P->QType = std::move(QType);
  P->Body = std::move(Body);
  return internProp(std::move(P));
}

PropPtr pExists(LFTypePtr QType, PropPtr Body) {
  auto P = std::make_shared<Prop>(Prop::Tag::Exists);
  P->QType = std::move(QType);
  P->Body = std::move(Body);
  return internProp(std::move(P));
}

PropPtr pSays(TermPtr Who, PropPtr Body) {
  auto P = std::make_shared<Prop>(Prop::Tag::Says);
  P->Who = std::move(Who);
  P->Body = std::move(Body);
  return internProp(std::move(P));
}

PropPtr pReceipt(PropPtr Body, uint64_t Amount, TermPtr Who) {
  auto P = std::make_shared<Prop>(Prop::Tag::Receipt);
  P->Body = std::move(Body);
  P->Amount = Amount;
  P->Who = std::move(Who);
  return internProp(std::move(P));
}

PropPtr pIf(CondPtr C, PropPtr Body) {
  auto P = std::make_shared<Prop>(Prop::Tag::If);
  P->Cond = std::move(C);
  P->Body = std::move(Body);
  return internProp(std::move(P));
}

// Shifting / substitution ------------------------------------------------------

PropPtr shiftProp(const PropPtr &P, int Delta, unsigned Cutoff) {
  if (Delta == 0)
    return P;
  switch (P->Kind) {
  case Prop::Tag::Atom:
    return pAtom(lf::shiftType(P->Atom, Delta, Cutoff));
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    return binary(P->Kind, shiftProp(P->L, Delta, Cutoff),
                  shiftProp(P->R, Delta, Cutoff));
  case Prop::Tag::Zero:
  case Prop::Tag::One:
    return P;
  case Prop::Tag::Bang:
    return pBang(shiftProp(P->Body, Delta, Cutoff));
  case Prop::Tag::Forall:
    return pForall(lf::shiftType(P->QType, Delta, Cutoff),
                   shiftProp(P->Body, Delta, Cutoff + 1));
  case Prop::Tag::Exists:
    return pExists(lf::shiftType(P->QType, Delta, Cutoff),
                   shiftProp(P->Body, Delta, Cutoff + 1));
  case Prop::Tag::Says:
    return pSays(lf::shiftTerm(P->Who, Delta, Cutoff),
                 shiftProp(P->Body, Delta, Cutoff));
  case Prop::Tag::Receipt:
    return pReceipt(P->Body ? shiftProp(P->Body, Delta, Cutoff) : nullptr,
                    P->Amount, lf::shiftTerm(P->Who, Delta, Cutoff));
  case Prop::Tag::If:
    return pIf(shiftCond(P->Cond, Delta, Cutoff),
               shiftProp(P->Body, Delta, Cutoff));
  }
  return P;
}

PropPtr substProp(const PropPtr &P, unsigned Index, const TermPtr &Value) {
  switch (P->Kind) {
  case Prop::Tag::Atom:
    return pAtom(lf::substType(P->Atom, Index, Value));
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    return binary(P->Kind, substProp(P->L, Index, Value),
                  substProp(P->R, Index, Value));
  case Prop::Tag::Zero:
  case Prop::Tag::One:
    return P;
  case Prop::Tag::Bang:
    return pBang(substProp(P->Body, Index, Value));
  case Prop::Tag::Forall:
    return pForall(lf::substType(P->QType, Index, Value),
                   substProp(P->Body, Index + 1, lf::shiftTerm(Value, 1)));
  case Prop::Tag::Exists:
    return pExists(lf::substType(P->QType, Index, Value),
                   substProp(P->Body, Index + 1, lf::shiftTerm(Value, 1)));
  case Prop::Tag::Says:
    return pSays(lf::substTerm(P->Who, Index, Value),
                 substProp(P->Body, Index, Value));
  case Prop::Tag::Receipt:
    return pReceipt(P->Body ? substProp(P->Body, Index, Value) : nullptr,
                    P->Amount, lf::substTerm(P->Who, Index, Value));
  case Prop::Tag::If:
    return pIf(substCond(P->Cond, Index, Value),
               substProp(P->Body, Index, Value));
  }
  return P;
}

static bool typeFree(const LFTypePtr &T, unsigned Index);

static bool termFree(const TermPtr &T, unsigned Index) {
  using lf::Term;
  switch (T->Kind) {
  case Term::Tag::Var:
    return T->VarIndex == Index;
  case Term::Tag::Const:
  case Term::Tag::Principal:
  case Term::Tag::Nat:
    return false;
  case Term::Tag::Lam:
    return typeFree(T->Annot, Index) || termFree(T->Body, Index + 1);
  case Term::Tag::App:
    return termFree(T->Fn, Index) || termFree(T->Arg, Index);
  }
  return false;
}

static bool typeFree(const LFTypePtr &T, unsigned Index) {
  switch (T->Kind) {
  case LFType::Tag::Const:
    return false;
  case LFType::Tag::App:
    return typeFree(T->Head, Index) || termFree(T->Arg, Index);
  case LFType::Tag::Pi:
    return typeFree(T->Head, Index) || typeFree(T->Cod, Index + 1);
  }
  return false;
}

bool propHasFreeVar(const PropPtr &P, unsigned Index) {
  switch (P->Kind) {
  case Prop::Tag::Atom:
    return typeFree(P->Atom, Index);
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    return propHasFreeVar(P->L, Index) || propHasFreeVar(P->R, Index);
  case Prop::Tag::Zero:
  case Prop::Tag::One:
    return false;
  case Prop::Tag::Bang:
    return propHasFreeVar(P->Body, Index);
  case Prop::Tag::Forall:
  case Prop::Tag::Exists:
    return typeFree(P->QType, Index) ||
           propHasFreeVar(P->Body, Index + 1);
  case Prop::Tag::Says:
    return termFree(P->Who, Index) || propHasFreeVar(P->Body, Index);
  case Prop::Tag::Receipt:
    return (P->Body && propHasFreeVar(P->Body, Index)) ||
           termFree(P->Who, Index);
  case Prop::Tag::If:
    return condHasFreeVar(P->Cond, Index) ||
           propHasFreeVar(P->Body, Index);
  }
  return false;
}

bool propEqual(const PropPtr &A, const PropPtr &B) {
  if (A.get() == B.get())
    return true;
  if (A->Kind != B->Kind)
    return false;
  switch (A->Kind) {
  case Prop::Tag::Atom:
    return lf::typeEqual(A->Atom, B->Atom);
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    return propEqual(A->L, B->L) && propEqual(A->R, B->R);
  case Prop::Tag::Zero:
  case Prop::Tag::One:
    return true;
  case Prop::Tag::Bang:
    return propEqual(A->Body, B->Body);
  case Prop::Tag::Forall:
  case Prop::Tag::Exists:
    return lf::typeEqual(A->QType, B->QType) &&
           propEqual(A->Body, B->Body);
  case Prop::Tag::Says:
    return lf::termEqual(A->Who, B->Who) && propEqual(A->Body, B->Body);
  case Prop::Tag::Receipt:
    if ((A->Body == nullptr) != (B->Body == nullptr))
      return false;
    return (!A->Body || propEqual(A->Body, B->Body)) &&
           A->Amount == B->Amount && lf::termEqual(A->Who, B->Who);
  case Prop::Tag::If:
    return condEqual(A->Cond, B->Cond) && propEqual(A->Body, B->Body);
  }
  return false;
}

PropPtr resolveProp(const PropPtr &P, const std::string &Txid) {
  switch (P->Kind) {
  case Prop::Tag::Atom:
    return pAtom(lf::resolveType(P->Atom, Txid));
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    return binary(P->Kind, resolveProp(P->L, Txid),
                  resolveProp(P->R, Txid));
  case Prop::Tag::Zero:
  case Prop::Tag::One:
    return P;
  case Prop::Tag::Bang:
    return pBang(resolveProp(P->Body, Txid));
  case Prop::Tag::Forall:
    return pForall(lf::resolveType(P->QType, Txid),
                   resolveProp(P->Body, Txid));
  case Prop::Tag::Exists:
    return pExists(lf::resolveType(P->QType, Txid),
                   resolveProp(P->Body, Txid));
  case Prop::Tag::Says:
    return pSays(lf::resolveTerm(P->Who, Txid), resolveProp(P->Body, Txid));
  case Prop::Tag::Receipt:
    return pReceipt(P->Body ? resolveProp(P->Body, Txid) : nullptr,
                    P->Amount, lf::resolveTerm(P->Who, Txid));
  case Prop::Tag::If:
    return pIf(P->Cond, resolveProp(P->Body, Txid));
  }
  return P;
}

bool propHasLocal(const PropPtr &P) {
  switch (P->Kind) {
  case Prop::Tag::Atom:
    return lf::typeHasLocal(P->Atom);
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    return propHasLocal(P->L) || propHasLocal(P->R);
  case Prop::Tag::Zero:
  case Prop::Tag::One:
    return false;
  case Prop::Tag::Bang:
    return propHasLocal(P->Body);
  case Prop::Tag::Forall:
  case Prop::Tag::Exists:
    return lf::typeHasLocal(P->QType) || propHasLocal(P->Body);
  case Prop::Tag::Says:
    return lf::termHasLocal(P->Who) || propHasLocal(P->Body);
  case Prop::Tag::Receipt:
    return (P->Body && propHasLocal(P->Body)) || lf::termHasLocal(P->Who);
  case Prop::Tag::If:
    return propHasLocal(P->Body);
  }
  return false;
}

// Printing ---------------------------------------------------------------------

static std::string printPropPrec(const PropPtr &P, int Prec) {
  auto Wrap = [&](int Needed, std::string S) {
    return Prec > Needed ? "(" + std::move(S) + ")" : std::move(S);
  };
  switch (P->Kind) {
  case Prop::Tag::Atom:
    return lf::printType(P->Atom);
  case Prop::Tag::Tensor:
    return Wrap(2, printPropPrec(P->L, 3) + " (x) " +
                       printPropPrec(P->R, 2));
  case Prop::Tag::Lolli:
    return Wrap(1, printPropPrec(P->L, 2) + " -o " +
                       printPropPrec(P->R, 1));
  case Prop::Tag::With:
    return Wrap(2, printPropPrec(P->L, 3) + " & " + printPropPrec(P->R, 2));
  case Prop::Tag::Plus:
    return Wrap(2, printPropPrec(P->L, 3) + " (+) " +
                       printPropPrec(P->R, 2));
  case Prop::Tag::Zero:
    return "0";
  case Prop::Tag::One:
    return "1";
  case Prop::Tag::Bang:
    return "!" + printPropPrec(P->Body, 4);
  case Prop::Tag::Forall:
    return Wrap(0, "forall :" + lf::printType(P->QType) + ". " +
                       printPropPrec(P->Body, 0));
  case Prop::Tag::Exists:
    return Wrap(0, "exists :" + lf::printType(P->QType) + ". " +
                       printPropPrec(P->Body, 0));
  case Prop::Tag::Says:
    return "<" + lf::printTerm(P->Who) + "> " + printPropPrec(P->Body, 4);
  case Prop::Tag::Receipt: {
    std::string Inner;
    if (P->Body)
      Inner = printPropPrec(P->Body, 0);
    if (P->Amount) {
      if (!Inner.empty())
        Inner += "/";
      Inner += std::to_string(P->Amount);
    }
    return "receipt(" + Inner + " ->> " + lf::printTerm(P->Who) + ")";
  }
  case Prop::Tag::If:
    return "if(" + printCond(P->Cond) + ", " + printPropPrec(P->Body, 0) +
           ")";
  }
  return "?";
}

std::string printProp(const PropPtr &P) { return printPropPrec(P, 0); }

// Serialization ------------------------------------------------------------------
//
// Propositions are routinely DAGs: substitution, pTensorAll, and the
// example workloads reference the same subtree from several parents. A
// naive tree walk re-serializes (and re-parses) each shared subtree once
// per *reference*, which is exponential in DAG depth. The write side
// below remembers the byte span each shared node produced and re-appends
// it with one bulk copy; the read side remembers which spans decoded to
// which nodes and, on seeing the same bytes again, reuses the node and
// skips the span. The wire format is unchanged either way.

namespace {
/// Write-side memo: shared node -> (offset, length) of its first
/// serialization in this writer's buffer.
using WriteMemo = std::unordered_map<const Prop *, std::pair<size_t, size_t>>;

/// Read-side intern table over one buffer: spans already decoded,
/// bucketed by their first 8 bytes. Soundness: parsing is deterministic
/// and each position has exactly one parse, so if the bytes at the
/// current position equal a previously decoded span, decoding here would
/// yield an equal node consuming exactly that many bytes.
struct ReadIntern {
  struct Entry {
    size_t Off;
    size_t Len;
    PropPtr P;
  };
  std::unordered_map<uint64_t, std::vector<Entry>> Buckets;
  size_t Entries = 0;

  /// Spans shorter than this are cheaper to re-parse than to look up.
  static constexpr size_t MinSpan = 16;
  static constexpr size_t MaxPerBucket = 8;
  static constexpr size_t MaxEntries = 1 << 16;
};

uint64_t spanPrefix(const uint8_t *Data) {
  uint64_t V;
  __builtin_memcpy(&V, Data, sizeof(V));
  return V;
}
} // namespace

static void writePropMemo(Writer &W, const PropPtr &P, WriteMemo &Memo) {
  // use_count() > 1 marks nodes that can possibly recur in this walk;
  // unique nodes skip the map entirely, so pure trees pay nothing.
  bool Shared = P.use_count() > 1;
  if (Shared) {
    auto It = Memo.find(P.get());
    if (It != Memo.end()) {
      W.copyFromSelf(It->second.first, It->second.second);
      return;
    }
  }
  size_t Start = W.size();
  W.writeU8(static_cast<uint8_t>(P->Kind));
  switch (P->Kind) {
  case Prop::Tag::Atom:
    lf::writeType(W, P->Atom);
    break;
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    writePropMemo(W, P->L, Memo);
    writePropMemo(W, P->R, Memo);
    break;
  case Prop::Tag::Zero:
  case Prop::Tag::One:
    break;
  case Prop::Tag::Bang:
    writePropMemo(W, P->Body, Memo);
    break;
  case Prop::Tag::Forall:
  case Prop::Tag::Exists:
    lf::writeType(W, P->QType);
    writePropMemo(W, P->Body, Memo);
    break;
  case Prop::Tag::Says:
    lf::writeTerm(W, P->Who);
    writePropMemo(W, P->Body, Memo);
    break;
  case Prop::Tag::Receipt:
    W.writeU8(P->Body ? 1 : 0);
    if (P->Body)
      writePropMemo(W, P->Body, Memo);
    W.writeU64(P->Amount);
    lf::writeTerm(W, P->Who);
    break;
  case Prop::Tag::If:
    writeCond(W, P->Cond);
    writePropMemo(W, P->Body, Memo);
    break;
  }
  if (Shared)
    Memo.emplace(P.get(), std::make_pair(Start, W.size() - Start));
}

void writeProp(Writer &W, const PropPtr &P) {
  WriteMemo Memo;
  writePropMemo(W, P, Memo);
}

static Result<PropPtr> readPropIntern(Reader &R, ReadIntern &Intern) {
  size_t Start = R.pos();
  if (R.remaining() >= sizeof(uint64_t)) {
    auto It = Intern.Buckets.find(spanPrefix(R.data() + Start));
    if (It != Intern.Buckets.end())
      for (const ReadIntern::Entry &E : It->second)
        if (E.Len <= R.remaining() &&
            std::memcmp(R.data() + Start, R.data() + E.Off, E.Len) == 0) {
          TC_TRY(R.skip(E.Len));
          return E.P;
        }
  }

  Reader::Nest Level(R);
  TC_TRY(Level.check());
  PropPtr Out;
  TC_UNWRAP(Tag, R.readU8());
  switch (static_cast<Prop::Tag>(Tag)) {
  case Prop::Tag::Atom: {
    TC_UNWRAP(T, lf::readType(R));
    Out = pAtom(T);
    break;
  }
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus: {
    TC_UNWRAP(L, readPropIntern(R, Intern));
    TC_UNWRAP(Right, readPropIntern(R, Intern));
    Out = binary(static_cast<Prop::Tag>(Tag), L, Right);
    break;
  }
  case Prop::Tag::Zero:
    Out = pZero();
    break;
  case Prop::Tag::One:
    Out = pOne();
    break;
  case Prop::Tag::Bang: {
    TC_UNWRAP(Body, readPropIntern(R, Intern));
    Out = pBang(Body);
    break;
  }
  case Prop::Tag::Forall:
  case Prop::Tag::Exists: {
    TC_UNWRAP(QType, lf::readType(R));
    TC_UNWRAP(Body, readPropIntern(R, Intern));
    Out = static_cast<Prop::Tag>(Tag) == Prop::Tag::Forall
              ? pForall(QType, Body)
              : pExists(QType, Body);
    break;
  }
  case Prop::Tag::Says: {
    TC_UNWRAP(Who, lf::readTerm(R));
    TC_UNWRAP(Body, readPropIntern(R, Intern));
    Out = pSays(Who, Body);
    break;
  }
  case Prop::Tag::Receipt: {
    TC_UNWRAP(HasBody, R.readU8());
    if (HasBody > 1)
      return makeError("logic: receipt body flag is not 0 or 1");
    PropPtr Body;
    if (HasBody) {
      TC_UNWRAP(B, readPropIntern(R, Intern));
      Body = B;
    }
    TC_UNWRAP(Amount, R.readU64());
    TC_UNWRAP(Who, lf::readTerm(R));
    Out = pReceipt(Body, Amount, Who);
    break;
  }
  case Prop::Tag::If: {
    TC_UNWRAP(C, readCond(R));
    TC_UNWRAP(Body, readPropIntern(R, Intern));
    Out = pIf(C, Body);
    break;
  }
  default:
    return makeError("logic: bad proposition tag");
  }

  size_t Len = R.pos() - Start;
  if (Len >= ReadIntern::MinSpan && Intern.Entries < ReadIntern::MaxEntries) {
    std::vector<ReadIntern::Entry> &Bucket =
        Intern.Buckets[spanPrefix(R.data() + Start)];
    if (Bucket.size() < ReadIntern::MaxPerBucket) {
      Bucket.push_back(ReadIntern::Entry{Start, Len, Out});
      ++Intern.Entries;
    }
  }
  return Out;
}

Result<PropPtr> readProp(Reader &R) {
  ReadIntern Intern;
  return readPropIntern(R, Intern);
}

crypto::Digest32 propDigest(const PropPtr &P) {
  // Per-node memo: the digest lives on the Prop itself (no global map,
  // no pointer-reuse hazard, nothing to evict). A racing recompute on
  // the same node produces the same bytes; the striped lock only
  // serializes the publish so the release-store of DigestState can
  // never expose a half-written DigestCache.
  if (P->DigestState.load(std::memory_order_acquire) == 2)
    return P->DigestCache;
  Writer W;
  writeProp(W, P);
  crypto::Digest32 D = crypto::sha256(W.buffer());
  static std::mutex Stripes[16];
  std::mutex &Mu =
      Stripes[(reinterpret_cast<uintptr_t>(P.get()) >> 4) & 15];
  std::lock_guard<std::mutex> L(Mu);
  if (P->DigestState.load(std::memory_order_relaxed) == 0) {
    P->DigestCache = D;
    P->DigestState.store(2, std::memory_order_release);
  }
  return D;
}

// Formation ---------------------------------------------------------------------

static Status checkCondFormation(const lf::Signature &Sig,
                                 const lf::Context &Psi, const CondPtr &C) {
  switch (C->Kind) {
  case Cond::Tag::True:
    return Status::success();
  case Cond::Tag::And:
    TC_TRY(checkCondFormation(Sig, Psi, C->L));
    return checkCondFormation(Sig, Psi, C->R);
  case Cond::Tag::Not:
    return checkCondFormation(Sig, Psi, C->L);
  case Cond::Tag::Before:
    return lf::checkTerm(Sig, Psi, C->Time, lf::natType());
  case Cond::Tag::Spent:
    if (C->Txid.size() != 64)
      return makeError("logic: spent() txid must be 64 hex digits");
    return Status::success();
  }
  return makeError("logic: malformed condition");
}

Status checkProp(const lf::Signature &Sig, const lf::Context &Psi,
                 const PropPtr &P) {
  switch (P->Kind) {
  case Prop::Tag::Atom:
    return lf::checkPropAtom(Sig, Psi, P->Atom);
  case Prop::Tag::Tensor:
  case Prop::Tag::Lolli:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    TC_TRY(checkProp(Sig, Psi, P->L));
    return checkProp(Sig, Psi, P->R);
  case Prop::Tag::Zero:
  case Prop::Tag::One:
    return Status::success();
  case Prop::Tag::Bang:
    return checkProp(Sig, Psi, P->Body);
  case Prop::Tag::Forall:
  case Prop::Tag::Exists: {
    TC_UNWRAP(QKind, lf::kindOfType(Sig, Psi, P->QType));
    if (QKind->KindTag != lf::Kind::Tag::Type)
      return makeError("logic: quantifier domain must have kind type");
    lf::Context Extended = Psi;
    Extended.push_back(P->QType);
    return checkProp(Sig, Extended, P->Body);
  }
  case Prop::Tag::Says:
    TC_TRY(lf::checkTerm(Sig, Psi, P->Who, lf::principalType()));
    return checkProp(Sig, Psi, P->Body);
  case Prop::Tag::Receipt:
    if (P->Body)
      TC_TRY(checkProp(Sig, Psi, P->Body));
    if (!P->Body && P->Amount == 0)
      return makeError("logic: receipt must carry a type or an amount");
    return lf::checkTerm(Sig, Psi, P->Who, lf::principalType());
  case Prop::Tag::If:
    TC_TRY(checkCondFormation(Sig, Psi, P->Cond));
    return checkProp(Sig, Psi, P->Body);
  }
  return makeError("logic: malformed proposition");
}

// Freshness ------------------------------------------------------------------------

Status checkTypeFresh(const lf::LFTypePtr &T) {
  switch (T->Kind) {
  case LFType::Tag::Const:
    if (!T->Name.isLocal())
      return makeError("freshness: non-local constant " +
                       T->Name.toString() + " in producible position");
    return Status::success();
  case LFType::Tag::App:
    return checkTypeFresh(T->Head);
  case LFType::Tag::Pi:
    // The domain is to the left of the arrow: unrestricted.
    return checkTypeFresh(T->Cod);
  }
  return makeError("freshness: malformed type");
}

Status checkPropFresh(const PropPtr &P) {
  switch (P->Kind) {
  case Prop::Tag::Atom:
    return checkTypeFresh(P->Atom);
  case Prop::Tag::Lolli:
    // The left of a lolli is unrestricted: restricted forms may be
    // consumed there.
    return checkPropFresh(P->R);
  case Prop::Tag::Tensor:
  case Prop::Tag::With:
  case Prop::Tag::Plus:
    TC_TRY(checkPropFresh(P->L));
    return checkPropFresh(P->R);
  case Prop::Tag::Zero:
    return makeError("freshness: 0 is a restricted form");
  case Prop::Tag::One:
    return Status::success();
  case Prop::Tag::Bang:
    return checkPropFresh(P->Body);
  case Prop::Tag::Forall:
    // The quantifier domain is unrestricted, like a lolli's left side.
    return checkPropFresh(P->Body);
  case Prop::Tag::Exists:
    TC_TRY(checkTypeFresh(P->QType));
    return checkPropFresh(P->Body);
  case Prop::Tag::Says:
    return makeError("freshness: affirmations are restricted forms");
  case Prop::Tag::Receipt:
    return makeError("freshness: receipts are restricted forms");
  case Prop::Tag::If:
    return checkPropFresh(P->Body);
  }
  return makeError("freshness: malformed proposition");
}

} // namespace logic
} // namespace typecoin
