//===- tests/crypto/field_test.cpp - 5x52 field vs ModArith ---------------===//
//
// Every FieldElement op against an independent ModArith over p. The
// reference value of an operand is computed from its raw limbs,
// sum(N[i] * 2^(52i)) mod p, so the oracle shares no code with the
// 5x52 carry and fold logic under test.
//
// Operands come at the largest magnitude each op accepts, in three
// shapes: random limbs within the magnitude's bounds; every limb at its
// bound; and representatives of 0, 1, p - 1, p and 2^256 - 1, each the
// canonical limbs plus (2m - 1) copies of p's limbs, so that every
// limb sits near its bound too. Results must match the reference and
// fit the magnitude each op promises.
//
//===----------------------------------------------------------------------===//

#include "crypto/field.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

using Limbs = std::array<uint64_t, 5>;

constexpr uint64_t M52 = (1ull << 52) - 1;
constexpr uint64_t M48 = (1ull << 48) - 1;
/// p's canonical limbs.
constexpr Limbs PLimbs = {0xFFFFEFFFFFC2Full, M52, M52, M52, M48};

const ModArith &ref() {
  static const ModArith Ref(*U256::fromHex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
  return Ref;
}

/// sum(L[i] * 2^(52i)) mod p, by ModArith alone.
U256 refValue(const Limbs &L) {
  const ModArith &F = ref();
  U256 Acc = U256::zero();
  U256 Weight = U256::one();
  U256 Two52 = U256(1ull << 52);
  for (int I = 0; I < 5; ++I) {
    Acc = F.add(Acc, F.mul(F.reduce(U256(L[I])), Weight));
    Weight = F.mul(Weight, Two52);
  }
  return Acc;
}

/// True when \p L fits magnitude \p M.
bool fits(const Limbs &L, unsigned M) {
  for (int I = 0; I < 4; ++I)
    if (L[I] > 2 * M * M52)
      return false;
  return L[4] <= 2 * M * M48;
}

struct Operand {
  Limbs L;
  unsigned Mag;
  std::string What;

  FieldElement fe() const { return FieldElement::fromLimbs(L, Mag); }
  U256 value() const { return refValue(L); }
};

/// The canonical limbs of a 256-bit value (its base-2^52 digits).
Limbs digits(const U256 &V) {
  Limbs L{};
  for (int I = 0; I < 5; ++I)
    for (int B = 0; B < 52 && 52 * I + B < 256; ++B)
      if (V.bit(static_cast<unsigned>(52 * I + B)))
        L[I] |= 1ull << B;
  return L;
}

/// Operands at magnitude \p M: limb extremes first, then \p Random
/// random ones.
std::vector<Operand> operands(unsigned M, Rng &R, size_t Random) {
  std::vector<Operand> Out;
  Limbs Top{2 * M * M52, 2 * M * M52, 2 * M * M52, 2 * M * M52,
            2 * M * M48};
  Out.push_back({Top, M, "all limbs at bound"});
  U256 PMinus1 = ref().modulus();
  PMinus1.subInPlace(U256::one());
  U256 AllOnes;
  for (auto &Limb : AllOnes.Limbs)
    Limb = ~0ull;
  const std::pair<U256, const char *> Values[] = {
      {U256::zero(), "0"},
      {U256::one(), "1"},
      {PMinus1, "p - 1"},
      {ref().modulus(), "p"},
      {AllOnes, "2^256 - 1"}};
  for (const auto &[V, Name] : Values) {
    Limbs L = digits(V);
    Out.push_back({L, 1, std::string(Name) + " canonical"});
    for (int I = 0; I < 5; ++I)
      L[I] += (2 * M - 1) * PLimbs[I];
    Out.push_back({L, M, std::string(Name) + " + (2m-1)p"});
  }
  for (size_t I = 0; I < Random; ++I) {
    Limbs L;
    for (int J = 0; J < 5; ++J) {
      uint64_t Bound = J < 4 ? 2 * M * M52 : 2 * M * M48;
      // A quarter of the limbs sit at their bound; the rest are random.
      L[J] = R.nextBelow(4) == 0 ? Bound : R.next() % (Bound + 1);
    }
    Out.push_back({L, M, "random"});
  }
  return Out;
}

/// Random operands per magnitude and op.
constexpr size_t RandomCases = 400;

/// \p Got has the reference value \p Want and fits magnitude \p MagOut.
void expectFe(const FieldElement &Got, const U256 &Want, unsigned MagOut,
              const std::string &Ctx) {
  EXPECT_EQ(Got.toU256(), Want) << Ctx;
  EXPECT_TRUE(fits(Got.limbs(), MagOut))
      << Ctx << ": over magnitude " << MagOut;
}

TEST(Field, NormalizeMatchesReference) {
  Rng R(1);
  for (const Operand &A : operands(FieldElement::MaxMagnitude, R, RandomCases)) {
    U256 Want = A.value();
    FieldElement F = A.fe();
    F.normalize();
    EXPECT_EQ(F.toU256(), Want) << A.What;
    Limbs L = F.limbs();
    EXPECT_TRUE(L[0] <= M52 && L[1] <= M52 && L[2] <= M52 && L[3] <= M52 &&
                L[4] <= M48)
        << A.What;
    EXPECT_EQ(digits(Want), L) << A.What << ": not the canonical limbs";
    EXPECT_EQ(A.fe().isZero(), Want.isZero()) << A.What;
  }
}

TEST(Field, U256RoundTrip) {
  Rng R(2);
  for (const Operand &A : operands(1, R, RandomCases)) {
    U256 V = A.value();
    FieldElement F = FieldElement::fromU256(V);
    EXPECT_EQ(F.limbs(), digits(V)) << A.What;
    EXPECT_EQ(F.toU256(), V) << A.What;
  }
  // A value in [p, 2^256) converts at magnitude 1 and reduces.
  U256 AllOnes;
  for (auto &Limb : AllOnes.Limbs)
    Limb = ~0ull;
  EXPECT_EQ(FieldElement::fromU256(AllOnes).toU256(), ref().reduce(AllOnes));
  EXPECT_TRUE(FieldElement::fromU256(ref().modulus()).isZero());
}

TEST(Field, AddMatchesReference) {
  Rng R(3);
  // Every split of the magnitude budget 32 between the two addends.
  for (unsigned Ma : {1u, 16u, 31u}) {
    unsigned Mb = FieldElement::MaxMagnitude - Ma;
    std::vector<Operand> As = operands(Ma, R, RandomCases / 4);
    std::vector<Operand> Bs = operands(Mb, R, RandomCases / 4);
    for (size_t I = 0; I < As.size(); ++I) {
      const Operand &A = As[I], &B = Bs[(I * 7) % Bs.size()];
      expectFe(A.fe() + B.fe(), ref().add(A.value(), B.value()),
               FieldElement::MaxMagnitude, A.What + " + " + B.What);
    }
  }
}

TEST(Field, NegMatchesReference) {
  Rng R(4);
  for (unsigned M : {1u, 4u, FieldElement::MaxMagnitude - 1}) {
    for (const Operand &A : operands(M, R, RandomCases / 3)) {
      expectFe(A.fe().neg(M), ref().neg(A.value()), M + 1,
               "-(" + A.What + ") at m=" + std::to_string(M));
    }
  }
}

TEST(Field, MulIntMatchesReference) {
  Rng R(5);
  for (unsigned K : {0u, 1u, 2u, 3u, 8u, 32u}) {
    unsigned M = K == 0 ? FieldElement::MaxMagnitude
                        : FieldElement::MaxMagnitude / K;
    for (const Operand &A : operands(M, R, RandomCases / 6))
      expectFe(A.fe().mulInt(K), ref().mul(A.value(), U256(K)),
               K == 0 ? 1 : M * K,
               std::to_string(K) + " * (" + A.What + ")");
  }
}

TEST(Field, HalfMatchesReference) {
  Rng R(6);
  U256 InvTwo = ref().inverse(U256(2));
  for (unsigned M : {1u, 2u, 7u, FieldElement::MaxMagnitude - 1}) {
    for (const Operand &A : operands(M, R, RandomCases / 4))
      expectFe(A.fe().half(), ref().mul(A.value(), InvTwo), M / 2 + 1,
               "(" + A.What + ") / 2 at m=" + std::to_string(M));
  }
}

TEST(Field, MulMatchesReference) {
  Rng R(7);
  const unsigned M = FieldElement::MaxMulMagnitude;
  std::vector<Operand> As = operands(M, R, RandomCases);
  std::vector<Operand> Bs = operands(M, R, RandomCases);
  for (size_t I = 0; I < As.size(); ++I)
    for (size_t J : {I, (I * 5 + 3) % Bs.size()}) {
      const Operand &A = As[I], &B = Bs[J];
      expectFe(A.fe() * B.fe(), ref().mul(A.value(), B.value()), 1,
               A.What + " * " + B.What);
    }
}

TEST(Field, SqrMatchesReference) {
  Rng R(8);
  for (unsigned M : {1u, FieldElement::MaxMulMagnitude})
    for (const Operand &A : operands(M, R, RandomCases)) {
      U256 V = A.value();
      expectFe(A.fe().sqr(), ref().mul(V, V), 1, "(" + A.What + ")^2");
    }
}

TEST(Field, EqualityAcrossRepresentatives) {
  // p at magnitude 32 equals zero; p - 1 at magnitude 8 equals -1.
  Rng R(9);
  for (const Operand &A : operands(FieldElement::MaxMagnitude, R, 16))
    for (const Operand &B : operands(1, R, 16))
      EXPECT_EQ(A.fe() == B.fe(), A.value() == B.value())
          << A.What << " == " << B.What;
}

TEST(Field, InverseMatchesReference) {
  Rng R(10);
  for (const Operand &A : operands(FieldElement::MaxMagnitude, R, 64)) {
    U256 V = A.value();
    if (V.isZero())
      continue;
    FieldElement Inv = A.fe().inverse();
    EXPECT_EQ(Inv.toU256(), ref().inverse(V)) << A.What;
    EXPECT_TRUE(fits(Inv.limbs(), 1)) << A.What;
    EXPECT_EQ((Inv * FieldElement::fromU256(V)).toU256(), U256::one())
        << A.What;
  }
}

TEST(Field, SqrtMatchesEulerCriterion) {
  // A root exists exactly when a^((p-1)/2) is 0 or 1, and then it
  // squares back to a.
  U256 Half = ref().modulus();
  Half.shr1();
  Rng R(11);
  int Squares = 0, NonSquares = 0;
  for (const Operand &A : operands(FieldElement::MaxMulMagnitude, R, 200)) {
    U256 V = A.value();
    U256 Euler = ref().pow(V, Half);
    bool IsSquare = Euler.isZero() || Euler == U256::one();
    std::optional<FieldElement> Root = A.fe().sqrt();
    ASSERT_EQ(Root.has_value(), IsSquare) << A.What;
    ++(IsSquare ? Squares : NonSquares);
    if (!Root)
      continue;
    EXPECT_TRUE(fits(Root->limbs(), 1)) << A.What;
    U256 RootV = Root->toU256();
    EXPECT_EQ(ref().mul(RootV, RootV), V) << A.What;
    EXPECT_EQ(A.fe().jacobi(), V.isZero() ? 0 : 1) << A.What;
  }
  EXPECT_GT(Squares, 50);
  EXPECT_GT(NonSquares, 50);
}

TEST(Field, ChainedOpsStayInBounds) {
  // The point formulas' pattern: products at magnitude 1 summed and
  // negated up to the mul bound, then multiplied again, over a long
  // random walk. Each step is checked against the reference.
  Rng R(12);
  FieldElement A = FieldElement::fromU256(ref().reduce(U256(R.next())));
  U256 Va = A.toU256();
  for (int Step = 0; Step < 2000; ++Step) {
    U256 Vb = ref().reduce(U256(R.next()));
    FieldElement B = FieldElement::fromU256(Vb);
    FieldElement S = (A * B).mulInt(3).half();                    // [2]
    FieldElement T = S.neg(2) + A.sqr() + B + B;                  // [6]
    U256 Vs = ref().mul(ref().mul(Va, Vb), ref().mul(U256(3),
                                                     ref().inverse(U256(2))));
    U256 Vt = ref().add(ref().add(ref().neg(Vs), ref().mul(Va, Va)),
                        ref().add(Vb, Vb));
    ASSERT_EQ(T.toU256(), Vt) << "step " << Step;
    A = T * S;
    Va = ref().mul(Vt, Vs);
    ASSERT_EQ(A.toU256(), Va) << "step " << Step;
  }
}

} // namespace
