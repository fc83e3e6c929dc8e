//===- fuzz/fuzz_field.cpp - libFuzzer: 5x52 field vs ModArith ------------===//
//
// Differential target for crypto::FieldElement. Lazy-reduction faults
// live at limb carries that random tests rarely reach, so every
// operand and every op here is steered to its limb and magnitude
// bounds, and each result is checked against a ModArith over p:
//
//  * the input opens with four registers, each a magnitude in [1, 8]
//    and five raw limbs, clamped into that magnitude's bounds (a limb
//    whose low two bits are 0 sits exactly at its bound);
//  * the rest is a script of 3-byte steps. Each step first grows one
//    register's magnitude to the limit of one lazy op (repeated add, a
//    negation to magnitude 32, the largest multiply-by-small, or a half
//    from magnitude 31), then brings it back to mul range (by halving
//    or a normalization) and runs one of mul, sqr, normalize,
//    inverse or the square root.
//
// After every op the target aborts if the element's normalized value
// differs from the reference, or if its limbs exceed the magnitude the
// op promises.
//
// Build with -DTYPECOIN_FUZZ=ON (requires clang's -fsanitize=fuzzer).
//
//===----------------------------------------------------------------------===//

#include "crypto/field.h"

#include <cstddef>
#include <cstdint>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

constexpr uint64_t M52 = (1ull << 52) - 1;
constexpr uint64_t M48 = (1ull << 48) - 1;
constexpr unsigned MaxMag = FieldElement::MaxMagnitude;

const ModArith &ref() {
  static const ModArith Ref(*U256::fromHex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
  return Ref;
}

/// A register: the element under test, the magnitude it must fit, and
/// its value by the reference arithmetic.
struct Reg {
  FieldElement F;
  unsigned Mag = 1;
  U256 Value;
};

void check(const Reg &R) {
  std::array<uint64_t, 5> L = R.F.limbs();
  uint64_t M = 2 * static_cast<uint64_t>(R.Mag);
  for (int I = 0; I < 4; ++I)
    if (L[I] > M * M52)
      __builtin_trap();
  if (L[4] > M * M48)
    __builtin_trap();
  if (R.F.toU256() != R.Value)
    __builtin_trap();
}

struct Input {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  uint8_t byte() { return Pos < Size ? Data[Pos++] : 0; }
  uint64_t u64() {
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V = V << 8 | byte();
    return V;
  }
  bool done() const { return Pos >= Size; }
};

Reg decodeRegister(Input &In) {
  Reg R;
  R.Mag = 1 + In.byte() % FieldElement::MaxMulMagnitude;
  std::array<uint64_t, 5> L;
  const ModArith &F = ref();
  U256 Weight = U256::one();
  R.Value = U256::zero();
  for (int I = 0; I < 5; ++I) {
    uint64_t Bound = 2 * R.Mag * (I < 4 ? M52 : M48);
    uint64_t Raw = In.u64();
    L[I] = (Raw & 3) == 0 ? Bound : Raw % (Bound + 1);
    R.Value = F.add(R.Value, F.mul(F.reduce(U256(L[I])), Weight));
    Weight = F.mul(Weight, U256(1ull << 52));
  }
  R.F = FieldElement::fromLimbs(L, R.Mag);
  check(R);
  return R;
}

/// Grow \p R's magnitude to the limit of one lazy op.
void grow(Reg &R, const Reg &Other, unsigned Op, uint8_t Arg) {
  const ModArith &F = ref();
  switch (Op) {
  case 0: // Add Other until one more would pass magnitude 32.
    while (R.Mag + Other.Mag <= MaxMag) {
      R.F += Other.F;
      R.Mag += Other.Mag;
      R.Value = F.add(R.Value, Other.Value);
      check(R);
    }
    break;
  case 1: { // Negate under a declared bound anywhere in [Mag, 31].
    if (R.Mag >= MaxMag)
      break;
    unsigned M = R.Mag + Arg % (MaxMag - R.Mag);
    R.F = R.F.neg(M);
    R.Mag = M + 1;
    R.Value = F.neg(R.Value);
    check(R);
    break;
  }
  case 2: { // The largest small multiplier the magnitude allows.
    unsigned K = MaxMag / R.Mag;
    R.F = R.F.mulInt(K);
    R.Mag *= K;
    R.Value = F.mul(R.Value, U256(K));
    check(R);
    break;
  }
  case 3: // Add up to magnitude 31, then halve.
    while (R.Mag + Other.Mag < MaxMag) {
      R.F += Other.F;
      R.Mag += Other.Mag;
      R.Value = F.add(R.Value, Other.Value);
    }
    R.F = R.F.half();
    R.Mag = R.Mag / 2 + 1;
    R.Value = F.mul(R.Value, F.inverse(U256(2)));
    check(R);
    break;
  }
}

/// Bring \p R back within mul's magnitude bound.
void shrink(Reg &R, bool ByHalving) {
  const ModArith &F = ref();
  while (R.Mag > FieldElement::MaxMulMagnitude) {
    if (ByHalving && R.Mag < MaxMag) {
      R.F = R.F.half();
      R.Mag = R.Mag / 2 + 1;
      R.Value = F.mul(R.Value, F.inverse(U256(2)));
    } else {
      R.F.normalize();
      R.Mag = 1;
    }
    check(R);
  }
}

void finish(Reg &R, const Reg &Other, unsigned Op) {
  const ModArith &F = ref();
  switch (Op) {
  case 0:
    R.F = R.F * Other.F;
    R.Value = F.mul(R.Value, Other.Value);
    break;
  case 1:
    R.F = R.F.sqr();
    R.Value = F.mul(R.Value, R.Value);
    break;
  case 2:
    R.F.normalize();
    break;
  case 3:
    if (R.Value.isZero())
      return;
    R.F = R.F.inverse();
    R.Value = F.inverse(R.Value);
    break;
  case 4: {
    std::optional<FieldElement> Root = R.F.sqrt();
    U256 Half = F.modulus();
    Half.shr1();
    U256 Euler = F.pow(R.Value, Half);
    if (Root.has_value() != (Euler.isZero() || Euler == U256::one()))
      __builtin_trap();
    if (!Root)
      return;
    U256 RootV = Root->toU256();
    if (F.mul(RootV, RootV) != R.Value)
      __builtin_trap();
    R.F = *Root;
    R.Value = RootV;
    break;
  }
  }
  R.Mag = 1;
  check(R);
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  Input In{Data, Size};
  Reg Regs[4];
  for (Reg &R : Regs)
    R = decodeRegister(In);
  // Each step: [register, other, grow op] [finish op, halve?] [argument].
  for (int Steps = 0; !In.done() && Steps < 64; ++Steps) {
    uint8_t A = In.byte(), B = In.byte(), Arg = In.byte();
    Reg &R = Regs[A & 3];
    Reg Other = Regs[(A >> 2) & 3];
    shrink(Other, false);
    grow(R, Other, (A >> 4) & 3, Arg);
    shrink(R, B & 1);
    finish(R, Other, (B >> 1) % 5);
  }
  return 0;
}
