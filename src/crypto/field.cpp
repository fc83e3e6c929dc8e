//===- crypto/field.cpp - The secp256k1 field, 5x52 lazy limbs ------------===//

#include "crypto/field.h"

#include <cassert>

namespace typecoin {
namespace crypto {

const ModArith &FieldElement::arith() {
  static const ModArith Fp(modulus());
  return Fp;
}

FieldElement FieldElement::inverse() const {
  assert(!isZero() && "inverse of zero");
  return fromU256(arith().inverse(toU256()));
}

int FieldElement::jacobi() const { return arith().jacobi(toU256()); }

std::optional<FieldElement> FieldElement::sqrt() const {
  // (p+1)/4 = 2^254 - 2^30 - 244 is, in binary, runs of 223, 22 and 2
  // one-bits. libsecp256k1's chain builds a^(2^k - 1) for k = 2, 3, 6,
  // 9, 11, 22, 44, 88, 176, 220, 223 and slides the runs into place.
  auto SqrN = [](FieldElement V, int N) {
    while (N-- > 0)
      V = V.sqr();
    return V;
  };
  const FieldElement &A = *this;
  FieldElement X2 = A.sqr() * A;
  FieldElement X3 = X2.sqr() * A;
  FieldElement X6 = SqrN(X3, 3) * X3;
  FieldElement X9 = SqrN(X6, 3) * X3;
  FieldElement X11 = SqrN(X9, 2) * X2;
  FieldElement X22 = SqrN(X11, 11) * X11;
  FieldElement X44 = SqrN(X22, 22) * X22;
  FieldElement X88 = SqrN(X44, 44) * X44;
  FieldElement X176 = SqrN(X88, 88) * X88;
  FieldElement X220 = SqrN(X176, 44) * X44;
  FieldElement X223 = SqrN(X220, 3) * X3;
  FieldElement T = SqrN(X223, 23) * X22;
  T = SqrN(T, 6) * X2;
  FieldElement Root = SqrN(T, 2);
  if (Root.sqr() != A)
    return std::nullopt;
  return Root;
}

} // namespace crypto
} // namespace typecoin
