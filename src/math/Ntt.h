//===- math/Ntt.h - Negacyclic number-theoretic transform -------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative negacyclic NTT over a word-sized prime field, following the
/// Cooley-Tukey / Gentleman-Sande formulation used by production HE
/// libraries. The transform maps Z_P[x]/(x^N + 1) to its evaluation
/// representation, making ring multiplication pointwise.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_MATH_NTT_H
#define PORCUPINE_MATH_NTT_H

#include "math/ModArith.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace porcupine {

/// Precomputed twiddle tables for the negacyclic NTT of length \p N over
/// prime \p P (which must satisfy P = 1 mod 2N). Instances are immutable
/// after construction and safe to share.
class NttTables {
public:
  /// Builds tables for transform length \p N (a power of two) modulo prime
  /// \p P.
  NttTables(size_t N, uint64_t P);

  size_t size() const { return N; }
  uint64_t modulus() const { return P; }

  /// In-place forward negacyclic NTT. Input in natural coefficient order;
  /// output in bit-reversed evaluation order (matching inverseTransform).
  void forwardTransform(std::vector<uint64_t> &Values) const;

  /// In-place inverse negacyclic NTT, undoing forwardTransform (including
  /// the 1/N scaling).
  void inverseTransform(std::vector<uint64_t> &Values) const;

  /// Barrett reducer for this prime, shared with callers doing their own
  /// pointwise products in the evaluation domain.
  const BarrettReducer &reducer() const { return Red; }

private:
  size_t N;
  unsigned LogN;
  uint64_t P;
  /// Psi^bitrev(i) where Psi is a primitive 2N-th root of unity, paired with
  /// its Shoup precomputation floor(W * 2^64 / P) for fast modular multiply.
  std::vector<uint64_t> PsiBitRev;
  std::vector<uint64_t> PsiBitRevShoup;
  /// Psi^-bitrev(i), with Shoup pairs.
  std::vector<uint64_t> InvPsiBitRev;
  std::vector<uint64_t> InvPsiBitRevShoup;
  uint64_t NInv;
  uint64_t NInvShoup;
  /// Division-free pointwise reduction mod P (both factors vary per slot,
  /// so Shoup pairs do not apply).
  BarrettReducer Red;
};

} // namespace porcupine

#endif // PORCUPINE_MATH_NTT_H
