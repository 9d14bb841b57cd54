//===- tests/oracle/Oracle.h - Wide-integer reference arithmetic -*- C++ -*-=//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference implementations that the differential tests compare the RNS
/// runtime against. They are written as free functions over the public
/// BfvContext / RingPoly / CrtBasis API and take the textbook route every
/// time: exact integer tensor products with BigInt rounding, a power-of-two
/// gadget over the canonical lift for key switching, BigInt decryption, and
/// O(N^2) negacyclic convolution. None of this code is reachable from the
/// production libraries; only the test suites that compare against it link
/// the `porcupine_oracle` target.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_TESTS_ORACLE_ORACLE_H
#define PORCUPINE_TESTS_ORACLE_ORACLE_H

#include "bfv/BfvContext.h"
#include "bfv/Ciphertext.h"
#include "bfv/Keys.h"
#include "bfv/Plaintext.h"
#include "math/Ntt.h"
#include "support/Random.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace porcupine {
namespace oracle {

//===----------------------------------------------------------------------===//
// Negacyclic convolution in Z_P[x]/(x^N + 1)
//===----------------------------------------------------------------------===//

/// Schoolbook O(N^2) convolution of reduced residue vectors.
std::vector<uint64_t> naiveNegacyclicMultiply(const std::vector<uint64_t> &A,
                                              const std::vector<uint64_t> &B,
                                              uint64_t P);

/// The same product through \p Tables: forward-transform both operands,
/// multiply pointwise, inverse-transform. Inputs are left unmodified.
std::vector<uint64_t> nttMultiply(const NttTables &Tables,
                                  const std::vector<uint64_t> &A,
                                  const std::vector<uint64_t> &B);

//===----------------------------------------------------------------------===//
// BFV
//===----------------------------------------------------------------------===//

/// Tensor-and-round multiply: each tensor component is convolved exactly
/// over the integers (centered lifts, CRT over the auxiliary basis) and
/// scaled by t/Q with BigInt rounding. Operands must be two-component; the
/// result has three components in coefficient form.
Ciphertext multiply(const BfvContext &Ctx, const Ciphertext &A,
                    const Ciphertext &B);

/// A key-switching key for the power-of-two gadget: digit d of the
/// canonical lift in [0, Q), base 2^decompWidth(), keyed against 2^(d*w).
/// A type of its own, so it cannot be handed to the production Evaluator.
struct PowerOfTwoKey {
  std::vector<RingPoly> K0;
  std::vector<RingPoly> K1;
};

/// Power-of-two Galois keys, stored per Galois element.
struct PowerOfTwoGaloisKeys {
  std::map<uint64_t, PowerOfTwoKey> Keys;
};

/// Key switching \p SourceSecret -> Sk.S. Draws from \p R in the order the
/// production KeyGenerator uses (per digit: one uniform, one error poly).
PowerOfTwoKey createKeySwitchKey(const BfvContext &Ctx, const SecretKey &Sk,
                                 const RingPoly &SourceSecret, Rng &R);

/// Relinearization key (s^2 -> s).
PowerOfTwoKey createRelinKey(const BfvContext &Ctx, const SecretKey &Sk,
                             Rng &R);

/// Galois keys for the requested row-rotation steps (BatchEncoder
/// conventions: positive = rotate rows left).
PowerOfTwoGaloisKeys createGaloisKeys(const BfvContext &Ctx,
                                      const SecretKey &Sk,
                                      const std::vector<int> &Steps, Rng &R);

/// Returns (d0, d1) with d0 + d1*s ~= P * s', in coefficient form.
std::pair<RingPoly, RingPoly> keySwitch(const BfvContext &Ctx,
                                        const RingPoly &P,
                                        const PowerOfTwoKey &Key);

/// Switches a three-component product back to two components.
Ciphertext relinearize(const BfvContext &Ctx, const Ciphertext &A,
                       const PowerOfTwoKey &Key);

/// Rotates every batching row \p Steps slots to the left.
Ciphertext rotateRows(const BfvContext &Ctx, const Ciphertext &A, int Steps,
                      const PowerOfTwoGaloisKeys &Keys);

/// m = round(t/Q * [c(s)]_Q) mod t on the centered BigInt lift.
Plaintext decrypt(const BfvContext &Ctx, const SecretKey &Sk,
                  const Ciphertext &Ct);

} // namespace oracle
} // namespace porcupine

#endif // PORCUPINE_TESTS_ORACLE_ORACLE_H
