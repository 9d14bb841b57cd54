//===- bfv/Evaluator.h - Homomorphic operations -----------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The homomorphic instruction set Porcupine targets (Table 1 of the paper):
/// SIMD add/sub/multiply over ciphertext-ciphertext and ciphertext-plaintext
/// operands, slot rotation, plus relinearization. The method surface mirrors
/// SEAL's Evaluator so generated kernels read like SEAL programs.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_EVALUATOR_H
#define PORCUPINE_BFV_EVALUATOR_H

#include "bfv/BatchEncoder.h"
#include "bfv/Ciphertext.h"
#include "bfv/Keys.h"
#include "bfv/Plaintext.h"

#include <memory>
#include <mutex>
#include <unordered_map>

namespace porcupine {

/// Homomorphic operator suite. Stateless except for the context and a
/// bounded cache of NTT-form plaintexts (so kernels that multiply by the
/// same constants every call pay the plaintext NTT once).
///
/// Ciphertext multiply and key switching are RNS-native: every
/// per-coefficient step works on 64-bit residues, with fast base conversion
/// in place of CRT lifts. The wide-integer reference they are tested
/// against lives with the tests (tests/oracle/).
///
/// Ciphertexts may be in either coefficient or NTT form (all components of
/// one ciphertext always share a form). Operations that are cheap in
/// evaluation form (add/sub, plaintext multiply) keep or move results
/// toward NTT form so chains of them skip transforms; multiply, Galois
/// rotation, and key switching normalize back to coefficient form at their
/// boundaries.
class Evaluator {
public:
  explicit Evaluator(const BfvContext &Ctx) : Ctx(Ctx), Encoder(Ctx) {}

  /// Slot-wise ciphertext addition; operands may have 2 or 3 components.
  Ciphertext add(const Ciphertext &A, const Ciphertext &B) const;

  /// Slot-wise ciphertext subtraction.
  Ciphertext sub(const Ciphertext &A, const Ciphertext &B) const;

  /// Negation.
  Ciphertext negate(const Ciphertext &A) const;

  /// Ciphertext + plaintext.
  Ciphertext addPlain(const Ciphertext &A, const Plaintext &B) const;

  /// Ciphertext - plaintext.
  Ciphertext subPlain(const Ciphertext &A, const Plaintext &B) const;

  /// Slot-wise ciphertext multiplication; the result has three components
  /// until relinearize() is applied. Operands must be two-component.
  Ciphertext multiply(const Ciphertext &A, const Ciphertext &B) const;

  /// Ciphertext * plaintext (no component growth, milder noise).
  Ciphertext multiplyPlain(const Ciphertext &A, const Plaintext &B) const;

  /// Switches a three-component product back to two components.
  Ciphertext relinearize(const Ciphertext &A, const RelinKeys &Keys) const;

  /// Rotates every batching row \p Steps slots to the left (negative =
  /// right). Requires the matching Galois key.
  Ciphertext rotateRows(const Ciphertext &A, int Steps,
                        const GaloisKeys &Keys) const;

  /// Swaps the two batching rows.
  Ciphertext rotateColumns(const Ciphertext &A, const GaloisKeys &Keys) const;

  /// Applies the raw automorphism x -> x^Elt with key switching.
  Ciphertext applyGalois(const Ciphertext &A, uint64_t Elt,
                         const KeySwitchKey &Key) const;

  const BatchEncoder &encoder() const { return Encoder; }

private:
  const BfvContext &Ctx;
  BatchEncoder Encoder;

  struct PlainCacheEntry {
    std::vector<uint64_t> Coeffs;
    std::shared_ptr<const RingPoly> NttForm;
  };
  mutable std::mutex PlainCacheMutex;
  mutable std::unordered_map<uint64_t, PlainCacheEntry> PlainCache;

  /// Key-switching workhorse over the RNS gadget (BfvContext::rnsGadget()):
  /// returns (d0, d1) such that d0 + d1*s ~= P * s' where Key switches
  /// s' -> s. Results are in coefficient form.
  std::pair<RingPoly, RingPoly> keySwitch(const RingPoly &P,
                                          const KeySwitchKey &Key) const;

  /// Rounds one tensor component held in the auxiliary basis by t/Q and
  /// returns it reduced into the coefficient basis (multiply step 3).
  RingPoly scaleToRing(
      const std::vector<std::vector<uint64_t>> &TensorAux) const;

  /// Embeds a centered plaintext polynomial into RNS form.
  RingPoly plainToRing(const Plaintext &P) const;

  /// NTT form of plainToRing(P), served from the bounded cache.
  std::shared_ptr<const RingPoly> plainNttForm(const Plaintext &P) const;

  /// Delta * P embedded in RNS form (the addPlain/subPlain addend).
  RingPoly deltaScaledPlain(const Plaintext &P) const;
};

} // namespace porcupine

#endif // PORCUPINE_BFV_EVALUATOR_H
