//===- bfv/KeyGenerator.h - BFV key generation ------------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the secret key, public key, relinearization keys, and Galois
/// keys for a BFV context.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_KEYGENERATOR_H
#define PORCUPINE_BFV_KEYGENERATOR_H

#include "bfv/Keys.h"
#include "support/Random.h"

#include <vector>

namespace porcupine {

/// Key factory. Holds the secret key; hand out only what each party needs.
class KeyGenerator {
public:
  /// Samples a fresh secret key from \p R.
  KeyGenerator(const BfvContext &Ctx, Rng &R);

  /// Total KeyGenerator instances constructed in this process. Every key
  /// in the system originates here, so a stable count across a span of
  /// work proves no keys were generated — the observable the keyless
  /// dry-run backend's tests assert on.
  static uint64_t instancesCreated();

  const SecretKey &secretKey() const { return Secret; }

  /// Creates a public encryption key.
  PublicKey createPublicKey();

  /// Creates relinearization keys (s^2 -> s).
  RelinKeys createRelinKeys();

  /// Creates Galois keys for the requested row-rotation steps (and the
  /// column swap if \p IncludeColumnSwap). Steps use BatchEncoder
  /// conventions: positive = rotate rows left.
  GaloisKeys createGaloisKeys(const std::vector<int> &Steps,
                              bool IncludeColumnSwap = false);

  /// Creates a key-switching key from \p SourceSecret to the held secret,
  /// keyed for the RNS decomposition gadget.
  KeySwitchKey createKeySwitchKey(const RingPoly &SourceSecret);

private:
  const BfvContext &Ctx;
  Rng &R;
  SecretKey Secret;
};

} // namespace porcupine

#endif // PORCUPINE_BFV_KEYGENERATOR_H
