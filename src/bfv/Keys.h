//===- bfv/Keys.h - BFV key material ----------------------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Key types for BFV: the ternary secret key, the RLWE public key,
/// relinearization keys (key-switch from s^2 to s) and Galois keys
/// (key-switch from s(x^e) to s, one per rotation step). Key-switching keys
/// are keyed for the RNS gadget (BfvContext::rnsGadget(): per-prime
/// residues split into base-2^w sub-digits) and stored in NTT form so that
/// applying them costs one forward NTT per digit.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BFV_KEYS_H
#define PORCUPINE_BFV_KEYS_H

#include "bfv/RingPoly.h"

#include <cstdint>
#include <map>
#include <vector>

namespace porcupine {

/// Secret key s, a ternary ring element (coefficient form).
struct SecretKey {
  RingPoly S;
};

/// Public key (pk0, pk1) = (-(a*s + e), a).
struct PublicKey {
  RingPoly Pk0;
  RingPoly Pk1;
};

/// One key-switching key: for each decomposition digit d, the pair
/// (-(a_d*s + e_d) + g_d * s', a_d), both stored in NTT form, where g_d is
/// the d-th RNS gadget constant.
struct KeySwitchKey {
  std::vector<RingPoly> K0;
  std::vector<RingPoly> K1;

  bool empty() const { return K0.empty(); }
};

/// Relinearization key: key-switch from s^2 to s.
struct RelinKeys {
  KeySwitchKey Key;
};

/// Galois keys: key-switch from s(x^elt) to s, stored per Galois element.
struct GaloisKeys {
  std::map<uint64_t, KeySwitchKey> Keys;

  bool hasKey(uint64_t Elt) const { return Keys.count(Elt) != 0; }
  const KeySwitchKey &key(uint64_t Elt) const { return Keys.at(Elt); }
};

} // namespace porcupine

#endif // PORCUPINE_BFV_KEYS_H
