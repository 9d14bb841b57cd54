//===- bfv/KeyGenerator.cpp - BFV key generation ---------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/KeyGenerator.h"

#include "bfv/BatchEncoder.h"

#include <atomic>

using namespace porcupine;

static std::atomic<uint64_t> KeygenInstances{0};

uint64_t KeyGenerator::instancesCreated() {
  return KeygenInstances.load(std::memory_order_relaxed);
}

KeyGenerator::KeyGenerator(const BfvContext &Ctx, Rng &R) : Ctx(Ctx), R(R) {
  KeygenInstances.fetch_add(1, std::memory_order_relaxed);
  Secret.S = RingPoly::sampleTernary(Ctx, R);
}

PublicKey KeyGenerator::createPublicKey() {
  // pk = (-(a*s + e), a): an RLWE sample of zero under s.
  RingPoly A = RingPoly::sampleUniform(Ctx, R);
  RingPoly E = RingPoly::sampleError(Ctx, R);
  RingPoly Pk0 = RingPoly::multiply(Ctx, A, Secret.S);
  Pk0.addAssign(Ctx, E);
  Pk0.negate(Ctx);
  return PublicKey{std::move(Pk0), std::move(A)};
}

KeySwitchKey KeyGenerator::createKeySwitchKey(const RingPoly &SourceSecret) {
  // For each gadget digit d with constant g_d:
  //   k0_d = -(a_d*s + e_d) + g_d * s',   k1_d = a_d.
  // Applying the key to the matching decomposition p = sum_d p_d * g_d yields
  // sum_d p_d*k0_d + (sum_d p_d*k1_d)*s  =  p*s' + small error under s.
  KeySwitchKey Key;
  for (const BfvContext::RnsGadgetDigit &Digit : Ctx.rnsGadget()) {
    RingPoly A = RingPoly::sampleUniform(Ctx, R);
    RingPoly E = RingPoly::sampleError(Ctx, R);
    RingPoly K0 = RingPoly::multiply(Ctx, A, Secret.S);
    K0.addAssign(Ctx, E);
    K0.negate(Ctx);
    RingPoly Scaled = SourceSecret;
    Scaled.scaleByScalars(Ctx, Digit.ScaleModPrimes);
    K0.addAssign(Ctx, Scaled);
    // Store in NTT form: the hot path multiplies these by digit polys.
    K0.toNtt(Ctx);
    A.toNtt(Ctx);
    Key.K0.push_back(std::move(K0));
    Key.K1.push_back(std::move(A));
  }
  return Key;
}

RelinKeys KeyGenerator::createRelinKeys() {
  RingPoly S2 = RingPoly::multiply(Ctx, Secret.S, Secret.S);
  return RelinKeys{createKeySwitchKey(S2)};
}

GaloisKeys KeyGenerator::createGaloisKeys(const std::vector<int> &Steps,
                                          bool IncludeColumnSwap) {
  BatchEncoder Encoder(Ctx);
  GaloisKeys Keys;
  for (int Step : Steps) {
    uint64_t Elt = Encoder.galoisEltForRotation(Step);
    if (Elt == 1 || Keys.hasKey(Elt))
      continue;
    // Rotating maps s to s(x^elt); the key switches s(x^elt) back to s.
    RingPoly SAut = Secret.S.applyGalois(Ctx, Elt);
    Keys.Keys.emplace(Elt, createKeySwitchKey(SAut));
  }
  if (IncludeColumnSwap) {
    uint64_t Elt = Encoder.galoisEltForColumnSwap();
    if (!Keys.hasKey(Elt)) {
      RingPoly SAut = Secret.S.applyGalois(Ctx, Elt);
      Keys.Keys.emplace(Elt, createKeySwitchKey(SAut));
    }
  }
  return Keys;
}
