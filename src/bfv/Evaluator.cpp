//===- bfv/Evaluator.cpp - Homomorphic operations ---------------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/Evaluator.h"

#include "math/ModArith.h"
#include "support/Error.h"

#include <array>
#include <cassert>

using namespace porcupine;

/// Form of a (non-empty) ciphertext; all components share one form.
static bool isNttForm(const Ciphertext &Ct) {
  assert(!Ct.Components.empty() && "empty ciphertext has no form");
  return Ct[0].isNtt();
}

Ciphertext Evaluator::add(const Ciphertext &A, const Ciphertext &B) const {
  const Ciphertext &Long = A.size() >= B.size() ? A : B;
  const Ciphertext &Short = A.size() >= B.size() ? B : A;
  // Normalize toward NTT form: if either operand is already there, an
  // add/mul-plain chain is in flight and staying in evaluation form keeps
  // it transform-free. Two coefficient-form operands stay as they are.
  bool WantNtt = isNttForm(Long) || isNttForm(Short);
  Ciphertext Out = Long;
  if (WantNtt)
    for (auto &Component : Out.Components)
      Component.ensureNtt(Ctx);
  for (size_t I = 0; I < Short.size(); ++I) {
    if (Short[I].isNtt() == WantNtt) {
      Out[I].addAssign(Ctx, Short[I]);
    } else {
      RingPoly S = Short[I];
      S.ensureNtt(Ctx);
      Out[I].addAssign(Ctx, S);
    }
  }
  return Out;
}

Ciphertext Evaluator::sub(const Ciphertext &A, const Ciphertext &B) const {
  bool WantNtt = isNttForm(A) || isNttForm(B);
  Ciphertext Out = A;
  if (WantNtt)
    for (auto &Component : Out.Components)
      Component.ensureNtt(Ctx);
  // Pad the shorter operand with zero components (zero has the same
  // representation in both forms, so only the flag must match).
  while (Out.size() < B.size())
    Out.Components.push_back(RingPoly::zero(Ctx, WantNtt));
  for (size_t I = 0; I < B.size(); ++I) {
    if (B[I].isNtt() == WantNtt) {
      Out[I].subAssign(Ctx, B[I]);
    } else {
      RingPoly S = B[I];
      S.ensureNtt(Ctx);
      Out[I].subAssign(Ctx, S);
    }
  }
  return Out;
}

Ciphertext Evaluator::negate(const Ciphertext &A) const {
  // Negation commutes with the NTT, so the form is untouched.
  Ciphertext Out = A;
  for (auto &Component : Out.Components)
    Component.negate(Ctx);
  return Out;
}

RingPoly Evaluator::plainToRing(const Plaintext &P) const {
  // Centered embedding keeps the operand norm (and thus the multiply noise)
  // minimal.
  uint64_t T = Ctx.plainModulus();
  std::vector<int64_t> Centered(Ctx.polyDegree(), 0);
  for (size_t J = 0; J < P.Coeffs.size(); ++J)
    Centered[J] = toCentered(P.Coeffs[J] % T, T);
  return RingPoly::fromSignedCoeffs(Ctx, Centered);
}

std::shared_ptr<const RingPoly> Evaluator::plainNttForm(const Plaintext &P) const {
  // FNV-1a over the raw coefficients. Collisions are resolved by comparing
  // the stored coefficients, so a hash clash only costs a recompute.
  uint64_t H = 1469598103934665603ull;
  for (uint64_t C : P.Coeffs) {
    H ^= C;
    H *= 1099511628211ull;
  }
  H ^= P.Coeffs.size();
  H *= 1099511628211ull;

  std::lock_guard<std::mutex> Lock(PlainCacheMutex);
  auto It = PlainCache.find(H);
  if (It != PlainCache.end() && It->second.Coeffs == P.Coeffs)
    return It->second.NttForm;

  RingPoly M = plainToRing(P);
  M.toNtt(Ctx);
  auto Ptr = std::make_shared<const RingPoly>(std::move(M));
  // Bounded cache: kernels reuse a handful of constants per call, so a
  // wholesale reset on overflow is simpler than LRU and just as effective.
  if (PlainCache.size() >= 256)
    PlainCache.clear();
  PlainCache[H] = PlainCacheEntry{P.Coeffs, Ptr};
  return Ptr;
}

RingPoly Evaluator::deltaScaledPlain(const Plaintext &P) const {
  RingPoly Out = RingPoly::zero(Ctx);
  const auto &Primes = Ctx.coeffBasis().primes();
  const auto &DeltaMod = Ctx.deltaModPrimes();
  for (size_t I = 0; I < Primes.size(); ++I) {
    uint64_t Q = Primes[I];
    auto &Res = Out.residues(I);
    for (size_t J = 0; J < P.Coeffs.size(); ++J)
      Res[J] = mulMod(P.Coeffs[J] % Q, DeltaMod[I], Q);
  }
  return Out;
}

Ciphertext Evaluator::addPlain(const Ciphertext &A, const Plaintext &B) const {
  assert(!A.Components.empty());
  Ciphertext Out = A;
  RingPoly Addend = deltaScaledPlain(B);
  if (Out[0].isNtt())
    Addend.toNtt(Ctx);
  Out[0].addAssign(Ctx, Addend);
  return Out;
}

Ciphertext Evaluator::subPlain(const Ciphertext &A, const Plaintext &B) const {
  assert(!A.Components.empty());
  Ciphertext Out = A;
  RingPoly Subtrahend = deltaScaledPlain(B);
  if (Out[0].isNtt())
    Subtrahend.toNtt(Ctx);
  Out[0].subAssign(Ctx, Subtrahend);
  return Out;
}

RingPoly Evaluator::scaleToRing(
    const std::vector<std::vector<uint64_t>> &TensorAux) const {
  // The tensor coefficient e lives (exactly, as a signed value) in the
  // auxiliary basis. The goal is c = round(t*e / Q) in the coefficient
  // basis. Write t*e = Q*c + r with r the centered remainder of t*e mod Q;
  // then c = (t*e - r) / Q, computed residue-wise in the auxiliary basis
  // where division by Q is multiplication by Q^-1.
  size_t N = Ctx.polyDegree();
  const auto &CoeffPrimes = Ctx.coeffBasis().primes();
  const auto &AuxPrimes = Ctx.auxBasis().primes();

  // e mod q_i. |e| <= 2.25*N*Q^2 while Maux >= 2^8*N*Q^2, so the fraction
  // sum is far from the rounding boundary and the conversion is exact.
  std::vector<std::vector<uint64_t>> EModQ;
  Ctx.auxToCoeff().convert(TensorAux, EModQ);

  // r_i = t * e mod q_i: the residues of the centered remainder.
  std::vector<std::vector<uint64_t>> R(CoeffPrimes.size());
  const auto &TMod = Ctx.plainModPrimes();
  const auto &TShoup = Ctx.plainModPrimesShoup();
  for (size_t I = 0; I < CoeffPrimes.size(); ++I) {
    uint64_t Q = CoeffPrimes[I];
    R[I].resize(N);
    for (size_t J = 0; J < N; ++J)
      R[I][J] = mulModShoup(EModQ[I][J], TMod[I], TShoup[I], Q);
  }

  // r back into the auxiliary basis. A coefficient within float-epsilon of
  // |r| = Q/2 may convert as r -/+ Q, which shifts c by 1 -- ordinary
  // rounding noise, absorbed by the budget like any multiply noise.
  std::vector<std::vector<uint64_t>> RAux;
  Ctx.coeffToAux().convert(R, RAux);

  // c_j = (t*e_j - r_j) * Q^-1 mod p_j.
  std::vector<std::vector<uint64_t>> C(AuxPrimes.size());
  const auto &TModA = Ctx.plainModAux();
  const auto &TModAShoup = Ctx.plainModAuxShoup();
  const auto &QInv = Ctx.invQModAux();
  const auto &QInvShoup = Ctx.invQModAuxShoup();
  for (size_t P = 0; P < AuxPrimes.size(); ++P) {
    uint64_t Prime = AuxPrimes[P];
    C[P].resize(N);
    const auto &E = TensorAux[P];
    const auto &RA = RAux[P];
    for (size_t J = 0; J < N; ++J) {
      uint64_t TE = mulModShoup(E[J], TModA[P], TModAShoup[P], Prime);
      uint64_t Num = subMod(TE, RA[J], Prime);
      C[P][J] = mulModShoup(Num, QInv[P], QInvShoup[P], Prime);
    }
  }

  // |c| <= t * 2.25 * N * Q << Maux / 2: exact conversion back.
  RingPoly Out = RingPoly::zero(Ctx);
  Ctx.auxToCoeff().convert(C, Out.allResidues());
  return Out;
}

Ciphertext Evaluator::multiply(const Ciphertext &A, const Ciphertext &B) const {
  if (A.size() != 2 || B.size() != 2)
    fatalError("multiply requires two-component operands; relinearize first");
  size_t N = Ctx.polyDegree();
  const auto &AuxPrimes = Ctx.auxBasis().primes();
  size_t KAux = AuxPrimes.size();
  const auto &AuxNtt = Ctx.auxNtt();

  // 1. Extend every component into the auxiliary basis and transform. The
  // fast conversion yields (nearly) centered lifts -- a coefficient within
  // float-epsilon of |x| = Q/2 may land at x -/+ Q, which perturbs the
  // product by t*|u*ct(s)|/Q ~ t^2-scale noise after rounding: harmless.
  std::array<std::vector<std::vector<uint64_t>>, 4> Ops;
  const RingPoly *Sources[4] = {&A[0], &A[1], &B[0], &B[1]};
  for (size_t S = 0; S < 4; ++S) {
    RingPoly C = *Sources[S];
    C.ensureCoeff(Ctx);
    Ctx.coeffToAux().convert(C.allResidues(), Ops[S]);
    for (size_t P = 0; P < KAux; ++P)
      AuxNtt[P].forwardTransform(Ops[S][P]);
  }

  // 2. Pointwise tensor: e0 = a0*b0, e1 = a0*b1 + a1*b0, e2 = a1*b1. The
  // auxiliary modulus exceeds 2^8 * N * Q^2, so the signed convolutions are
  // represented exactly.
  std::array<std::vector<std::vector<uint64_t>>, 3> Tensor;
  for (auto &T : Tensor) {
    T.resize(KAux);
    for (auto &V : T)
      V.resize(N);
  }
  for (size_t P = 0; P < KAux; ++P) {
    uint64_t Prime = AuxPrimes[P];
    const BarrettReducer &Red = AuxNtt[P].reducer();
    const auto &A0 = Ops[0][P];
    const auto &A1 = Ops[1][P];
    const auto &B0 = Ops[2][P];
    const auto &B1 = Ops[3][P];
    for (size_t J = 0; J < N; ++J) {
      Tensor[0][P][J] = Red.mulMod(A0[J], B0[J]);
      Tensor[1][P][J] =
          addMod(Red.mulMod(A0[J], B1[J]), Red.mulMod(A1[J], B0[J]), Prime);
      Tensor[2][P][J] = Red.mulMod(A1[J], B1[J]);
    }
  }
  for (auto &T : Tensor)
    for (size_t P = 0; P < KAux; ++P)
      AuxNtt[P].inverseTransform(T[P]);

  // 3. Scale each component by t/Q with rounding, landing in the
  // coefficient basis.
  Ciphertext Out;
  for (auto &T : Tensor)
    Out.Components.push_back(scaleToRing(T));
  return Out;
}

Ciphertext Evaluator::multiplyPlain(const Ciphertext &A,
                                    const Plaintext &B) const {
  std::shared_ptr<const RingPoly> M = plainNttForm(B);
  Ciphertext Out;
  for (const RingPoly &Component : A.Components) {
    RingPoly C = Component;
    C.ensureNtt(Ctx);
    C.mulAssignNtt(Ctx, *M);
    // Stay in evaluation form: adds and further plaintext multiplies chain
    // without transforms, and consumers that need coefficients convert at
    // their own boundary.
    Out.Components.push_back(std::move(C));
  }
  return Out;
}

std::pair<RingPoly, RingPoly>
Evaluator::keySwitch(const RingPoly &P, const KeySwitchKey &Key) const {
  // Decompose the per-prime residues directly: gadget digit (i, shift)
  // takes bits [shift, shift + w) of residue x_i. With the default width a
  // whole residue is one digit, so this is the classic per-prime gadget
  // digit_i = x mod q_i. A digit value can exceed a *smaller* prime q_l, so
  // embedding into RNS form reduces through that prime's Barrett table
  // (skipped on the common in-range path).
  assert(!Key.empty() && "missing key-switching key");
  const auto &Gadget = Ctx.rnsGadget();
  assert(Key.K0.size() == Gadget.size() &&
         "key was generated for a different gadget");
  size_t N = Ctx.polyDegree();
  unsigned Width = Ctx.decompWidth();
  uint64_t Mask = Width >= 64 ? ~uint64_t(0) : (uint64_t(1) << Width) - 1;

  RingPoly Src = P;
  Src.ensureCoeff(Ctx);
  RingPoly Acc0 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  RingPoly Acc1 = RingPoly::zero(Ctx, /*InNttForm=*/true);

  for (size_t D = 0; D < Gadget.size(); ++D) {
    const auto &Digit = Gadget[D];
    const auto &SrcRes = Src.residues(Digit.SourcePrime);
    // Fill and transform one residue at a time: the forward NTT runs while
    // the freshly written residue is still cache-hot, instead of
    // materializing every residue and re-walking them all in toNtt().
    RingPoly DigitPoly = RingPoly::zero(Ctx, /*InNttForm=*/true);
    for (size_t I = 0; I < Ctx.coeffBasis().count(); ++I) {
      auto &Res = DigitPoly.residues(I);
      uint64_t Ql = Ctx.coeffBasis().primes()[I];
      const BarrettReducer &Red = Ctx.coeffNtt()[I].reducer();
      for (size_t J = 0; J < N; ++J) {
        uint64_t V = (SrcRes[J] >> Digit.Shift) & Mask;
        Res[J] = V < Ql ? V : Red.reduce(V);
      }
      Ctx.coeffNtt()[I].forwardTransform(Res);
    }
    Acc0.fmaNtt(Ctx, DigitPoly, Key.K0[D]);
    Acc1.fmaNtt(Ctx, DigitPoly, Key.K1[D]);
  }
  Acc0.fromNtt(Ctx);
  Acc1.fromNtt(Ctx);
  return {std::move(Acc0), std::move(Acc1)};
}

Ciphertext Evaluator::relinearize(const Ciphertext &A,
                                  const RelinKeys &Keys) const {
  if (A.size() == 2)
    return A;
  if (A.size() != 3)
    fatalError("relinearize expects a two- or three-component ciphertext");
  auto [D0, D1] = keySwitch(A[2], Keys.Key);
  Ciphertext Out;
  Out.Components.push_back(A[0]);
  Out.Components.push_back(A[1]);
  Out[0].ensureCoeff(Ctx);
  Out[1].ensureCoeff(Ctx);
  Out[0].addAssign(Ctx, D0);
  Out[1].addAssign(Ctx, D1);
  return Out;
}

Ciphertext Evaluator::applyGalois(const Ciphertext &A, uint64_t Elt,
                                  const KeySwitchKey &Key) const {
  if (A.size() != 2)
    fatalError("applyGalois requires a two-component ciphertext; "
               "relinearize first");
  if (Elt == 1)
    return A;
  RingPoly A0 = A[0], A1 = A[1];
  A0.ensureCoeff(Ctx);
  A1.ensureCoeff(Ctx);
  RingPoly C0 = A0.applyGalois(Ctx, Elt);
  RingPoly C1 = A1.applyGalois(Ctx, Elt);
  // C0 + C1 * s(x^elt) decrypts the rotated message; switch the C1 part
  // back to the base secret.
  auto [D0, D1] = keySwitch(C1, Key);
  C0.addAssign(Ctx, D0);
  Ciphertext Out;
  Out.Components.push_back(std::move(C0));
  Out.Components.push_back(std::move(D1));
  return Out;
}

Ciphertext Evaluator::rotateRows(const Ciphertext &A, int Steps,
                                 const GaloisKeys &Keys) const {
  uint64_t Elt = Encoder.galoisEltForRotation(Steps);
  if (Elt == 1)
    return A;
  if (!Keys.hasKey(Elt))
    fatalError("missing Galois key for the requested rotation step");
  return applyGalois(A, Elt, Keys.key(Elt));
}

Ciphertext Evaluator::rotateColumns(const Ciphertext &A,
                                    const GaloisKeys &Keys) const {
  uint64_t Elt = Encoder.galoisEltForColumnSwap();
  if (!Keys.hasKey(Elt))
    fatalError("missing Galois key for the column swap");
  return applyGalois(A, Elt, Keys.key(Elt));
}
