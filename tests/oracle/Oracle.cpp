//===- tests/oracle/Oracle.cpp - Wide-integer reference arithmetic --------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "bfv/BatchEncoder.h"
#include "math/BigInt.h"
#include "math/ModArith.h"

#include <cassert>

using namespace porcupine;

//===----------------------------------------------------------------------===//
// Negacyclic convolution
//===----------------------------------------------------------------------===//

std::vector<uint64_t>
oracle::naiveNegacyclicMultiply(const std::vector<uint64_t> &A,
                                const std::vector<uint64_t> &B, uint64_t P) {
  size_t N = A.size();
  assert(B.size() == N && "length mismatch");
  std::vector<uint64_t> Out(N, 0);
  for (size_t I = 0; I < N; ++I) {
    // Operands arrive as reduced residues; reduce once per row instead of
    // re-reducing both factors inside the N^2 inner loop.
    uint64_t AI = A[I] % P;
    if (AI == 0)
      continue;
    uint64_t AShoup = shoupPrecompute(AI, P);
    for (size_t J = 0; J < N; ++J) {
      uint64_t Prod = mulModShoup(B[J], AI, AShoup, P);
      size_t K = I + J;
      if (K < N)
        Out[K] = addMod(Out[K], Prod, P);
      else // x^N = -1: wrap with sign flip.
        Out[K - N] = subMod(Out[K - N], Prod, P);
    }
  }
  return Out;
}

std::vector<uint64_t> oracle::nttMultiply(const NttTables &Tables,
                                          const std::vector<uint64_t> &A,
                                          const std::vector<uint64_t> &B) {
  std::vector<uint64_t> FA = A, FB = B;
  Tables.forwardTransform(FA);
  Tables.forwardTransform(FB);
  for (size_t I = 0; I < FA.size(); ++I)
    FA[I] = Tables.reducer().mulMod(FA[I], FB[I]);
  Tables.inverseTransform(FA);
  return FA;
}

//===----------------------------------------------------------------------===//
// Multiply
//===----------------------------------------------------------------------===//

/// Exact negacyclic convolution of two R_Q elements over the integers
/// (centered lifts), returned as wide-integer coefficients.
static std::vector<BigInt> exactConvolution(const BfvContext &Ctx,
                                            const RingPoly &A,
                                            const RingPoly &B) {
  size_t N = Ctx.polyDegree();
  const auto &Aux = Ctx.auxBasis();
  const auto &AuxNtt = Ctx.auxNtt();

  std::vector<BigInt> ALift = A.liftCentered(Ctx);
  std::vector<BigInt> BLift = B.liftCentered(Ctx);

  // Convolve modulo each auxiliary prime, then CRT-reconstruct the exact
  // signed integer result (|result| < Maux/2 by construction of the basis).
  std::vector<std::vector<uint64_t>> ResidueProducts(Aux.count());
  for (size_t P = 0; P < Aux.count(); ++P) {
    uint64_t Prime = Aux.primes()[P];
    std::vector<uint64_t> AR(N), BR(N);
    for (size_t J = 0; J < N; ++J) {
      AR[J] = ALift[J].modWord(Prime);
      BR[J] = BLift[J].modWord(Prime);
    }
    ResidueProducts[P] = oracle::nttMultiply(AuxNtt[P], AR, BR);
  }

  std::vector<BigInt> Out(N);
  std::vector<uint64_t> Slice(Aux.count());
  for (size_t J = 0; J < N; ++J) {
    for (size_t P = 0; P < Aux.count(); ++P)
      Slice[P] = ResidueProducts[P][J];
    Out[J] = Aux.reconstructCentered(Slice);
  }
  return Out;
}

/// Scales each wide coefficient by t/Q with rounding and reduces into RNS.
static RingPoly scaleToRing(const BfvContext &Ctx,
                            const std::vector<BigInt> &Wide) {
  const BigInt &Q = Ctx.coeffModulus();
  BigInt T = BigInt::fromU64(Ctx.plainModulus());
  RingPoly Out = RingPoly::zero(Ctx);
  const auto &Primes = Ctx.coeffBasis().primes();
  for (size_t J = 0; J < Wide.size(); ++J) {
    BigInt Scaled = (Wide[J] * T).divRoundNearest(Q);
    for (size_t I = 0; I < Primes.size(); ++I)
      Out.residues(I)[J] = Scaled.modWord(Primes[I]);
  }
  return Out;
}

Ciphertext oracle::multiply(const BfvContext &Ctx, const Ciphertext &A,
                            const Ciphertext &B) {
  assert(A.size() == 2 && B.size() == 2 && "operands must be two-component");
  // BFV tensor product: e0 = a0*b0, e1 = a0*b1 + a1*b0, e2 = a1*b1 over the
  // integers, each scaled by t/Q with rounding.
  RingPoly A0 = A[0], A1 = A[1], B0 = B[0], B1 = B[1];
  A0.ensureCoeff(Ctx);
  A1.ensureCoeff(Ctx);
  B0.ensureCoeff(Ctx);
  B1.ensureCoeff(Ctx);
  std::vector<BigInt> E0 = exactConvolution(Ctx, A0, B0);
  std::vector<BigInt> E1 = exactConvolution(Ctx, A0, B1);
  std::vector<BigInt> E1B = exactConvolution(Ctx, A1, B0);
  std::vector<BigInt> E2 = exactConvolution(Ctx, A1, B1);
  for (size_t J = 0; J < E1.size(); ++J)
    E1[J] += E1B[J];

  Ciphertext Out;
  Out.Components.push_back(scaleToRing(Ctx, E0));
  Out.Components.push_back(scaleToRing(Ctx, E1));
  Out.Components.push_back(scaleToRing(Ctx, E2));
  return Out;
}

//===----------------------------------------------------------------------===//
// Power-of-two gadget key switching
//===----------------------------------------------------------------------===//

/// Number of base-2^w digits covering log2(Q).
static unsigned powerOfTwoDigitCount(const BfvContext &Ctx) {
  unsigned Width = Ctx.decompWidth();
  return (Ctx.coeffModulusBits() + Width - 1) / Width;
}

oracle::PowerOfTwoKey oracle::createKeySwitchKey(const BfvContext &Ctx,
                                                 const SecretKey &Sk,
                                                 const RingPoly &SourceSecret,
                                                 Rng &R) {
  // For each digit d: k0_d = -(a_d*s + e_d) + 2^(d*w) * s',  k1_d = a_d.
  PowerOfTwoKey Key;
  unsigned Width = Ctx.decompWidth();
  for (unsigned D = 0; D < powerOfTwoDigitCount(Ctx); ++D) {
    RingPoly A = RingPoly::sampleUniform(Ctx, R);
    RingPoly E = RingPoly::sampleError(Ctx, R);
    RingPoly K0 = RingPoly::multiply(Ctx, A, Sk.S);
    K0.addAssign(Ctx, E);
    K0.negate(Ctx);
    BigInt Scale = BigInt::fromU64(1).shiftLeft(D * Width);
    std::vector<uint64_t> ScaleModPrimes;
    for (uint64_t P : Ctx.coeffBasis().primes())
      ScaleModPrimes.push_back(Scale.modWord(P));
    RingPoly Scaled = SourceSecret;
    Scaled.scaleByScalars(Ctx, ScaleModPrimes);
    K0.addAssign(Ctx, Scaled);
    K0.toNtt(Ctx);
    A.toNtt(Ctx);
    Key.K0.push_back(std::move(K0));
    Key.K1.push_back(std::move(A));
  }
  return Key;
}

oracle::PowerOfTwoKey oracle::createRelinKey(const BfvContext &Ctx,
                                             const SecretKey &Sk, Rng &R) {
  RingPoly S2 = RingPoly::multiply(Ctx, Sk.S, Sk.S);
  return createKeySwitchKey(Ctx, Sk, S2, R);
}

oracle::PowerOfTwoGaloisKeys
oracle::createGaloisKeys(const BfvContext &Ctx, const SecretKey &Sk,
                         const std::vector<int> &Steps, Rng &R) {
  BatchEncoder Encoder(Ctx);
  PowerOfTwoGaloisKeys Keys;
  for (int Step : Steps) {
    uint64_t Elt = Encoder.galoisEltForRotation(Step);
    if (Elt == 1 || Keys.Keys.count(Elt))
      continue;
    RingPoly SAut = Sk.S.applyGalois(Ctx, Elt);
    Keys.Keys.emplace(Elt, createKeySwitchKey(Ctx, Sk, SAut, R));
  }
  return Keys;
}

std::pair<RingPoly, RingPoly> oracle::keySwitch(const BfvContext &Ctx,
                                                const RingPoly &P,
                                                const PowerOfTwoKey &Key) {
  unsigned Digits = powerOfTwoDigitCount(Ctx);
  unsigned Width = Ctx.decompWidth();
  size_t N = Ctx.polyDegree();
  assert(Key.K0.size() == Digits && "key was generated for another context");

  // Decompose P into base-2^w digit polynomials of the canonical lift.
  RingPoly Src = P;
  Src.ensureCoeff(Ctx);
  std::vector<BigInt> Lifted(N);
  std::vector<uint64_t> Slice(Src.primeCount());
  for (size_t J = 0; J < N; ++J) {
    for (size_t I = 0; I < Slice.size(); ++I)
      Slice[I] = Src.residues(I)[J];
    Lifted[J] = Ctx.coeffBasis().reconstruct(Slice);
  }

  RingPoly Acc0 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  RingPoly Acc1 = RingPoly::zero(Ctx, /*InNttForm=*/true);
  std::vector<int64_t> DigitCoeffs(N);
  for (unsigned D = 0; D < Digits; ++D) {
    for (size_t J = 0; J < N; ++J)
      DigitCoeffs[J] = static_cast<int64_t>(Lifted[J].digit(D, Width));
    RingPoly DigitPoly = RingPoly::fromSignedCoeffs(Ctx, DigitCoeffs);
    DigitPoly.toNtt(Ctx);
    Acc0.fmaNtt(Ctx, DigitPoly, Key.K0[D]);
    Acc1.fmaNtt(Ctx, DigitPoly, Key.K1[D]);
  }
  Acc0.fromNtt(Ctx);
  Acc1.fromNtt(Ctx);
  return {std::move(Acc0), std::move(Acc1)};
}

Ciphertext oracle::relinearize(const BfvContext &Ctx, const Ciphertext &A,
                               const PowerOfTwoKey &Key) {
  if (A.size() == 2)
    return A;
  assert(A.size() == 3 && "relinearize expects two or three components");
  auto [D0, D1] = keySwitch(Ctx, A[2], Key);
  Ciphertext Out;
  Out.Components.push_back(A[0]);
  Out.Components.push_back(A[1]);
  Out[0].ensureCoeff(Ctx);
  Out[1].ensureCoeff(Ctx);
  Out[0].addAssign(Ctx, D0);
  Out[1].addAssign(Ctx, D1);
  return Out;
}

Ciphertext oracle::rotateRows(const BfvContext &Ctx, const Ciphertext &A,
                              int Steps, const PowerOfTwoGaloisKeys &Keys) {
  assert(A.size() == 2 && "rotate requires a two-component ciphertext");
  uint64_t Elt = BatchEncoder(Ctx).galoisEltForRotation(Steps);
  if (Elt == 1)
    return A;
  RingPoly A0 = A[0], A1 = A[1];
  A0.ensureCoeff(Ctx);
  A1.ensureCoeff(Ctx);
  RingPoly C0 = A0.applyGalois(Ctx, Elt);
  RingPoly C1 = A1.applyGalois(Ctx, Elt);
  // C0 + C1 * s(x^elt) decrypts the rotated message; switch the C1 part
  // back to the base secret.
  auto [D0, D1] = keySwitch(Ctx, C1, Keys.Keys.at(Elt));
  C0.addAssign(Ctx, D0);
  Ciphertext Out;
  Out.Components.push_back(std::move(C0));
  Out.Components.push_back(std::move(D1));
  return Out;
}

//===----------------------------------------------------------------------===//
// Decrypt
//===----------------------------------------------------------------------===//

Plaintext oracle::decrypt(const BfvContext &Ctx, const SecretKey &Sk,
                          const Ciphertext &Ct) {
  assert(Ct.size() >= 2 && "malformed ciphertext");
  // c(s) = c0 + c1*s + c2*s^2 + ... by Horner, in coefficient form.
  RingPoly CS = Ct[Ct.size() - 1];
  CS.ensureCoeff(Ctx);
  for (size_t I = Ct.size() - 1; I-- > 0;) {
    CS = RingPoly::multiply(Ctx, CS, Sk.S);
    RingPoly C = Ct[I];
    C.ensureCoeff(Ctx);
    CS.addAssign(Ctx, C);
  }

  // m_j = round(t * x_j / Q) mod t; the centered lift keeps the rounding
  // error symmetric.
  uint64_t T = Ctx.plainModulus();
  const BigInt &Q = Ctx.coeffModulus();
  BigInt TBig = BigInt::fromU64(T);
  std::vector<BigInt> Lifted = CS.liftCentered(Ctx);
  std::vector<uint64_t> Coeffs(Lifted.size());
  for (size_t J = 0; J < Lifted.size(); ++J)
    Coeffs[J] = (Lifted[J] * TBig).divRoundNearest(Q).modWord(T);
  return Plaintext(std::move(Coeffs));
}
