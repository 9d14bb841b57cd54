//===- tests/bfv_test.cpp - Unit tests for the BFV library ----------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bfv/BatchEncoder.h"
#include "bfv/BfvContext.h"
#include "bfv/Decryptor.h"
#include "bfv/Encryptor.h"
#include "bfv/Evaluator.h"
#include "bfv/KeyGenerator.h"
#include "oracle/Oracle.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace porcupine;

namespace {

/// Small-but-real parameters: fast enough for unit tests, large enough to
/// exercise every code path (3-prime RNS, multi-digit key switching).
BfvParams testParams() {
  BfvParams P;
  P.PolyDegree = 1024;
  P.PlainModulus = 65537;
  P.CoeffPrimeBits = {40, 40, 40};
  P.DecompWidth = 16;
  return P;
}

struct BfvFixture : public ::testing::Test {
  BfvFixture()
      : Ctx(testParams()), R(42), Keygen(Ctx, R),
        Enc(Ctx, Keygen.createPublicKey(), R), Dec(Ctx, Keygen.secretKey()),
        Eval(Ctx), Encoder(Ctx) {}

  std::vector<uint64_t> randomSlots(uint64_t Bound = 0) {
    if (Bound == 0)
      Bound = Ctx.plainModulus();
    return R.vectorBelow(Bound, Ctx.polyDegree());
  }

  std::vector<uint64_t> decryptSlots(const Ciphertext &Ct) {
    return Encoder.decode(Dec.decrypt(Ct));
  }

  RelinKeys makeRelinKeys() { return Keygen.createRelinKeys(); }

  GaloisKeys makeGaloisKeys(const std::vector<int> &Steps) {
    return Keygen.createGaloisKeys(Steps);
  }

  BfvContext Ctx;
  Rng R;
  KeyGenerator Keygen;
  Encryptor Enc;
  Decryptor Dec;
  Evaluator Eval;
  BatchEncoder Encoder;
};

//===----------------------------------------------------------------------===//
// BatchEncoder
//===----------------------------------------------------------------------===//

TEST_F(BfvFixture, EncodeDecodeRoundTrip) {
  auto Values = randomSlots();
  EXPECT_EQ(Encoder.decode(Encoder.encode(Values)), Values);
}

TEST_F(BfvFixture, EncodePadsMissingSlots) {
  std::vector<uint64_t> Values = {1, 2, 3};
  auto Decoded = Encoder.decode(Encoder.encode(Values));
  EXPECT_EQ(Decoded[0], 1u);
  EXPECT_EQ(Decoded[1], 2u);
  EXPECT_EQ(Decoded[2], 3u);
  for (size_t I = 3; I < Decoded.size(); ++I)
    EXPECT_EQ(Decoded[I], 0u);
}

TEST_F(BfvFixture, EncodeSignedWrapsModT) {
  auto Decoded = Encoder.decode(Encoder.encodeSigned({-1, -2, 5}));
  EXPECT_EQ(Decoded[0], Ctx.plainModulus() - 1);
  EXPECT_EQ(Decoded[1], Ctx.plainModulus() - 2);
  EXPECT_EQ(Decoded[2], 5u);
}

TEST_F(BfvFixture, EncodedPolyMultIsSlotwiseProduct) {
  // The whole point of batching: ring multiplication = slot-wise product.
  auto U = randomSlots(256), V = randomSlots(256);
  Plaintext PU = Encoder.encode(U), PV = Encoder.encode(V);
  auto Product = oracle::naiveNegacyclicMultiply(PU.Coeffs, PV.Coeffs,
                                                 Ctx.plainModulus());
  auto Slots = Encoder.decode(Plaintext(Product));
  for (size_t I = 0; I < U.size(); ++I)
    EXPECT_EQ(Slots[I], U[I] * V[I] % Ctx.plainModulus());
}

//===----------------------------------------------------------------------===//
// Encrypt / decrypt
//===----------------------------------------------------------------------===//

TEST_F(BfvFixture, EncryptDecryptRoundTrip) {
  auto Values = randomSlots();
  auto Ct = Enc.encrypt(Encoder.encode(Values));
  EXPECT_EQ(decryptSlots(Ct), Values);
}

TEST_F(BfvFixture, FreshCiphertextHasHealthyNoiseBudget) {
  auto Ct = Enc.encrypt(Encoder.encode(randomSlots()));
  double Budget = Dec.invariantNoiseBudget(Ct);
  // Q ~ 120 bits, t ~ 17 bits: expect roughly 80-100 bits of budget.
  EXPECT_GT(Budget, 60.0);
  EXPECT_LT(Budget, Ctx.coeffModulusBits());
}

TEST_F(BfvFixture, EncryptZero) {
  auto Slots = decryptSlots(Enc.encryptZero());
  for (uint64_t V : Slots)
    EXPECT_EQ(V, 0u);
}

TEST_F(BfvFixture, DistinctEncryptionsOfSameValueDiffer) {
  Plaintext P = Encoder.encode({1, 2, 3});
  auto A = Enc.encrypt(P), B = Enc.encrypt(P);
  EXPECT_FALSE(A[0] == B[0]); // Randomized encryption.
  EXPECT_EQ(decryptSlots(A), decryptSlots(B));
}

//===----------------------------------------------------------------------===//
// Homomorphic add / sub / negate
//===----------------------------------------------------------------------===//

TEST_F(BfvFixture, AddIsSlotwise) {
  auto U = randomSlots(), V = randomSlots();
  auto Ct = Eval.add(Enc.encrypt(Encoder.encode(U)),
                     Enc.encrypt(Encoder.encode(V)));
  auto Slots = decryptSlots(Ct);
  for (size_t I = 0; I < U.size(); ++I)
    EXPECT_EQ(Slots[I], (U[I] + V[I]) % Ctx.plainModulus());
}

TEST_F(BfvFixture, SubIsSlotwise) {
  auto U = randomSlots(), V = randomSlots();
  auto Ct = Eval.sub(Enc.encrypt(Encoder.encode(U)),
                     Enc.encrypt(Encoder.encode(V)));
  auto Slots = decryptSlots(Ct);
  uint64_t T = Ctx.plainModulus();
  for (size_t I = 0; I < U.size(); ++I)
    EXPECT_EQ(Slots[I], (U[I] + T - V[I]) % T);
}

TEST_F(BfvFixture, NegateIsSlotwise) {
  auto U = randomSlots();
  auto Slots = decryptSlots(Eval.negate(Enc.encrypt(Encoder.encode(U))));
  uint64_t T = Ctx.plainModulus();
  for (size_t I = 0; I < U.size(); ++I)
    EXPECT_EQ(Slots[I], U[I] == 0 ? 0 : T - U[I]);
}

TEST_F(BfvFixture, AddPlainAndSubPlain) {
  auto U = randomSlots(), V = randomSlots();
  auto Ct = Enc.encrypt(Encoder.encode(U));
  Plaintext PV = Encoder.encode(V);
  auto SumSlots = decryptSlots(Eval.addPlain(Ct, PV));
  auto DiffSlots = decryptSlots(Eval.subPlain(Ct, PV));
  uint64_t T = Ctx.plainModulus();
  for (size_t I = 0; I < U.size(); ++I) {
    EXPECT_EQ(SumSlots[I], (U[I] + V[I]) % T);
    EXPECT_EQ(DiffSlots[I], (U[I] + T - V[I]) % T);
  }
}

//===----------------------------------------------------------------------===//
// Homomorphic multiply
//===----------------------------------------------------------------------===//

TEST_F(BfvFixture, MultiplyPlainIsSlotwise) {
  auto U = randomSlots(), V = randomSlots();
  auto Ct = Eval.multiplyPlain(Enc.encrypt(Encoder.encode(U)),
                               Encoder.encode(V));
  auto Slots = decryptSlots(Ct);
  uint64_t T = Ctx.plainModulus();
  for (size_t I = 0; I < U.size(); ++I)
    EXPECT_EQ(Slots[I], U[I] * V[I] % T);
}

TEST_F(BfvFixture, MultiplyCtCtIsSlotwise) {
  auto U = randomSlots(), V = randomSlots();
  auto Prod = Eval.multiply(Enc.encrypt(Encoder.encode(U)),
                            Enc.encrypt(Encoder.encode(V)));
  EXPECT_EQ(Prod.size(), 3u);
  auto Slots = decryptSlots(Prod); // Decryption handles 3 components.
  uint64_t T = Ctx.plainModulus();
  for (size_t I = 0; I < U.size(); ++I)
    EXPECT_EQ(Slots[I], U[I] * V[I] % T);
}

TEST_F(BfvFixture, RelinearizePreservesProduct) {
  auto U = randomSlots(), V = randomSlots();
  auto Prod = Eval.multiply(Enc.encrypt(Encoder.encode(U)),
                            Enc.encrypt(Encoder.encode(V)));
  auto Relin = Eval.relinearize(Prod, makeRelinKeys());
  EXPECT_EQ(Relin.size(), 2u);
  auto Slots = decryptSlots(Relin);
  uint64_t T = Ctx.plainModulus();
  for (size_t I = 0; I < U.size(); ++I)
    EXPECT_EQ(Slots[I], U[I] * V[I] % T);
}

TEST_F(BfvFixture, MultiplyConsumesNoiseBudget) {
  auto Ct = Enc.encrypt(Encoder.encode(randomSlots(16)));
  double Fresh = Dec.invariantNoiseBudget(Ct);
  auto Prod = Eval.relinearize(Eval.multiply(Ct, Ct), makeRelinKeys());
  double After = Dec.invariantNoiseBudget(Prod);
  EXPECT_LT(After, Fresh - 10.0);
  EXPECT_GT(After, 0.0);
}

TEST_F(BfvFixture, AddBarelyConsumesNoiseBudget) {
  auto Ct = Enc.encrypt(Encoder.encode(randomSlots()));
  double Fresh = Dec.invariantNoiseBudget(Ct);
  auto Sum = Eval.add(Ct, Ct);
  double After = Dec.invariantNoiseBudget(Sum);
  EXPECT_GT(After, Fresh - 2.5); // Addition costs at most ~1 bit.
}

//===----------------------------------------------------------------------===//
// Rotations
//===----------------------------------------------------------------------===//

TEST_F(BfvFixture, RotateRowsLeftByOne) {
  size_t Row = Encoder.rowSize();
  std::vector<uint64_t> U(2 * Row);
  for (size_t I = 0; I < U.size(); ++I)
    U[I] = I + 1;
  auto Keys = makeGaloisKeys({1});
  auto Ct = Eval.rotateRows(Enc.encrypt(Encoder.encode(U)), 1, Keys);
  auto Slots = decryptSlots(Ct);
  // Paper semantics: rotate left by one -> slot i holds old slot i+1,
  // wrapping within each row.
  for (size_t I = 0; I < Row; ++I) {
    EXPECT_EQ(Slots[I], U[(I + 1) % Row]) << "row0 slot " << I;
    EXPECT_EQ(Slots[Row + I], U[Row + (I + 1) % Row]) << "row1 slot " << I;
  }
}

TEST_F(BfvFixture, RotateRowsRightByTwo) {
  size_t Row = Encoder.rowSize();
  std::vector<uint64_t> U(2 * Row);
  for (size_t I = 0; I < U.size(); ++I)
    U[I] = I * 7 % 1000;
  auto Keys = makeGaloisKeys({-2});
  auto Ct = Eval.rotateRows(Enc.encrypt(Encoder.encode(U)), -2, Keys);
  auto Slots = decryptSlots(Ct);
  for (size_t I = 0; I < Row; ++I)
    EXPECT_EQ(Slots[I], U[(I + Row - 2) % Row]);
}

TEST_F(BfvFixture, RotateCompositionMatchesSum) {
  size_t Row = Encoder.rowSize();
  std::vector<uint64_t> U(2 * Row);
  for (size_t I = 0; I < U.size(); ++I)
    U[I] = I;
  auto Keys = makeGaloisKeys({3, 5, 8});
  auto Ct = Enc.encrypt(Encoder.encode(U));
  auto AB = Eval.rotateRows(Eval.rotateRows(Ct, 3, Keys), 5, Keys);
  auto Direct = Eval.rotateRows(Ct, 8, Keys);
  EXPECT_EQ(decryptSlots(AB), decryptSlots(Direct));
}

TEST_F(BfvFixture, RotateColumnsSwapsRows) {
  size_t Row = Encoder.rowSize();
  std::vector<uint64_t> U(2 * Row);
  for (size_t I = 0; I < U.size(); ++I)
    U[I] = I + 1;
  auto Keys = Keygen.createGaloisKeys({}, /*IncludeColumnSwap=*/true);
  auto Ct = Eval.rotateColumns(Enc.encrypt(Encoder.encode(U)), Keys);
  auto Slots = decryptSlots(Ct);
  for (size_t I = 0; I < Row; ++I) {
    EXPECT_EQ(Slots[I], U[Row + I]);
    EXPECT_EQ(Slots[Row + I], U[I]);
  }
}

TEST_F(BfvFixture, RotationPreservesValuesUnderFullCycle) {
  size_t Row = Encoder.rowSize();
  std::vector<uint64_t> U = randomSlots();
  auto Keys = makeGaloisKeys({static_cast<int>(Row / 2)});
  auto Ct = Enc.encrypt(Encoder.encode(U));
  auto Half = Eval.rotateRows(Ct, static_cast<int>(Row / 2), Keys);
  auto Full = Eval.rotateRows(Half, static_cast<int>(Row / 2), Keys);
  EXPECT_EQ(decryptSlots(Full), U);
}

//===----------------------------------------------------------------------===//
// Depth and parameter selection
//===----------------------------------------------------------------------===//

TEST(BfvDepth, ForMultDepthSupportsAdvertisedDepth) {
  BfvContext Ctx = BfvContext::forMultDepth(1);
  EXPECT_LE(Ctx.coeffModulusBits(),
            BfvContext::maxSecureCoeffBits(Ctx.polyDegree()));
  Rng R(7);
  KeyGenerator Keygen(Ctx, R);
  Encryptor Enc(Ctx, Keygen.createPublicKey(), R);
  Decryptor Dec(Ctx, Keygen.secretKey());
  Evaluator Eval(Ctx);
  BatchEncoder Encoder(Ctx);
  auto Relin = Keygen.createRelinKeys();

  std::vector<uint64_t> U = {5, 7, 11};
  auto Ct = Enc.encrypt(Encoder.encode(U));
  auto Sq = Eval.relinearize(Eval.multiply(Ct, Ct), Relin);
  EXPECT_GT(Dec.invariantNoiseBudget(Sq), 0.0);
  auto Slots = Encoder.decode(Dec.decrypt(Sq));
  EXPECT_EQ(Slots[0], 25u);
  EXPECT_EQ(Slots[1], 49u);
  EXPECT_EQ(Slots[2], 121u);
}

TEST(BfvDepth, SecurityTableKnownValues) {
  EXPECT_EQ(BfvContext::maxSecureCoeffBits(4096), 109u);
  EXPECT_EQ(BfvContext::maxSecureCoeffBits(8192), 218u);
  EXPECT_EQ(BfvContext::maxSecureCoeffBits(1000), 0u);
}

} // namespace
