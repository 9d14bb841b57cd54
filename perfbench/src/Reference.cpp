//===- perfbench/src/Reference.cpp - Seeded inputs and references ---------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include "support/Error.h"
#include "support/Random.h"

using namespace perfbench;
using porcupine::Rng;

namespace {

constexpr uint64_t T = PlainModulus;

uint64_t mulMod(uint64_t A, uint64_t B) { return (A % T) * (B % T) % T; }

/// 5x5 convolution of an 8x8 image over the valid 4x4 region; output
/// out[r][c] lands in slot r * 8 + c.
void conv2d(const std::vector<uint64_t> &Img, std::vector<uint64_t> &Out,
            std::vector<bool> &Checked) {
  static const uint64_t K[5][5] = {{1, 2, 3, 2, 1},
                                   {2, 4, 6, 4, 2},
                                   {3, 6, 9, 6, 3},
                                   {2, 4, 6, 4, 2},
                                   {1, 2, 3, 2, 1}};
  Out.assign(64, 0);
  Checked.assign(64, false);
  for (int R = 0; R < 4; ++R)
    for (int C = 0; C < 4; ++C) {
      uint64_t Acc = 0;
      for (int DR = 0; DR < 5; ++DR)
        for (int DC = 0; DC < 5; ++DC)
          Acc = (Acc + mulMod(Img[(R + DR) * 8 + (C + DC)], K[DR][DC])) % T;
      Out[R * 8 + C] = Acc;
      Checked[R * 8 + C] = true;
    }
}

/// Dense 8 -> 4 -> 1 with square activation; the result is slot 0.
void perceptron(const std::vector<uint64_t> &X, std::vector<uint64_t> &Out,
                std::vector<bool> &Checked) {
  static const uint64_t W1[4][8] = {{2, 1, 3, 1, 2, 1, 1, 2},
                                    {1, 3, 1, 2, 1, 2, 2, 1},
                                    {3, 1, 2, 1, 1, 3, 1, 1},
                                    {1, 2, 1, 3, 2, 1, 1, 2}};
  static const uint64_t B1[4] = {1, 2, 1, 3};
  static const uint64_t W2[4] = {2, 1, 3, 1};
  const uint64_t B2 = 5;
  uint64_t Acc = B2;
  for (int J = 0; J < 4; ++J) {
    uint64_t Z = B1[J];
    for (int I = 0; I < 8; ++I)
      Z = (Z + mulMod(W1[J][I], X[I])) % T;
    Acc = (Acc + mulMod(W2[J], mulMod(Z, Z))) % T;
  }
  Out.assign(8, 0);
  Checked.assign(8, false);
  Out[0] = Acc;
  Checked[0] = true;
}

/// Sums 16 values into 4 buckets by a public key column; bucket g lands in
/// slot g.
void groupBySum(const std::vector<uint64_t> &Vals, std::vector<uint64_t> &Out,
                std::vector<bool> &Checked) {
  static const int Key[16] = {0, 2, 1, 3, 3, 0, 2, 1, 0, 1, 2, 2, 3, 0, 1, 3};
  Out.assign(16, 0);
  Checked.assign(16, false);
  for (int I = 0; I < 16; ++I)
    Out[Key[I]] = (Out[Key[I]] + Vals[I]) % T;
  for (int G = 0; G < 4; ++G)
    Checked[G] = true;
}

uint64_t keySalt(const std::string &Key) {
  uint64_t H = 1469598103934665603ull;
  for (char C : Key)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ull;
  return H;
}

} // namespace

KernelCase perfbench::specCase(const porcupine::KernelSpec &Spec,
                               const std::string &Key, uint64_t Seed,
                               size_t Count) {
  KernelCase KC;
  KC.Name = Spec.name();
  KC.Key = Key;
  Rng R(Seed ^ keySalt(Key));
  for (size_t I = 0; I < Spec.vectorSize(); ++I)
    KC.Checked.push_back(Spec.outputSlotMatters(I));
  for (size_t N = 0; N < Count; ++N) {
    KC.Inputs.push_back(Spec.randomInputs(R, T));
    KC.Want.push_back(Spec.evalConcrete(KC.Inputs.back(), T));
  }
  return KC;
}

KernelCase perfbench::loweredCase(const std::string &Name,
                                  const std::string &Key, uint64_t Seed,
                                  size_t Count) {
  KernelCase KC;
  KC.Name = Name;
  KC.Key = Key;
  size_t Width = Name == "Conv2D 5x5"         ? 64
                 : Name == "Perceptron 8-4-1" ? 8
                 : Name == "Group-By Sum"     ? 16
                                              : 0;
  if (!Width)
    porcupine::fatalError("perfbench: no reference for kernel '" + Name + "'");
  Rng R(Seed ^ keySalt(Key));
  for (size_t N = 0; N < Count; ++N) {
    std::vector<uint64_t> In = R.vectorBelow(T, Width);
    std::vector<uint64_t> Out;
    if (Width == 64)
      conv2d(In, Out, KC.Checked);
    else if (Width == 8)
      perceptron(In, Out, KC.Checked);
    else
      groupBySum(In, Out, KC.Checked);
    KC.Inputs.push_back({std::move(In)});
    KC.Want.push_back(std::move(Out));
  }
  return KC;
}

std::vector<std::vector<uint64_t>>
perfbench::padInputs(const std::vector<std::vector<uint64_t>> &Inputs,
                     size_t Width) {
  std::vector<std::vector<uint64_t>> Out = Inputs;
  for (std::vector<uint64_t> &V : Out)
    V.resize(Width, 0);
  return Out;
}

std::vector<uint64_t> perfbench::repeatedSquare(const std::vector<uint64_t> &X,
                                                int D) {
  std::vector<uint64_t> Out = X;
  for (uint64_t &V : Out)
    for (int I = 0; I < D; ++I)
      V = mulMod(V, V);
  return Out;
}
