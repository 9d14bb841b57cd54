//===- examples/private_distance.cpp - Encrypted similarity search --------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Privacy-preserving distance computation, the building block of private
/// k-NN / biometric matching: a client submits an encrypted feature vector
/// and the server computes its distance to a reference template without
/// decrypting anything. Uses both bundled distance kernels:
///
///   * Hamming distance (sum of squared differences == XOR-popcount on
///     binary data) - compiled live through the driver, it is small;
///   * squared L2 distance over 8-wide vectors - bundled program.
///
/// Demonstrates one driver Runtime hosting two kernels (shared context and
/// keys), noise-budget tracking across them, and the decrypt-compare round
/// trip of paper Figure 1.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "kernels/Kernels.h"

#include <cstdio>

using namespace porcupine;
using namespace porcupine::kernels;

int main() {
  KernelBundle Hamming = hammingDistanceKernel();
  KernelBundle L2 = l2DistanceKernel();

  std::printf("Synthesizing the Hamming-distance kernel...\n");
  driver::CompileOptions Opts;
  Opts.Synthesis.TimeoutSeconds = 60.0;
  Opts.FallbackToBundled = true;
  driver::Compiler Compiler(Opts);
  auto Result = Compiler.compile(Hamming);
  if (!Result) {
    std::fprintf(stderr, "%s\n", Result.status().toString().c_str());
    return 1;
  }
  if (Result->FromSynthesis)
    std::printf("  found %d-instruction kernel with %d example(s) in "
                "%.2fs\n\n",
                Result->Mix.Total, Result->Stats.ExamplesUsed,
                Result->Stats.TotalTimeSeconds);
  else
    std::printf("  synthesis did not finish in budget; using the bundled "
                "%d-instruction program\n\n",
                Result->Mix.Total);

  const quill::Program &HammingProg = Result->Program;
  const quill::Program &L2Prog = L2.Synthesized;
  auto RT = Compiler.instantiate({&HammingProg, &L2Prog});
  if (!RT) {
    std::fprintf(stderr, "%s\n", RT.status().toString().c_str());
    return 1;
  }

  // Binary iris-code-style template vs probe (Hamming).
  std::vector<uint64_t> Template = {1, 0, 1, 1};
  std::vector<uint64_t> Probe = {1, 1, 1, 0};
  auto EncTemplate = RT->encrypt(Template);
  auto EncProbe = RT->encrypt(Probe);
  if (!EncTemplate || !EncProbe) {
    std::fprintf(stderr, "encryption failed\n");
    return 1;
  }
  auto HamOut = RT->run(HammingProg, {*EncProbe, *EncTemplate});
  if (!HamOut) {
    std::fprintf(stderr, "%s\n", HamOut.status().toString().c_str());
    return 1;
  }
  auto Ham = RT->decrypt(*HamOut, 1);
  std::printf("encrypted Hamming distance([1 0 1 1], [1 1 1 0]) = %llu "
              "(expect 2), noise budget %.1f bits\n",
              static_cast<unsigned long long>(Ham[0]),
              RT->executor().noiseBudget(*HamOut));

  // 8-dimensional feature vectors (squared L2).
  std::vector<uint64_t> FeatA = {10, 20, 30, 40, 50, 60, 70, 80};
  std::vector<uint64_t> FeatB = {12, 18, 33, 44, 50, 55, 70, 90};
  auto EncA = RT->encrypt(FeatA);
  auto EncB = RT->encrypt(FeatB);
  if (!EncA || !EncB) {
    std::fprintf(stderr, "encryption failed\n");
    return 1;
  }
  auto L2Out = RT->run(L2Prog, {*EncA, *EncB});
  if (!L2Out) {
    std::fprintf(stderr, "%s\n", L2Out.status().toString().c_str());
    return 1;
  }
  auto Dist = RT->decrypt(*L2Out, 1);
  uint64_t Expect = 0;
  for (size_t I = 0; I < 8; ++I) {
    int64_t D = static_cast<int64_t>(FeatA[I]) - static_cast<int64_t>(FeatB[I]);
    Expect += static_cast<uint64_t>(D * D);
  }
  std::printf("encrypted squared-L2 distance = %llu (expect %llu), noise "
              "budget %.1f bits\n",
              static_cast<unsigned long long>(Dist[0]),
              static_cast<unsigned long long>(Expect),
              RT->executor().noiseBudget(*L2Out));

  return (Ham[0] == 2 && Dist[0] == Expect) ? 0 : 1;
}
