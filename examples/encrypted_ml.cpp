//===- examples/encrypted_ml.cpp - Private regression inference -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Private ML inference with a synthesized kernel: a server evaluates a
/// degree-2 polynomial regression model on a client's encrypted features.
/// The driver API compiles the bundled specification — rediscovering the
/// (a*x + b)*x + c factorization the paper highlights, one fewer ciphertext
/// multiply than the schoolbook form — and falls back to the bundled
/// program if synthesis does not finish in budget.
///
/// Four samples are processed per ciphertext through batching; the model
/// coefficients are also encrypted, so the server learns neither the
/// features nor the model.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "kernels/Kernels.h"
#include "support/Timing.h"

#include <cstdio>

using namespace porcupine;
using namespace porcupine::kernels;

int main() {
  KernelBundle Poly = polyRegressionKernel();

  std::printf("Synthesizing the polynomial-regression kernel "
              "a*x^2 + b*x + c ...\n");
  driver::CompileOptions Opts;
  Opts.Synthesis.TimeoutSeconds = 60.0;
  Opts.FallbackToBundled = true; // Take the bundled program on timeout.
  driver::Compiler Compiler(Opts);
  auto Result = Compiler.compile(Poly);
  if (!Result) {
    std::fprintf(stderr, "%s\n", Result.status().toString().c_str());
    return 1;
  }

  auto BaseMix = quill::countInstructions(Poly.Baseline);
  std::printf("  synthesized: %d instructions, %d ct-ct multiplies "
              "(schoolbook baseline: %d instructions, %d multiplies)\n",
              Result->Mix.Total, Result->Mix.CtCtMuls, BaseMix.Total,
              BaseMix.CtCtMuls);
  if (Result->Mix.CtCtMuls < BaseMix.CtCtMuls)
    std::printf("  -> Porcupine rediscovered the (a*x + b)*x + c "
                "factorization\n\n");

  // Model: y = 3x^2 + 5x + 7 on samples x = {1, 2, 3, 4}, batched.
  std::vector<uint64_t> X = {1, 2, 3, 4};
  std::vector<uint64_t> A(4, 3), B(4, 5), C(4, 7);

  auto RT = Compiler.instantiate({&Result->Program});
  if (!RT) {
    std::fprintf(stderr, "%s\n", RT.status().toString().c_str());
    return 1;
  }

  std::printf("client encrypts features and model coefficients...\n");
  std::vector<backend::Value> Enc;
  for (const auto &V : {X, A, B, C}) {
    auto Ct = RT->encrypt(V);
    if (!Ct) {
      std::fprintf(stderr, "%s\n", Ct.status().toString().c_str());
      return 1;
    }
    Enc.push_back(Ct.take());
  }

  Stopwatch W;
  auto Out = RT->run(Result->Program, Enc);
  if (!Out) {
    std::fprintf(stderr, "%s\n", Out.status().toString().c_str());
    return 1;
  }
  double Ms = W.micros() / 1000.0;

  auto Y = RT->decrypt(*Out, 4);
  std::printf("server evaluated the model homomorphically in %.1f ms "
              "(noise budget left: %.1f bits)\n\n",
              Ms, RT->executor().noiseBudget(*Out));
  bool Ok = true;
  for (size_t I = 0; I < 4; ++I) {
    uint64_t Expect = 3 * X[I] * X[I] + 5 * X[I] + 7;
    std::printf("  x=%llu -> y=%llu (expect %llu)\n",
                static_cast<unsigned long long>(X[I]),
                static_cast<unsigned long long>(Y[I]),
                static_cast<unsigned long long>(Expect));
    Ok = Ok && Y[I] == Expect;
  }
  return Ok ? 0 : 1;
}
