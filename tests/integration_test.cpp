//===- tests/integration_test.cpp - Full-pipeline integration -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end tests of the complete toolchain on the fast kernels:
/// specification -> sketch -> CEGIS synthesis -> symbolic verification ->
/// SEAL-style code generation -> encrypted execution -> decrypt-compare
/// against the plaintext reference. This is the paper's Figure 3 pipeline
/// exercised in one breath.
///
//===----------------------------------------------------------------------===//

#include "BfvSession.h"
#include "backend/SealCodeGen.h"
#include "kernels/Kernels.h"
#include "quill/Analysis.h"
#include "quill/Interpreter.h"
#include "spec/Equivalence.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

using namespace porcupine;
using namespace porcupine::kernels;
using namespace porcupine::quill;

namespace {

struct PipelineCase {
  const char *Name;
  KernelBundle (*Make)();
  /// Expected instruction count of the synthesized program (0 = don't
  /// check; synthesis may legally find structural variants).
  size_t ExpectInstrs;
};

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, SpecToEncryptedExecution) {
  KernelBundle B = GetParam().Make();

  // Synthesize.
  synth::SynthesisOptions Opts;
  Opts.TimeoutSeconds = 90.0;
  Opts.Seed = 3;
  auto Result = synth::synthesize(B.Spec, B.Sketch, Opts);
  ASSERT_TRUE(Result.Found) << "synthesis failed for " << GetParam().Name;
  if (GetParam().ExpectInstrs != 0)
    EXPECT_EQ(Result.Prog.Instructions.size(), GetParam().ExpectInstrs);

  // The synthesized program must match the bundle's program in cost class:
  // no worse than the paper's synthesized artifact.
  EXPECT_LE(Result.Prog.Instructions.size(),
            B.Synthesized.Instructions.size());

  // Verify symbolically (independent of the CEGIS loop's own check).
  Rng VerifyRng(17);
  EXPECT_TRUE(verifyProgram(Result.Prog, B.Spec, 65537, VerifyRng).Equivalent);

  // Generated code must mention every rotation the program performs.
  std::string Code = emitSealCode(Result.Prog);
  for (int Step : requiredRotations(Result.Prog))
    EXPECT_NE(Code.find(", " + std::to_string(Step) + ", gal_keys"),
              std::string::npos)
        << "rotation " << Step << " missing from generated code";

  // Execute encrypted and compare against the plaintext reference.
  BfvParams Params;
  Params.PolyDegree = 1024;
  Params.CoeffPrimeBits = {40, 40, 40};
  auto Ctx = std::make_shared<const BfvContext>(Params);
  Rng R(23);
  auto Exec = openBfvSession({&Result.Prog}, R.next(), Ctx);
  for (int Trial = 0; Trial < 3; ++Trial) {
    auto Inputs = B.Spec.randomInputs(R, Ctx->plainModulus(), 64);
    std::vector<backend::Value> Enc;
    for (const auto &In : Inputs)
      Enc.push_back(*Exec->encrypt(In));
    backend::Value Out = *Exec->run(Result.Prog, Enc);
    EXPECT_GT(Exec->noiseBudget(Out), 0.0);
    auto Got = Exec->decrypt(Out, B.Spec.vectorSize());
    auto Want = B.Spec.evalConcrete(Inputs, Ctx->plainModulus());
    for (size_t J = 0; J < B.Spec.vectorSize(); ++J)
      if (B.Spec.outputSlotMatters(J))
        EXPECT_EQ(Got[J], Want[J]) << "slot " << J;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FastKernels, PipelineTest,
    ::testing::Values(PipelineCase{"BoxBlur", boxBlurKernel, 4},
                      PipelineCase{"LinearRegression", linearRegressionKernel,
                                   4},
                      PipelineCase{"PolyRegression", polyRegressionKernel, 4},
                      PipelineCase{"HammingDistance", hammingDistanceKernel,
                                   6}),
    [](const auto &Info) { return Info.param.Name; });

//===----------------------------------------------------------------------===//
// Synthesized-equals-paper regression for the separable kernels
//===----------------------------------------------------------------------===//

TEST(PipelineRegression, GxSynthesisRediscoversSeparableForm) {
  KernelBundle B = gxKernel();
  synth::SynthesisOptions Opts;
  Opts.TimeoutSeconds = 120.0;
  Opts.Seed = 3;
  auto Result = synth::synthesize(B.Spec, B.Sketch, Opts);
  ASSERT_TRUE(Result.Found);
  // The paper's Figure 6a result: 3 arithmetic components, 7 instructions,
  // and crucially no multiplies (the x2 weight becomes an addition).
  EXPECT_EQ(Result.Stats.ComponentsUsed, 3);
  EXPECT_EQ(Result.Prog.Instructions.size(), 7u);
  auto Mix = countInstructions(Result.Prog);
  EXPECT_EQ(Mix.CtCtMuls + Mix.CtPtMuls, 0);
  EXPECT_EQ(Mix.Rotations, 4);
  Rng R(31);
  EXPECT_TRUE(verifyProgram(Result.Prog, B.Spec, 65537, R).Equivalent);
}

TEST(PipelineRegression, MultiStepSobelFromFreshStages) {
  // Synthesize box blur fresh, reuse bundled gradients, compose, check.
  KernelBundle Blur = boxBlurKernel();
  synth::SynthesisOptions Opts;
  Opts.TimeoutSeconds = 60.0;
  auto BlurResult = synth::synthesize(Blur.Spec, Blur.Sketch, Opts);
  ASSERT_TRUE(BlurResult.Found);

  AppBundle App = harrisApp(gxKernel().Synthesized, gyKernel().Synthesized,
                            BlurResult.Prog);
  Rng R(37);
  for (int Trial = 0; Trial < 10; ++Trial) {
    auto Inputs = App.Spec.randomInputs(R, 65537);
    auto Want = App.Spec.evalConcrete(Inputs, 65537);
    auto Got = interpret(App.Synthesized, Inputs, 65537);
    for (size_t J = 0; J < App.Spec.vectorSize(); ++J)
      if (App.Spec.outputSlotMatters(J))
        EXPECT_EQ(Got[J], Want[J]) << "slot " << J;
  }
}

} // namespace
