//===- tests/driver_test.cpp - Unit tests for the driver API --------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The porcupine::driver contract: option plumbing through the pipeline,
/// per-stage entry points with early exit, kernel-registry registration and
/// exact-then-prefix lookup with ambiguity reporting, and — crucially —
/// that malformed user input of every kind comes back as a Status carrying
/// diagnostics instead of a fatalError/abort.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "kernels/KernelRegistry.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

using namespace porcupine;
using namespace porcupine::driver;
using namespace porcupine::kernels;

namespace {

constexpr uint64_t T = 65537;

/// A trivial one-component kernel (slotwise vector add) that synthesizes in
/// microseconds, keeping this suite in the fast label.
KernelSpec addSpec(size_t Width = 4) {
  DataLayout Layout;
  Layout.Description = "slotwise a + b";
  return makeKernelSpec("add", 2, Width, Layout,
                        [Width](const auto &In, auto Konst) {
                          (void)Konst;
                          std::decay_t<decltype(In[0])> Out;
                          for (size_t I = 0; I < Width; ++I)
                            Out.push_back(In[0][I] + In[1][I]);
                          return Out;
                        });
}

synth::Sketch addSketch(size_t Width = 4) {
  synth::Sketch Sk;
  Sk.NumInputs = 2;
  Sk.VectorSize = Width;
  Sk.Menu = {synth::Component::ctCt(quill::Opcode::AddCtCt,
                                    synth::OperandKind::Ct,
                                    synth::OperandKind::Ct)};
  return Sk;
}

/// add(c0, c1) as a hand-built program.
quill::Program addProgram(size_t Width = 4) {
  quill::Program P;
  P.NumInputs = 2;
  P.VectorSize = Width;
  P.append(quill::Instr::ctCt(quill::Opcode::AddCtCt, 0, 1));
  return P;
}

/// x^(2^Depth) by repeated squaring: multiplicative depth \p Depth.
quill::Program squareChain(int Depth) {
  quill::Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  int V = 0;
  for (int I = 0; I < Depth; ++I)
    V = P.append(quill::Instr::ctCt(quill::Opcode::MulCtCt, V, V));
  return P;
}

std::vector<uint64_t> squareChainReference(std::vector<uint64_t> X,
                                           int Depth) {
  for (int I = 0; I < Depth; ++I)
    for (uint64_t &V : X)
      V = V * V % T;
  return X;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(KernelRegistry, BuiltinHasTheThirteenKernelsInTableOrder) {
  // The paper's nine in Table 2 order, the variance extension, then the
  // three `.porc` frontend workloads (too large for direct synthesis).
  const KernelRegistry &R = KernelRegistry::builtin();
  EXPECT_EQ(R.size(), 13u);
  auto Names = R.names();
  ASSERT_EQ(Names.size(), 13u);
  EXPECT_EQ(Names.front(), "Box Blur");
  EXPECT_EQ(Names[8], "Roberts Cross");
  EXPECT_EQ(Names[9], "Variance");
  EXPECT_EQ(Names[10], "Conv2D 5x5");
  EXPECT_EQ(Names[11], "Perceptron 8-4-1");
  EXPECT_EQ(Names.back(), "Group-By Sum");
}

TEST(KernelRegistry, ExactMatchWinsOverPrefix) {
  KernelRegistry R = KernelRegistry::builtin();
  ASSERT_TRUE(R.add("Gx Extended", [] { return gxKernel(); }).ok());
  // "gx" is an exact name AND a prefix of "Gx Extended": exact must win.
  auto B = R.find("gx");
  ASSERT_TRUE(B.hasValue());
  EXPECT_EQ((*B)->Spec.name(), "Gx");
  // A longer prefix resolves the extended entry.
  auto B2 = R.find("gx ext");
  ASSERT_TRUE(B2.hasValue());
}

TEST(KernelRegistry, LookupNormalizesCaseAndSeparators) {
  const KernelRegistry &R = KernelRegistry::builtin();
  for (const char *Spelling : {"box blur", "Box Blur", "BOX_BLUR", "box-blur"}) {
    auto B = R.find(Spelling);
    ASSERT_TRUE(B.hasValue()) << "spelling: " << Spelling;
    EXPECT_EQ((*B)->Spec.name(), "Box Blur");
  }
}

TEST(KernelRegistry, AmbiguousPrefixReportsCandidates) {
  auto B = KernelRegistry::builtin().find("g");
  ASSERT_FALSE(B.hasValue());
  std::string Msg = B.status().toString();
  EXPECT_NE(Msg.find("ambiguous"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("Gx"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("Gy"), std::string::npos) << Msg;
}

TEST(KernelRegistry, UnknownNameListsTheCatalog) {
  auto B = KernelRegistry::builtin().find("no-such-kernel");
  ASSERT_FALSE(B.hasValue());
  EXPECT_NE(B.status().toString().find("Box Blur"), std::string::npos);
}

TEST(KernelRegistry, DuplicateRegistrationFails) {
  KernelRegistry R;
  EXPECT_TRUE(R.add("K", [] { return boxBlurKernel(); }).ok());
  // Same normalized key, different display spelling.
  Status S = R.add("k", [] { return boxBlurKernel(); });
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("already registered"), std::string::npos);
  EXPECT_FALSE(R.add("", [] { return boxBlurKernel(); }).ok());
}

TEST(KernelRegistry, BundlesMaterializeLazilyAndOnce) {
  KernelRegistry R;
  int Builds = 0;
  ASSERT_TRUE(R.add("Counting", [&Builds] {
                 ++Builds;
                 return boxBlurKernel();
               }).ok());
  EXPECT_EQ(Builds, 0); // Registration must not materialize.
  auto First = R.find("counting");
  ASSERT_TRUE(First.hasValue());
  auto Second = R.find("Counting");
  ASSERT_TRUE(Second.hasValue());
  EXPECT_EQ(Builds, 1); // Cached after the first hit...
  EXPECT_EQ(*First, *Second); // ...and the pointer is stable.
}

TEST(KernelRegistry, CustomRegistryPlugsIntoTheCompiler) {
  KernelRegistry R;
  KernelBundle Add;
  Add.Spec = addSpec();
  Add.Sketch = addSketch();
  Add.Synthesized = addProgram();
  ASSERT_TRUE(R.add("My Add", Add).ok());

  CompileOptions Opts;
  Opts.RunSynthesis = false;
  Compiler C(Opts, &R);
  auto Result = C.compile("my add");
  ASSERT_TRUE(Result.hasValue()) << Result.status().toString();
  EXPECT_EQ(Result->KernelName, "add");
  EXPECT_FALSE(Result->FromSynthesis);
  // The builtin catalog is not visible through a custom registry.
  EXPECT_FALSE(C.compile("box blur").hasValue());
}

//===----------------------------------------------------------------------===//
// Option plumbing
//===----------------------------------------------------------------------===//

TEST(CompileOptions, PlumbThroughThePipeline) {
  CompileOptions Opts;
  Opts.RunSynthesis = false;
  Opts.Codegen.FunctionName = "my_function_name";
  Compiler C(Opts);
  auto Result = C.compile("dot product");
  ASSERT_TRUE(Result.hasValue()) << Result.status().toString();
  // Codegen options reached the emitter.
  EXPECT_NE(Result->SealCode.find("my_function_name"), std::string::npos);
  // Parameter selection ran and matches the program's depth.
  EXPECT_EQ(Result->Params.MultiplicativeDepth,
            static_cast<unsigned>(Result->MultDepth));
  EXPECT_GT(Result->Params.PolyDegree, 0u);
  // The bundled path is reported as such, with a note.
  EXPECT_FALSE(Result->FromSynthesis);
  EXPECT_FALSE(Result->Notes.empty());
}

TEST(CompileOptions, StagesCanBeDisabled) {
  CompileOptions Opts;
  Opts.RunSynthesis = false;
  Opts.EmitSealCode = false;
  Opts.SelectParameters = false;
  Compiler C(Opts);
  auto Result = C.compile("gx");
  ASSERT_TRUE(Result.hasValue()) << Result.status().toString();
  EXPECT_TRUE(Result->SealCode.empty());
  EXPECT_EQ(Result->Params.PolyDegree, 0u);
  // Analyses still run.
  EXPECT_GT(Result->Mix.Total, 0);
  EXPECT_GT(Result->Cost, 0.0);
}

TEST(CompileOptions, OptimizerPipelineRewritesRedundantPrograms) {
  // rot(rot(x, 1), 1) + x has a fusable rotation chain.
  quill::Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  int R1 = P.append(quill::Instr::rot(0, 1));
  int R2 = P.append(quill::Instr::rot(R1, 1));
  P.append(quill::Instr::ctCt(quill::Opcode::AddCtCt, R2, 0));

  Compiler C;
  auto Opt = C.optimize(P);
  ASSERT_TRUE(Opt.hasValue()) << Opt.status().toString();
  EXPECT_GT(Opt->Stats.totalRewrites(), 0);
  EXPECT_LT(Opt->Program.Instructions.size(), P.Instructions.size());
  // One stats record per pass in the default pipeline, in order.
  ASSERT_EQ(Opt->Stats.Passes.size(), 5u);
  EXPECT_EQ(Opt->Stats.Passes.front().Pass, "peephole");
  EXPECT_EQ(Opt->Stats.Passes.back().Pass, "rot-dedup");
  // The pipeline never raises cost.
  EXPECT_LE(Opt->Stats.costAfter(), Opt->Stats.costBefore());
}

TEST(CompileOptions, UnknownPipelinePassIsRejectedUpFront) {
  CompileOptions Opts;
  Opts.Pipeline = "peephole,frobnicate";
  Opts.RunSynthesis = false;
  Compiler C(Opts);
  auto Result = C.compile("dot product");
  ASSERT_FALSE(Result.hasValue());
  EXPECT_NE(Result.status().toString().find("frobnicate"),
            std::string::npos);
}

TEST(CompileOptions, InvalidOptionsAreRejectedUpFront) {
  CompileOptions Opts;
  Opts.Synthesis.TimeoutSeconds = -1.0;
  Opts.Synthesis.MinComponents = 5;
  Opts.Synthesis.MaxComponents = 2;
  Compiler C(Opts);
  auto Result = C.compile("dot product");
  ASSERT_FALSE(Result.hasValue());
  // Both problems are reported at once.
  EXPECT_GE(Result.status().diagnostics().size(), 2u);
  for (const Diagnostic &D : Result.status().diagnostics())
    EXPECT_EQ(D.Stage, "options");
}

//===----------------------------------------------------------------------===//
// Per-stage entry points / early exit
//===----------------------------------------------------------------------===//

TEST(CompilerStages, SynthesizeAloneThenStop) {
  Compiler C;
  C.options().Synthesis.TimeoutSeconds = 30.0;
  auto Syn = C.synthesize(addSpec(), addSketch());
  ASSERT_TRUE(Syn.hasValue()) << Syn.status().toString();
  EXPECT_EQ(Syn->Program.Instructions.size(), 1u);
  EXPECT_GE(Syn->Stats.ExamplesUsed, 1);

  // The caller can stop here, or feed the program to later stages.
  auto V = C.verify(Syn->Program, addSpec());
  ASSERT_TRUE(V.hasValue()) << V.status().toString();
  EXPECT_TRUE(V->Equivalent);
}

TEST(CompilerStages, EmitAlone) {
  Compiler C;
  C.options().Codegen.FunctionName = "standalone";
  auto Code = C.emit(addProgram());
  ASSERT_TRUE(Code.hasValue()) << Code.status().toString();
  EXPECT_NE(Code->find("void standalone"), std::string::npos);
}

TEST(CompilerStages, SelectParametersAlone) {
  Compiler C;
  auto Params = C.selectParameters(addProgram());
  ASSERT_TRUE(Params.hasValue()) << Params.status().toString();
  EXPECT_EQ(Params->MultiplicativeDepth, 0u);
  EXPECT_GT(Params->PolyDegree, 0u);
}

TEST(CompilerStages, ExecuteOnBothBundledBackends) {
  quill::Program P = addProgram();
  std::vector<std::vector<uint64_t>> Inputs = {{1, 2, 3, 4}, {10, 20, 30, 40}};

  CompileOptions Dry;
  Dry.Backend = "dryrun";
  auto Plain = Compiler(Dry).execute(P, Inputs);
  ASSERT_TRUE(Plain.hasValue()) << Plain.status().toString();
  EXPECT_EQ(Plain->Outputs, (std::vector<uint64_t>{11, 22, 33, 44}));
  EXPECT_FALSE(Plain->Encrypted);
  EXPECT_GT(Plain->ChargedLatencyUs, 0.0);

  Compiler C; // Default backend: encrypted BFV.
  auto Enc = C.execute(P, Inputs);
  ASSERT_TRUE(Enc.hasValue()) << Enc.status().toString();
  EXPECT_EQ(Enc->Outputs, (std::vector<uint64_t>{11, 22, 33, 44}));
  EXPECT_TRUE(Enc->Encrypted);
  EXPECT_GT(Enc->NoiseBudgetBits, 0.0);
  EXPECT_GT(Enc->PolyDegree, 0u);
}

TEST(CompilerStages, VerifyReportsInequivalenceAsSuccess) {
  // sub(c0, c1) is NOT the add spec; that is a successful verify() call
  // with Equivalent == false and a counterexample — not an error.
  quill::Program P;
  P.NumInputs = 2;
  P.VectorSize = 4;
  P.append(quill::Instr::ctCt(quill::Opcode::SubCtCt, 0, 1));

  Compiler C;
  auto V = C.verify(P, addSpec());
  ASSERT_TRUE(V.hasValue()) << V.status().toString();
  EXPECT_FALSE(V->Equivalent);
  ASSERT_EQ(V->Counterexample.size(), 2u);
  // The counterexample really separates program and spec.
  auto Got = quill::interpret(P, V->Counterexample, T);
  auto Want = addSpec().evalConcrete(V->Counterexample, T);
  EXPECT_NE(Got, Want);
}

TEST(CompilerStages, SynthesisFailureIsAnErrorNotAnAbort) {
  // Squaring cannot be expressed with one addition component.
  DataLayout Layout;
  KernelSpec Square = makeKernelSpec(
      "square", 1, 2, Layout, [](const auto &In, auto Konst) {
        (void)Konst;
        std::decay_t<decltype(In[0])> Out;
        for (size_t I = 0; I < 2; ++I)
          Out.push_back(In[0][I] * In[0][I]);
        return Out;
      });
  synth::Sketch Sk;
  Sk.NumInputs = 1;
  Sk.VectorSize = 2;
  Sk.Menu = {synth::Component::ctCt(quill::Opcode::AddCtCt,
                                    synth::OperandKind::Ct,
                                    synth::OperandKind::Ct)};

  Compiler C;
  C.options().Synthesis.MaxComponents = 2;
  auto Syn = C.synthesize(Square, Sk);
  ASSERT_FALSE(Syn.hasValue());
  EXPECT_EQ(Syn.status().diagnostics().front().Stage, "synthesis");
  EXPECT_NE(Syn.status().message().find("square"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Bad input -> Status, never abort
//===----------------------------------------------------------------------===//

TEST(DriverErrors, SketchSpecShapeMismatch) {
  Compiler C;
  synth::Sketch Sk = addSketch();
  Sk.NumInputs = 1; // Spec takes 2.
  auto Syn = C.synthesize(addSpec(), Sk);
  ASSERT_FALSE(Syn.hasValue());
  EXPECT_NE(Syn.status().message().find("input"), std::string::npos);

  Sk = addSketch();
  Sk.VectorSize = 8; // Spec is 4 wide.
  EXPECT_FALSE(C.synthesize(addSpec(), Sk).hasValue());

  Sk = addSketch();
  Sk.Menu.clear();
  EXPECT_FALSE(C.synthesize(addSpec(), Sk).hasValue());

  Sk = addSketch();
  Sk.Menu.push_back(synth::Component::ctPt(quill::Opcode::MulCtPt, 3));
  EXPECT_FALSE(C.synthesize(addSpec(), Sk).hasValue()); // No constant 3.
}

TEST(DriverErrors, MalformedProgramsAreDiagnosed) {
  quill::Program P = addProgram();
  P.Instructions[0].Src1 = 7; // Operand defined nowhere.
  Compiler C;
  EXPECT_FALSE(C.emit(P).hasValue());
  EXPECT_FALSE(C.optimize(P).hasValue());
  EXPECT_FALSE(C.selectParameters(P).hasValue());
  EXPECT_FALSE(C.execute(P, {{1}, {2}}).hasValue());
  EXPECT_FALSE(C.verify(P, addSpec()).hasValue());

  quill::Program Empty;
  Empty.VectorSize = 0;
  EXPECT_FALSE(C.emit(Empty).hasValue());
}

TEST(DriverErrors, ExecuteValidatesInputShape) {
  CompileOptions Opts;
  Opts.Backend = "dryrun"; // Shape validation is backend-independent.
  Compiler C(Opts);
  quill::Program P = addProgram();
  // Wrong input count.
  auto R = C.execute(P, {{1, 2, 3, 4}});
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.status().diagnostics().front().Stage, "execute");
  // Over-wide vector.
  EXPECT_FALSE(C.execute(P, {{1, 2, 3, 4, 5}, {1, 2, 3, 4}}).hasValue());
  // Under-wide vectors are zero-padded, not rejected.
  auto Ok = C.execute(P, {{1}, {2}});
  ASSERT_TRUE(Ok.hasValue()) << Ok.status().toString();
  EXPECT_EQ(Ok->Outputs[0], 3u);
}

TEST(DriverErrors, RuntimeRejectsForeignProgramsAndShapes) {
  Compiler C;
  quill::Program P = addProgram();
  auto RT = C.instantiate({&P});
  ASSERT_TRUE(RT.hasValue()) << RT.status().toString();

  auto A = RT->encrypt({1, 2, 3, 4});
  ASSERT_TRUE(A.hasValue());
  // Wrong ciphertext count.
  EXPECT_FALSE(RT->run(P, {*A}).hasValue());

  // A program needing a Galois key the runtime never generated must be
  // refused up front (the executor would otherwise fatalError).
  quill::Program Rot = addProgram();
  Rot.append(quill::Instr::rot(Rot.outputId(), 2));
  auto R = RT->run(Rot, {*A, *A});
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.status().message().find("Galois"), std::string::npos);

  // Instantiating with the rotation program makes the same call succeed.
  auto RT2 = C.instantiate({&Rot});
  ASSERT_TRUE(RT2.hasValue()) << RT2.status().toString();
  auto B = RT2->encrypt({1, 2, 3, 4});
  ASSERT_TRUE(B.hasValue());
  EXPECT_TRUE(RT2->run(Rot, {*B, *B}).hasValue());

  EXPECT_FALSE(C.instantiate({}).hasValue());
  EXPECT_FALSE(C.instantiate({nullptr}).hasValue());
}

TEST(DriverErrors, FallbackCarriesTheFailedAttemptStats) {
  // A sketch that cannot express the spec (subtraction only), so synthesis
  // exhausts quickly; the bundled program rescues the compile, and the
  // result must still report the failed attempt's measurements.
  KernelBundle B;
  B.Spec = addSpec();
  B.Sketch = addSketch();
  B.Sketch.Menu = {synth::Component::ctCt(quill::Opcode::SubCtCt,
                                          synth::OperandKind::Ct,
                                          synth::OperandKind::Ct)};
  B.Synthesized = addProgram();

  CompileOptions Opts;
  Opts.FallbackToBundled = true;
  Opts.Synthesis.MaxComponents = 2;
  Compiler C(Opts);
  auto Result = C.compile(B);
  ASSERT_TRUE(Result.hasValue()) << Result.status().toString();
  EXPECT_FALSE(Result->FromSynthesis);
  EXPECT_GT(Result->Stats.NodesExplored, 0); // The attempt really ran.
  // And the fallback is called out in the notes.
  bool Warned = false;
  for (const Diagnostic &D : Result->Notes)
    Warned = Warned || D.Sev == Severity::Warning;
  EXPECT_TRUE(Warned);
}

TEST(DriverErrors, EncryptedExecutionRejectsUnsupportedPlainModulus) {
  CompileOptions Opts;
  Opts.Synthesis.PlainModulus = 257; // Not the standard contexts' modulus.
  quill::Program P = addProgram();
  std::vector<std::vector<uint64_t>> Inputs = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  // The dry-run backend honors an arbitrary modulus...
  CompileOptions Dry = Opts;
  Dry.Backend = "dryrun";
  auto Plain = Compiler(Dry).execute(P, Inputs);
  ASSERT_TRUE(Plain.hasValue()) << Plain.status().toString();
  // ...but an encrypted run would silently compute mod 65537, so it must
  // be refused with a diagnostic instead.
  auto Enc = Compiler(Opts).execute(P, Inputs);
  ASSERT_FALSE(Enc.hasValue());
  EXPECT_NE(Enc.status().message().find("modulus"), std::string::npos);
}

TEST(DriverErrors, ExhaustedNoiseBudgetIsAnErrorNotAWrongAnswer) {
  const std::vector<uint64_t> X = {2, 3, 4, 5};
  Compiler C; // Encrypted BFV.
  // Depth 7 exhausts the largest parameter row: the slots would decrypt
  // to garbage, so the call must fail instead of returning them.
  auto Deep = C.execute(squareChain(7), {X});
  ASSERT_FALSE(Deep.hasValue());
  EXPECT_EQ(Deep.status().diagnostics().front().Stage, "execute");
  EXPECT_NE(Deep.status().message().find("noise budget exhausted"),
            std::string::npos)
      << Deep.status().toString();
  EXPECT_NE(Deep.status().message().find("N=8192"), std::string::npos);

  // Depth 6 still fits and decrypts to pow(x, 64) mod t.
  auto Ok = C.execute(squareChain(6), {X});
  ASSERT_TRUE(Ok.hasValue()) << Ok.status().toString();
  EXPECT_EQ(Ok->Outputs, squareChainReference(X, 6));
  EXPECT_GE(Ok->NoiseBudgetBits, 1.0);

  // The keyless dry-run backend has no noise, so depth 7 is exact there.
  CompileOptions Dry;
  Dry.Backend = "dryrun";
  auto Plain = Compiler(Dry).execute(squareChain(7), {X});
  ASSERT_TRUE(Plain.hasValue()) << Plain.status().toString();
  EXPECT_EQ(Plain->Outputs, squareChainReference(X, 7));
}

TEST(DriverErrors, CompileWithoutSynthesisNeedsABundledProgram) {
  KernelBundle Bare;
  Bare.Spec = addSpec();
  Bare.Sketch = addSketch();
  // No Synthesized program.
  CompileOptions Opts;
  Opts.RunSynthesis = false;
  Compiler C(Opts);
  auto Result = C.compile(Bare);
  ASSERT_FALSE(Result.hasValue());
  EXPECT_EQ(Result.status().diagnostics().front().Stage, "synthesis");
}

//===----------------------------------------------------------------------===//
// JSON record
//===----------------------------------------------------------------------===//

TEST(CompileResultJson, CarriesTheWholeRecord) {
  CompileOptions Opts;
  Opts.RunSynthesis = false;
  Compiler C(Opts);
  auto Result = C.compile("dot product");
  ASSERT_TRUE(Result.hasValue()) << Result.status().toString();
  std::string J = toJson(*Result);
  for (const char *Key :
       {"\"kernel\"", "\"from_synthesis\"", "\"program\"", "\"instructions\"",
        "\"depth\"", "\"mult_depth\"", "\"latency_us\"", "\"cost\"",
        "\"synthesis\"", "\"parameters\"", "\"seal_code\"", "\"notes\""})
    EXPECT_NE(J.find(Key), std::string::npos) << "missing key " << Key;
  EXPECT_NE(J.find("\"kernel\": \"Dot Product\""), std::string::npos);
  // Newlines inside the program text must be escaped.
  EXPECT_NE(J.find("\\n"), std::string::npos);
}

} // namespace
