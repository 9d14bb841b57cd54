//===- driver/Driver.cpp - The Porcupine compiler API ---------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "backend/LatencyProfiler.h"
#include "bfv/BfvContext.h"
#include "quill/Interpreter.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>

using namespace porcupine;
using namespace porcupine::driver;

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

Status Compiler::validateOptions() const {
  Status S;
  const synth::SynthesisOptions &Syn = Opts.Synthesis;
  if (Syn.TimeoutSeconds <= 0.0)
    S.addError("options", "synthesis timeout must be positive");
  if (Syn.MinComponents < 1)
    S.addError("options", "MinComponents must be at least 1");
  if (Syn.MaxComponents < Syn.MinComponents)
    S.addError("options", "MaxComponents must be >= MinComponents");
  if (Syn.PlainModulus < 2)
    S.addError("options", "plaintext modulus must be at least 2");
  if (Syn.Threads < 0)
    S.addError("options",
               "synthesis Threads must be >= 0 (0 = one per hardware "
               "thread, 1 = sequential)");
  if (Opts.ExplicitRotations && Opts.ExplicitRotationMaxComponents < 1)
    S.addError("options",
               "ExplicitRotationMaxComponents must be at least 1");
  if (Opts.Latency == LatencySource::Profiled && Opts.ProfileRepeats < 1)
    S.addError("options", "ProfileRepeats must be at least 1");
  if (!backend::BackendRegistry::builtin().find(Opts.Backend))
    S.addError("options",
               "unknown execution backend '" + Opts.Backend +
                   "'; available: " +
                   backend::BackendRegistry::builtin().namesCsv());
  // Parse the optimizer pipeline up front so a typo fails compilation with
  // a diagnostic instead of surfacing mid-pipeline.
  auto PM = quill::PassManager::fromPipeline(Opts.Pipeline,
                                             quill::PassManagerOptions());
  if (!PM)
    S.addError("options", PM.status().message());
  return S;
}

Status Compiler::validateProgram(const quill::Program &P,
                                 const char *Stage) const {
  if (P.VectorSize == 0)
    return Status::error(Stage, "program has vector size 0");
  if (P.NumInputs < 1)
    return Status::error(Stage, "program must take at least one input");
  std::string Err = P.validate();
  if (!Err.empty())
    return Status::error(Stage, "malformed program: " + Err);
  return Status::success();
}

/// Shape agreement between a sketch and the spec it is meant to satisfy.
static Status validateSketch(const KernelSpec &Spec, const synth::Sketch &Sk) {
  Status S;
  if (Spec.vectorSize() == 0)
    S.addError("synthesis", "spec vector size must be nonzero");
  if (Sk.NumInputs != Spec.numInputs())
    S.addError("synthesis",
               "sketch takes " + std::to_string(Sk.NumInputs) +
                   " input(s) but the spec takes " +
                   std::to_string(Spec.numInputs()));
  if (Sk.VectorSize != Spec.vectorSize())
    S.addError("synthesis",
               "sketch vector size " + std::to_string(Sk.VectorSize) +
                   " does not match the spec's " +
                   std::to_string(Spec.vectorSize()));
  if (Sk.Menu.empty())
    S.addError("synthesis", "sketch component menu is empty");
  for (const synth::Component &C : Sk.Menu) {
    bool IsCtPt = C.PtIdx >= 0;
    if (IsCtPt && C.PtIdx >= static_cast<int>(Sk.Constants.size()))
      S.addError("synthesis",
                 "sketch component references constant index " +
                     std::to_string(C.PtIdx) + " but the table holds " +
                     std::to_string(Sk.Constants.size()) + " constant(s)");
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Latency source
//===----------------------------------------------------------------------===//

quill::LatencyTable
Compiler::effectiveLatency(std::vector<Diagnostic> *Notes) const {
  if (Opts.Latency == LatencySource::Backend) {
    // Price with the execution backend's table so estimates match where
    // the program will actually run. The "bfv" table IS the calibrated
    // defaults, so the common case is numerically identical to Defaults.
    if (const backend::ExecutorBackend *B =
            backend::BackendRegistry::builtin().find(Opts.Backend))
      return B->latencyTable();
    return Opts.Synthesis.Latency; // Unknown name: validateOptions flags
                                   // it; stay deterministic here.
  }
  if (Opts.Latency == LatencySource::Defaults)
    return Opts.Synthesis.Latency;
  // Profile at a mid-range depth-2 context: representative of the
  // evaluation kernels without re-profiling per program.
  BfvContext Ctx = BfvContext::forMultDepth(2);
  Rng R(Opts.ExecutionSeed);
  quill::LatencyTable Table = profileLatencies(Ctx, R, Opts.ProfileRepeats);
  if (Notes)
    Notes->push_back({Severity::Note, "cost",
                      "latencies profiled on the bundled evaluator at N=" +
                          std::to_string(Ctx.polyDegree())});
  return Table;
}

//===----------------------------------------------------------------------===//
// Stages
//===----------------------------------------------------------------------===//

Expected<SynthesisOutcome>
Compiler::synthesize(const KernelSpec &Spec, const synth::Sketch &Sk) const {
  Status S = validateOptions();
  if (!S)
    return S;
  return synthesizeWith(Spec, Sk, effectiveLatency(nullptr));
}

Expected<SynthesisOutcome>
Compiler::synthesizeWith(const KernelSpec &Spec, const synth::Sketch &Sk,
                         const quill::LatencyTable &Latency,
                         synth::SynthesisStats *FailStats) const {
  Status S = validateSketch(Spec, Sk);
  if (!S)
    return S;

  synth::SynthesisOptions Syn = Opts.Synthesis;
  Syn.Latency = Latency;
  synth::Sketch Actual = Sk;
  Actual.ExplicitRotations = Opts.ExplicitRotations;
  if (Opts.ExplicitRotations)
    Syn.MaxComponents =
        std::max(Syn.MaxComponents, Opts.ExplicitRotationMaxComponents);

  synth::SynthesisResult R = synth::synthesize(Spec, Actual, Syn);
  if (!R.Found) {
    if (FailStats)
      *FailStats = R.Stats;
    std::string Why = R.Stats.TimedOut
                          ? "synthesis timed out after " +
                                std::to_string(Syn.TimeoutSeconds) + "s"
                          : "sketch space exhausted without a solution";
    return Status::error("synthesis", "kernel '" + Spec.name() + "': " + Why);
  }
  return SynthesisOutcome{std::move(R.Prog), R.Stats};
}

Expected<OptimizeOutcome> Compiler::optimize(const quill::Program &P) const {
  return optimizeWith(P, Opts.Synthesis.Latency);
}

Expected<OptimizeOutcome>
Compiler::optimizeWith(const quill::Program &P,
                       const quill::LatencyTable &Latency) const {
  Status S = validateProgram(P, "optimize");
  if (!S)
    return S;

  quill::PassManagerOptions PMO;
  PMO.Context.Latency = Latency;
  PMO.Context.PlainModulus = Opts.Synthesis.PlainModulus;
  PMO.Context.EqSat = Opts.EqSat;
  // Deterministic verification examples: the pass manager re-interprets
  // the program on these after every pass and rejects any behavioral
  // change. Seeded from the synthesis seed so compiles are reproducible.
  Rng R(Opts.Synthesis.Seed ^ 0x9e3779b97f4a7c15ull);
  for (int E = 0; E < 3; ++E) {
    std::vector<quill::SlotVector> Example;
    for (int I = 0; I < P.NumInputs; ++I)
      Example.push_back(
          R.vectorBelow(Opts.Synthesis.PlainModulus, P.VectorSize));
    PMO.Examples.push_back(std::move(Example));
  }

  auto PM = quill::PassManager::fromPipeline(Opts.Pipeline, std::move(PMO));
  if (!PM)
    return PM.status();
  OptimizeOutcome Out;
  Out.Program = P;
  auto Stats = PM->run(Out.Program);
  if (!Stats)
    return Stats.status();
  Out.Stats = Stats.take();
  return Out;
}

Expected<std::string> Compiler::emit(const quill::Program &P) const {
  Status S = validateProgram(P, "codegen");
  if (!S)
    return S;
  if (Opts.Codegen.FunctionName.empty())
    return Status::error("codegen", "codegen function name must not be empty");
  return emitSealCode(P, Opts.Codegen);
}

ParameterChoice driver::chooseParameters(const quill::Program &P) {
  ParameterChoice Choice;
  Choice.MultiplicativeDepth =
      static_cast<unsigned>(quill::programMultiplicativeDepth(P));
  BfvParams Params = BfvContext::paramsForMultDepth(Choice.MultiplicativeDepth);
  Choice.PolyDegree = Params.PolyDegree;
  for (unsigned Bits : Params.CoeffPrimeBits)
    Choice.CoeffModulusBits += Bits;
  return Choice;
}

Expected<ParameterChoice>
Compiler::selectParameters(const quill::Program &P) const {
  Status S = validateProgram(P, "parameters");
  if (!S)
    return S;
  return chooseParameters(P);
}

Expected<Runtime>
Compiler::instantiate(const std::vector<const quill::Program *> &Programs,
                      std::shared_ptr<const void> Reuse) const {
  if (Programs.empty())
    return Status::error("execute", "instantiate() needs at least one program");
  for (const quill::Program *P : Programs) {
    if (!P)
      return Status::error("execute", "instantiate() got a null program");
    Status S = validateProgram(*P, "execute");
    if (!S)
      return S;
  }

  const backend::ExecutorBackend *B =
      backend::BackendRegistry::builtin().find(Opts.Backend);
  if (!B)
    return Status::error(
        "execute", "unknown execution backend '" + Opts.Backend +
                       "'; available: " +
                       backend::BackendRegistry::builtin().namesCsv());
  if (!B->available())
    return Status::error("execute", "execution backend '" + Opts.Backend +
                                        "' is not available in this build");

  backend::SessionSpec Spec;
  Spec.Programs = Programs;
  Spec.PlainModulus = Opts.Synthesis.PlainModulus;
  Spec.ExecutionSeed = Opts.ExecutionSeed;
  Spec.Reuse = std::move(Reuse);
  auto Exec = B->createExecutor(Spec);
  if (!Exec)
    return Exec.status();

  Runtime RT;
  RT.B = B;
  RT.Caps = B->capabilities();
  RT.Exec = Exec.take();
  RT.KeyedRotations = B->requiredRotations(Programs);
  return RT;
}

Expected<ExecuteOutcome>
Compiler::execute(const quill::Program &P,
                  const std::vector<std::vector<uint64_t>> &Inputs) const {
  Status S = validateProgram(P, "execute");
  if (!S)
    return S;
  if (static_cast<int>(Inputs.size()) != P.NumInputs)
    return Status::error("execute",
                         "program takes " + std::to_string(P.NumInputs) +
                             " input vector(s) but got " +
                             std::to_string(Inputs.size()));
  std::vector<std::vector<uint64_t>> Padded = Inputs;
  for (std::vector<uint64_t> &V : Padded) {
    if (V.size() > P.VectorSize)
      return Status::error("execute",
                           "input vector of width " +
                               std::to_string(V.size()) +
                               " exceeds the program's vector size " +
                               std::to_string(P.VectorSize));
    V.resize(P.VectorSize, 0);
  }

  auto RT = instantiate({&P});
  if (!RT)
    return RT.status();
  std::vector<backend::Value> Enc;
  for (const std::vector<uint64_t> &V : Padded) {
    auto Ct = RT->encrypt(V);
    if (!Ct)
      return Ct.status();
    Enc.push_back(Ct.take());
  }
  double ChargedBefore = RT->executor().chargedLatencyUs();
  auto Ct = RT->run(P, Enc);
  if (!Ct)
    return Ct.status();
  ExecuteOutcome Out;
  Out.Outputs = RT->decrypt(*Ct, P.VectorSize);
  Out.Encrypted = RT->capabilities().Encrypted;
  if (RT->capabilities().ReportsNoiseBudget)
    Out.NoiseBudgetBits = RT->noiseBudget(*Ct);
  if (Out.Encrypted)
    Out.PolyDegree = RT->polyDegree();
  Out.ChargedLatencyUs = RT->executor().chargedLatencyUs() - ChargedBefore;
  return Out;
}

Expected<VerifyOutcome> Compiler::verify(const quill::Program &P,
                                         const KernelSpec &Spec) const {
  Status S = validateProgram(P, "verify");
  if (!S)
    return S;
  if (P.VectorSize != Spec.vectorSize() || P.NumInputs != Spec.numInputs())
    return Status::error(
        "verify", "program shape (" + std::to_string(P.NumInputs) +
                      " inputs, width " + std::to_string(P.VectorSize) +
                      ") does not match spec '" + Spec.name() + "' (" +
                      std::to_string(Spec.numInputs()) + " inputs, width " +
                      std::to_string(Spec.vectorSize()) + ")");
  Rng R(Opts.Synthesis.Seed);
  VerifyResult V = verifyProgram(P, Spec, Opts.Synthesis.PlainModulus, R);
  return VerifyOutcome{V.Equivalent, std::move(V.Counterexample)};
}

//===----------------------------------------------------------------------===//
// Whole pipeline
//===----------------------------------------------------------------------===//

Expected<CompileResult>
Compiler::compileFrom(const KernelSpec &Spec, const synth::Sketch &Sk,
                      const quill::Program *Bundled,
                      const std::string &BundledNotes) const {
  Status S = validateOptions();
  if (!S)
    return S;

  CompileResult Res;
  Res.KernelName = Spec.name();

  // Resolve the latency table once: it both drives CEGIS cost
  // minimization and prices the final cost estimate, and profiling it is
  // expensive (a context build plus timed evaluator runs).
  quill::LatencyTable Latency = effectiveLatency(&Res.Notes);

  // Stage 1: pick the program — synthesis, or the bundled anchor.
  if (Opts.RunSynthesis) {
    synth::SynthesisStats AttemptStats;
    auto Syn = synthesizeWith(Spec, Sk, Latency, &AttemptStats);
    if (Syn) {
      Res.Program = std::move(Syn->Program);
      Res.Stats = Syn->Stats;
      Res.FromSynthesis = true;
    } else if (Opts.FallbackToBundled && Bundled &&
               !Bundled->Instructions.empty()) {
      Res.Program = *Bundled;
      // Keep the failed attempt's measurements (TimedOut, time spent) so
      // the result and the --json record tell the truth about the run.
      Res.Stats = AttemptStats;
      Res.Notes.push_back({Severity::Warning, "synthesis",
                           Syn.status().message() +
                               "; falling back to the bundled program"});
    } else {
      return Syn.status();
    }
  } else {
    if (!Bundled || Bundled->Instructions.empty())
      return Status::error("synthesis",
                           "kernel '" + Spec.name() +
                               "' has no bundled program and synthesis is "
                               "disabled");
    Res.Program = *Bundled;
    Res.Notes.push_back({Severity::Note, "synthesis",
                         "synthesis skipped; using the bundled program"});
  }
  if (!Res.FromSynthesis && !BundledNotes.empty())
    Res.Notes.push_back({Severity::Note, "synthesis", BundledNotes});

  Status Tail = finishCompile(Res, Latency);
  if (!Tail)
    return Tail;
  return Res;
}

Status Compiler::finishCompile(CompileResult &Res,
                               const quill::LatencyTable &Latency) const {
  // Stage 2: the optimizer pipeline, priced under the same latency table
  // as synthesis and the final cost estimate.
  if (!Opts.Pipeline.empty()) {
    auto Opt = optimizeWith(Res.Program, Latency);
    if (!Opt)
      return Opt.status();
    Res.Program = std::move(Opt->Program);
    Res.Optimizer = std::move(Opt->Stats);
  }

  // Stage 3: static analyses and the cost estimate, priced under the same
  // table synthesis minimized against.
  Res.Mix = quill::countInstructions(Res.Program);
  Res.Depth = quill::programDepth(Res.Program);
  Res.MultDepth = quill::programMultiplicativeDepth(Res.Program);
  quill::CostModel Cost(Latency);
  Res.LatencyEstimateUs = Cost.latency(Res.Program);
  Res.Cost = Cost.cost(Res.Program);

  // Stage 4: parameter selection.
  if (Opts.SelectParameters) {
    auto Params = selectParameters(Res.Program);
    if (!Params)
      return Params.status();
    Res.Params = *Params;
  }

  // Stage 5: codegen.
  if (Opts.EmitSealCode) {
    auto Code = emit(Res.Program);
    if (!Code)
      return Code.status();
    Res.SealCode = Code.take();
  }
  return Status::success();
}

Expected<CompileResult>
Compiler::compilePorc(const std::string &Source,
                      const std::string &FileName) const {
  Status S = validateOptions();
  if (!S)
    return S;
  if (Opts.SubkernelMaxComponents < 1)
    return Status::error("options",
                         "SubkernelMaxComponents must be at least 1");
  if (Opts.SubkernelTimeoutSeconds <= 0.0)
    return Status::error("options",
                         "SubkernelTimeoutSeconds must be positive");

  Expected<frontend::Module> M = frontend::parse(Source, FileName);
  if (!M)
    return M.status();

  frontend::LowerOptions LO;
  LO.PlainModulus = Opts.Synthesis.PlainModulus;
  LO.SynthSubkernels = Opts.SynthSubkernels;
  LO.SubkernelMaxComponents = Opts.SubkernelMaxComponents;
  LO.SubkernelTimeoutSeconds = Opts.SubkernelTimeoutSeconds;
  LO.Seed = Opts.Synthesis.Seed;
  LO.Threads = Opts.Synthesis.Threads;
  Expected<frontend::LowerResult> L = frontend::lower(*M, LO, FileName);
  if (!L)
    return L.status();

  CompileResult Res;
  Res.KernelName = M->Name;
  Res.Program = std::move(L->Program);
  // The frontend lowered the whole kernel; FromSynthesis stays false even
  // under SynthSubkernels (the notes record which sub-expressions CEGIS
  // found — the program source is still the .porc text).
  Res.FromSynthesis = false;
  Res.Notes = std::move(L->Notes);
  Res.Notes.push_back(
      {Severity::Note, "frontend",
       "lowered " + std::to_string(L->Stats.Assignments) +
           " assignment(s), " + std::to_string(L->Stats.Terms) +
           " term(s) into " + std::to_string(L->Stats.Groups) +
           " rotation group(s), " +
           std::to_string(L->Stats.RotationsScheduled) +
           " distinct rotation(s)"});

  quill::LatencyTable Latency = effectiveLatency(&Res.Notes);
  Status Tail = finishCompile(Res, Latency);
  if (!Tail)
    return Tail;
  return Res;
}

Expected<CompileResult>
Compiler::compile(const kernels::KernelBundle &B) const {
  return compileFrom(B.Spec, B.Sketch, &B.Synthesized, B.Notes);
}

Expected<CompileResult> Compiler::compile(const KernelSpec &Spec,
                                          const synth::Sketch &Sk) const {
  return compileFrom(Spec, Sk, nullptr, "");
}

Expected<CompileResult>
Compiler::compile(const std::string &KernelName) const {
  auto B = registry().find(KernelName);
  if (!B)
    return B.status();
  return compile(**B);
}

//===----------------------------------------------------------------------===//
// Runtime
//===----------------------------------------------------------------------===//

Expected<backend::Value>
Runtime::encrypt(const std::vector<uint64_t> &Values) const {
  if (Values.size() > Exec->slotCount())
    return Status::error("execute",
                         "input vector of width " +
                             std::to_string(Values.size()) +
                             " exceeds the batching row of " +
                             std::to_string(Exec->slotCount()) + " slots");
  return Exec->encrypt(Values);
}

Expected<backend::Value>
Runtime::run(const quill::Program &P,
             const std::vector<backend::Value> &Inputs) const {
  std::string Err = P.validate();
  if (!Err.empty())
    return Status::error("execute", "malformed program: " + Err);
  if (static_cast<int>(Inputs.size()) != P.NumInputs)
    return Status::error("execute",
                         "program takes " + std::to_string(P.NumInputs) +
                             " encrypted input(s) but got " +
                             std::to_string(Inputs.size()));
  if (P.VectorSize > Exec->slotCount())
    return Status::error("execute",
                         "program is wider than the instantiated context");
  if (Caps.NeedsGaloisKeys)
    for (int Step : porcupine::requiredRotations(P))
      if (!std::binary_search(KeyedRotations.begin(), KeyedRotations.end(),
                              Step))
        return Status::error(
            "execute",
            "program rotates by " + std::to_string(Step) +
                " but the runtime was not instantiated with that program; no "
                "Galois key for that step");
  return Exec->run(P, Inputs);
}

std::vector<uint64_t> Runtime::decrypt(const backend::Value &V,
                                       size_t Width) const {
  return Exec->decrypt(V, Width);
}

double Runtime::noiseBudget(const backend::Value &V) const {
  return Exec->noiseBudget(V);
}

//===----------------------------------------------------------------------===//
// JSON rendering
//===----------------------------------------------------------------------===//

namespace {

// String interpolation into the record goes through json::escape — kernel
// names, diagnostics, program text, and generated code may contain quotes,
// backslashes, or control characters.
using json::escape;

std::string num(double V, const char *Fmt = "%.2f") {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

} // namespace

std::string porcupine::driver::toJson(const CompileResult &R) {
  std::string J = "{\n";
  J += "  \"kernel\": \"" + escape(R.KernelName) + "\",\n";
  J += "  \"from_synthesis\": " + std::string(R.FromSynthesis ? "true" : "false") + ",\n";
  J += "  \"program\": \"" + escape(quill::printProgram(R.Program)) + "\",\n";
  J += "  \"instructions\": {\"total\": " + std::to_string(R.Mix.Total) +
       ", \"rotations\": " + std::to_string(R.Mix.Rotations) +
       ", \"ct_ct_muls\": " + std::to_string(R.Mix.CtCtMuls) +
       ", \"ct_pt_muls\": " + std::to_string(R.Mix.CtPtMuls) +
       ", \"adds_subs\": " + std::to_string(R.Mix.AddsSubs) +
       ", \"relins\": " + std::to_string(R.Mix.Relins) + "},\n";
  J += "  \"depth\": " + std::to_string(R.Depth) + ",\n";
  J += "  \"mult_depth\": " + std::to_string(R.MultDepth) + ",\n";
  J += "  \"latency_us\": " + num(R.LatencyEstimateUs) + ",\n";
  J += "  \"cost\": " + num(R.Cost) + ",\n";
  J += "  \"synthesis\": {\"examples\": " + std::to_string(R.Stats.ExamplesUsed) +
       ", \"components\": " + std::to_string(R.Stats.ComponentsUsed) +
       ", \"lowered_instructions\": " +
       std::to_string(R.Stats.LoweredInstructions) +
       ", \"initial_seconds\": " + num(R.Stats.InitialTimeSeconds) +
       ", \"total_seconds\": " + num(R.Stats.TotalTimeSeconds) +
       ", \"initial_cost\": " + num(R.Stats.InitialCost, "%.0f") +
       ", \"final_cost\": " + num(R.Stats.FinalCost, "%.0f") +
       ", \"timed_out\": " + (R.Stats.TimedOut ? "true" : "false") +
       ", \"proven_optimal\": " + (R.Stats.ProvenOptimal ? "true" : "false") +
       ", \"threads\": " + std::to_string(R.Stats.ThreadsUsed) +
       ", \"cpu_seconds\": " + num(R.Stats.CpuTimeSeconds) + "},\n";
  J += "  \"optimizer\": {\"rewrites\": " +
       std::to_string(R.Optimizer.totalRewrites()) +
       ", \"cost_before\": " + num(R.Optimizer.costBefore(), "%.0f") +
       ", \"cost_after\": " + num(R.Optimizer.costAfter(), "%.0f") +
       ", \"passes\": [";
  for (size_t I = 0; I < R.Optimizer.Passes.size(); ++I) {
    const quill::PassRunStats &PS = R.Optimizer.Passes[I];
    if (I)
      J += ", ";
    J += "{\"pass\": \"" + escape(PS.Pass) + "\"";
    J += ", \"rewrites\": " + std::to_string(PS.Rewrites);
    J += ", \"instructions_removed\": " +
         std::to_string(PS.InstructionsRemoved);
    J += ", \"rotations_eliminated\": " +
         std::to_string(PS.RotationsEliminated);
    J += ", \"relins_deferred\": " + std::to_string(PS.RelinsDeferred);
    J += ", \"cost_before\": " + num(PS.CostBefore, "%.0f");
    J += ", \"cost_after\": " + num(PS.CostAfter, "%.0f");
    J += ", \"reverted\": " + std::string(PS.Reverted ? "true" : "false");
    // Saturation stats appear only on eqsat entries, so records for the
    // default pipeline — including the porcc_compile_dot_product.json
    // expected file — are byte-stable.
    if (PS.HasEqSat)
      J += ", \"eqsat\": {\"classes\": " + std::to_string(PS.EqSatClasses) +
           ", \"nodes\": " + std::to_string(PS.EqSatNodes) +
           ", \"iterations\": " + std::to_string(PS.EqSatIterations) +
           ", \"saturated\": " +
           std::string(PS.EqSatSaturated ? "true" : "false") + "}";
    J += "}";
  }
  J += "]},\n";
  J += "  \"parameters\": {\"poly_degree\": " +
       std::to_string(R.Params.PolyDegree) +
       ", \"coeff_modulus_bits\": " +
       std::to_string(R.Params.CoeffModulusBits) +
       ", \"mult_depth\": " + std::to_string(R.Params.MultiplicativeDepth) +
       "},\n";
  J += "  \"seal_code\": \"" + escape(R.SealCode) + "\",\n";
  J += "  \"notes\": [";
  for (size_t I = 0; I < R.Notes.size(); ++I) {
    if (I)
      J += ", ";
    J += "\"" + escape(R.Notes[I].toString()) + "\"";
  }
  J += "]\n}\n";
  return J;
}
