//===- perfbench/src/CompileWorkload.cpp - Cold compiles ------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `compile` workload: every kernel is compiled cold, by a fresh
/// Compiler with no cache.
///
///   synthesized set  Box Blur, Linear Regression, Polynomial Regression,
///                    Hamming Distance, Gx, Gy, Dot Product — CEGIS
///                    (RunSynthesis, no fallback), default pipeline.
///   lowered set      Conv2D 5x5, Perceptron 8-4-1, Group-By Sum — the
///                    .porc frontend, default pipeline plus eqsat at the
///                    default budgets.
///
/// L2 Distance, Roberts Cross and Variance are left out: synthesis needs a
/// minute or more on each, longer than one run may take.
///
/// Every compiled program is checked on the plaintext interpreter. The
/// traced run compiles each kernel through compile() and stage by stage
/// under spans (most kernels also stage by stage without spans, for the
/// tracing overhead) and checks the programs are byte-identical. Both runs end with the repeated-squaring probe.
///
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Workloads.h"

#include "driver/Driver.h"
#include "frontend/Frontend.h"
#include "quill/Interpreter.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <cstdio>

using namespace perfbench;
using namespace porcupine;
using driver::CompileOptions;
using driver::CompileResult;
using driver::Compiler;

namespace {

struct SynthKernel {
  const char *Name;
  const char *Key;
  kernels::KernelBundle (*Make)();
};

const SynthKernel SynthSet[] = {
    {"Box Blur", "box_blur", kernels::boxBlurKernel},
    {"Linear Regression", "linreg", kernels::linearRegressionKernel},
    {"Polynomial Regression", "polyreg", kernels::polyRegressionKernel},
    {"Hamming Distance", "hamming", kernels::hammingDistanceKernel},
    {"Gx", "gx", kernels::gxKernel},
    {"Gy", "gy", kernels::gyKernel},
    {"Dot Product", "dot", kernels::dotProductKernel},
};

struct LoweredKernel {
  const char *Name;
  const char *Key;
  const char *File;
  /// Whether the traced run also compiles it stage by stage without spans
  /// to measure the tracing overhead. Perceptron's eqsat alone takes 15 s
  /// or more; compiling it a third time would leave the traced run too
  /// close to its time limit on a slow host.
  bool InOverhead;
};

const LoweredKernel LoweredSet[] = {
    {"Conv2D 5x5", "conv2d", "conv2d.porc", true},
    {"Perceptron 8-4-1", "perceptron", "perceptron.porc", false},
    {"Group-By Sum", "groupby", "groupby.porc", true},
};

constexpr size_t NumSynth = sizeof(SynthSet) / sizeof(SynthSet[0]);
constexpr size_t NumLowered = sizeof(LoweredSet) / sizeof(LoweredSet[0]);
constexpr size_t NumKernels = NumSynth + NumLowered;

/// Input sets checked per compiled program.
constexpr size_t ChecksPerKernel = 8;
/// Compile time each kernel gets per pass, and the cap on its repeats
/// (high enough that a millisecond kernel is timed over the whole quarter
/// second, not over one instant of the host).
constexpr double MinKernelSeconds = 0.25;
constexpr int MaxRepeats = 400;
/// Set-up builds per CPU in one set-up sample.
constexpr int SetupBatch = 50;
/// Deepest repeated-squaring probe.
constexpr int MaxProbeDepth = 10;

CompileOptions synthOptions(unsigned Threads) {
  CompileOptions C;
  C.RunSynthesis = true;
  C.FallbackToBundled = false;
  C.Synthesis.Threads = static_cast<int>(Threads);
  return C;
}

CompileOptions loweredOptions(unsigned Threads) {
  CompileOptions C;
  C.Pipeline = std::string(quill::defaultPipeline()) + ",eqsat";
  C.Synthesis.Threads = static_cast<int>(Threads);
  return C;
}

/// The program-side set-up of a run: the bundles the synthesized set
/// compiles, the lowered set's sources and the options of each set. The
/// seeded inputs and references are the benchmark's own work and are built
/// apart from it (buildCases).
struct Setup {
  std::vector<kernels::KernelBundle> Bundles; ///< Synthesized set.
  std::vector<std::string> Sources;           ///< Lowered set.
  CompileOptions SynthOpts, LoweredOpts;
};

Setup buildSetup(unsigned Threads) {
  Setup S;
  for (const SynthKernel &K : SynthSet)
    S.Bundles.push_back(K.Make());
  for (const LoweredKernel &K : LoweredSet)
    S.Sources.push_back(kernels::porcWorkloadSource(K.Name));
  S.SynthOpts = synthOptions(Threads);
  S.LoweredOpts = loweredOptions(Threads);
  return S;
}

/// Seeded inputs and references: synthesized set, then lowered set.
std::vector<KernelCase> buildCases(uint64_t Seed) {
  std::vector<KernelCase> Cases;
  for (const SynthKernel &K : SynthSet)
    Cases.push_back(specCase(K.Make().Spec, K.Key, Seed, ChecksPerKernel));
  for (const LoweredKernel &K : LoweredSet)
    Cases.push_back(loweredCase(K.Name, K.Key, Seed, ChecksPerKernel));
  return Cases;
}

/// Checks \p P on the plaintext interpreter against every reference of
/// \p KC; counts one failure per wrong program.
void checkProgram(const quill::Program &P, const KernelCase &KC, Result &Res) {
  for (size_t I = 0; I < KC.Inputs.size(); ++I) {
    quill::SlotVector Out =
        quill::interpret(P, padInputs(KC.Inputs[I], P.VectorSize),
                         PlainModulus);
    std::string Why;
    if (!slotsMatch(Out, KC.Want[I], KC.Checked, Why)) {
      Res.fail("compile: " + KC.Name + " interprets wrong, " + Why, true);
      return;
    }
  }
}

/// One cold compile of kernel \p I (synthesized set first).
Expected<CompileResult> compileKernel(size_t I, const Setup &S) {
  if (I < NumSynth)
    return Compiler(S.SynthOpts).compile(S.Bundles[I]);
  return Compiler(S.LoweredOpts)
      .compilePorc(S.Sources[I - NumSynth], LoweredSet[I - NumSynth].File);
}

/// Per-kernel program shape, as per-layer metrics and determinism record.
void recordShape(const std::string &Key, const CompileResult &R, Result &Res) {
  Res.set("program.instructions." + Key, R.Mix.Total, "count");
  Res.set("program.rotations." + Key, R.Mix.Rotations, "count");
  Res.set("program.ctct_muls." + Key, R.Mix.CtCtMuls, "count");
  Res.set("program.mult_depth." + Key, R.MultDepth, "count");
  Res.HostIndependent["cost." + Key] = R.Cost;
  Res.HostIndependent["instructions." + Key] = R.Mix.Total;
  Res.HostIndependent["rotations." + Key] = R.Mix.Rotations;
  Res.HostIndependent["poly_degree." + Key] =
      static_cast<double>(R.Params.PolyDegree);
  for (const quill::PassRunStats &PS : R.Optimizer.Passes)
    if (PS.HasEqSat)
      Res.HostIndependent["eqsat_enodes." + Key] = PS.EqSatNodes;
}

/// The repeated-squaring probe: x^(2^d) for d = 1..MaxProbeDepth, each
/// through optimize -> selectParameters -> execute on "bfv" and checked
/// against pow(x, 2^d) mod t. Untimed. A depth whose parameters are
/// rejected at compile time is a correct refusal; a wrong decryption is a
/// silent wrong answer. Returns false when the probe could not run.
bool runProbe(uint64_t Seed, Result &Res) {
  Compiler C;
  Rng R(Seed ^ 0x5157u);
  std::vector<uint64_t> X = R.vectorBelow(PlainModulus, 4);
  int Wrong = 0, Rejected = 0;
  std::string WrongDepths;
  for (int D = 1; D <= MaxProbeDepth; ++D) {
    Span Probe("bench", "probe depth " + std::to_string(D), D);
    quill::Program P;
    P.NumInputs = 1;
    P.VectorSize = 4;
    int V = 0;
    for (int I = 0; I < D; ++I)
      V = P.append(quill::Instr::ctCt(quill::Opcode::MulCtCt, V, V));

    Expected<driver::OptimizeOutcome> O = [&] {
      Span S("quill", "optimize");
      return C.optimize(P);
    }();
    if (!O) {
      Res.Notes.push_back("probe: optimize failed at depth " +
                          std::to_string(D) + ": " + O.status().message());
      return false;
    }
    bool Ok = [&] {
      Span S("backend", "selectParameters");
      return static_cast<bool>(C.selectParameters(O->Program));
    }();
    Expected<driver::ExecuteOutcome> Out = [&] {
      Span S("backend", "execute");
      return C.execute(O->Program, {X});
    }();
    if (!Ok || !Out) {
      ++Rejected;
      continue;
    }
    std::vector<uint64_t> Want = repeatedSquare(X, D);
    std::string Why;
    if (!slotsMatch(Out->Outputs, Want, std::vector<bool>(4, true), Why)) {
      ++Wrong;
      WrongDepths += " " + std::to_string(D);
    }
  }
  Res.set("probe.wrong_depths", Wrong, "count");
  Res.set("probe.rejected_depths", Rejected, "count");
  Res.HostIndependent["probe.wrong_depths"] = Wrong;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "probe: x^(2^d), d = 1..%d: %d wrong decryption(s)%s%s, %d "
                "rejected at compile time",
                MaxProbeDepth, Wrong, Wrong ? " at d =" : "",
                WrongDepths.c_str(), Rejected);
  Res.Notes.push_back(Buf);
  return true;
}

/// Untraced run: set-up, then passes of cold compiles while another pass
/// fits in the time budget (always at least one). Within a pass a kernel is
/// compiled again until it has used MinKernelSeconds, so the fast kernels
/// get enough samples for a stable mean.
bool untracedRun(const Options &O, Result &Res) {
  std::vector<KernelCase> Cases = buildCases(O.Seed);
  // One build takes microseconds, and its speed differs between the CPUs
  // of a shared host and drifts over time. So a sample is the mean build
  // time over SetupBatch builds on each CPU in turn, and a sample is taken
  // again after every kernel's compiles, so the median spans the run. (The
  // compiles themselves stay unpinned: synthesis threads inherit the
  // caller's CPUs.)
  Setup S;
  std::vector<double> SetupS;
  auto SampleSetup = [&] {
    Stopwatch Timer;
    for (size_t Cpu = 0; Cpu < cpuCount(); ++Cpu) {
      rotateCpu(Cpu);
      for (int J = 0; J < SetupBatch; ++J)
        S = buildSetup(O.Threads);
    }
    SetupS.push_back(Timer.seconds() / (SetupBatch * cpuCount()));
    unpinCpu();
  };
  SampleSetup();

  // Untimed warm-up: one compile of each synthesized-set kernel. The
  // synthesizer's worker threads wake and sleep thousands of times a
  // second, and on a virtual machine whose CPUs have been idle those
  // wake-ups start out several times slower; without this the first
  // kernels of a run that follows a pause compile up to three times
  // slower than the same kernels a few seconds later.
  for (size_t I = 0; I < NumSynth; ++I)
    (void)compileKernel(I, S);

  std::vector<std::vector<double>> TimesMs(NumKernels);
  std::vector<double> Costs;
  Stopwatch Wall;
  for (int Pass = 0;; ++Pass) {
    Stopwatch PassTime;
    for (size_t I = 0; I < NumKernels; ++I) {
      const KernelCase &KC = Cases[I];
      double KernelSeconds = 0;
      for (int Rep = 0; Rep < MaxRepeats && KernelSeconds < MinKernelSeconds;
           ++Rep) {
        Span Timer("driver", "compile " + KC.Key, static_cast<int64_t>(I));
        Expected<CompileResult> R = compileKernel(I, S);
        KernelSeconds += Timer.stop();
        ++Res.Attempted;
        if (!R) {
          Res.fail("compile: " + KC.Name + ": " + R.status().message(), false);
          break;
        }
        TimesMs[I].push_back(Timer.seconds() * 1e3);
        checkProgram(R->Program, KC, Res);
        if (Pass == 0 && Rep == 0) {
          Costs.push_back(R->Cost);
          recordShape(KC.Key, *R, Res);
        }
      }
      SampleSetup();
    }
    if (Wall.seconds() + PassTime.seconds() > O.Seconds)
      break;
  }

  // Kernels that failed to compile have no time; they count in `failed`.
  std::vector<double> Means, Tails;
  for (size_t I = 0; I < NumKernels; ++I) {
    const std::string &Key = Cases[I].Key;
    Res.Detail["samples." + Key] = static_cast<double>(TimesMs[I].size());
    if (TimesMs[I].empty())
      continue;
    Means.push_back(mean(TimesMs[I]));
    Tails.push_back(tail(TimesMs[I]));
    Res.Detail["compile_mean_ms." + Key] = Means.back();
    Res.Detail["compile_median_ms." + Key] = median(TimesMs[I]);
  }
  Res.set("latency_ms", geomean(Means), "ms");
  Res.set("tail_ms", geomean(Tails), "ms");
  Res.set("setup_s", median(SetupS), "s");
  for (size_t I = 0; I < SetupS.size(); ++I)
    Res.Detail["setup_us." + std::to_string(I)] = SetupS[I] * 1e6;
  Res.set("program_cost", geomean(Costs), "cost");
  Res.HostIndependent["program_cost"] = geomean(Costs);
  return runProbe(O.Seed, Res);
}

/// Stage times and counters of the staged compiles, summed over kernels.
struct StageTotals {
  double SynthS = 0, SynthCpuS = 0, Nodes = 0, LowerS = 0, PassesS = 0,
         EqSatS = 0, VerifyS = 0, ParamsS = 0, EmitS = 0;
  double Rewrites = 0, ENodes = 0, Applications = 0, Saturated = 0;
  std::vector<double> CostRatios;
};

struct StagedOutcome {
  bool Ok = false;         ///< Every stage ran.
  bool Equivalent = false; ///< verify() proved the program matches its spec.
  quill::Program Program;
};

/// Compiles kernel \p I through the stage entry points — synthesize, or
/// parse + lower; optimize with the default pipeline, then (lowered set)
/// with eqsat; verify; selectParameters; emit — each under a span, adding
/// each stage's time and counters to \p Tot.
StagedOutcome stagedCompile(size_t I, const Setup &S, StageTotals &Tot) {
  StagedOutcome Out;
  KernelSpec Spec;
  if (I < NumSynth) {
    Compiler C(S.SynthOpts);
    Span Syn("synth", "synthesize");
    auto R = C.synthesize(S.Bundles[I].Spec, S.Bundles[I].Sketch);
    Tot.SynthS += Syn.stop();
    if (!R)
      return Out;
    Tot.SynthCpuS += R->Stats.CpuTimeSeconds;
    Tot.Nodes += static_cast<double>(R->Stats.NodesExplored);
    Span Opt("quill", "optimize");
    auto Q = C.optimize(R->Program);
    Tot.PassesS += Opt.stop();
    if (!Q)
      return Out;
    Tot.Rewrites += Q->Stats.totalRewrites();
    Out.Program = Q->Program;
    Spec = S.Bundles[I].Spec;
  } else {
    const LoweredKernel &K = LoweredSet[I - NumSynth];
    CompileOptions CO = S.LoweredOpts;
    Span Lower("frontend", "parse+lower");
    auto M = frontend::parse(S.Sources[I - NumSynth], K.File);
    frontend::LowerOptions LO;
    LO.PlainModulus = CO.Synthesis.PlainModulus;
    LO.Seed = CO.Synthesis.Seed;
    LO.Threads = CO.Synthesis.Threads;
    Expected<frontend::LowerResult> L =
        M ? frontend::lower(*M, LO, K.File)
          : Expected<frontend::LowerResult>(M.status());
    Tot.LowerS += Lower.stop();
    if (!L)
      return Out;
    CO.Pipeline = quill::defaultPipeline();
    Span Opt("quill", "optimize");
    auto Q = Compiler(CO).optimize(L->Program);
    Tot.PassesS += Opt.stop();
    if (!Q)
      return Out;
    Tot.Rewrites += Q->Stats.totalRewrites();
    CO.Pipeline = "eqsat";
    Span Eq("quill.eqsat", "optimize eqsat");
    auto E = Compiler(CO).optimize(Q->Program);
    Tot.EqSatS += Eq.stop();
    if (!E)
      return Out;
    for (const quill::PassRunStats &PS : E->Stats.Passes) {
      Tot.ENodes += PS.EqSatNodes;
      Tot.Applications += PS.Reverted ? 0 : PS.Rewrites;
      Tot.Saturated += PS.EqSatSaturated ? 1 : 0;
      if (PS.CostBefore > 0)
        Tot.CostRatios.push_back(PS.CostAfter / PS.CostBefore);
    }
    Out.Program = E->Program;
    auto B = kernels::KernelRegistry::builtin().find(K.Name);
    if (!B)
      return Out;
    Spec = (*B)->Spec;
  }

  Compiler C(I < NumSynth ? S.SynthOpts : S.LoweredOpts);
  Span V("spec", "verify");
  auto Verified = C.verify(Out.Program, Spec);
  Tot.VerifyS += V.stop();
  Span P("backend", "selectParameters");
  auto Params = C.selectParameters(Out.Program);
  Tot.ParamsS += P.stop();
  Span E("backend", "emit");
  auto Code = C.emit(Out.Program);
  Tot.EmitS += E.stop();
  Out.Ok = Verified && Params && Code;
  Out.Equivalent = Verified && Verified->Equivalent;
  return Out;
}

/// Traced run: compile() once per kernel (untraced), then the same kernel
/// stage by stage with the tracer and (except Perceptron, see InOverhead)
/// once more without. Every staged program must be byte-identical to
/// compile()'s; the time the identical staged path takes with spans over
/// without, on the kernels staged twice, is the tracing overhead.
bool tracedRun(const Options &O, Result &Res) {
  Setup S = buildSetup(O.Threads);
  std::vector<KernelCase> Cases = buildCases(O.Seed);
  Tracer *T = Tracer::active();

  // Untraced baseline through the public whole-pipeline entry points.
  std::vector<CompileResult> Whole(NumKernels);
  std::vector<bool> Compiled(NumKernels, false);
  double SynthSetS = 0, LoweredSetS = 0;
  Tracer::install(nullptr);
  for (size_t I = 0; I < NumKernels; ++I) {
    Stopwatch Timer;
    Expected<CompileResult> R = compileKernel(I, S);
    double Secs = Timer.seconds();
    ++Res.Attempted;
    if (!R) {
      Res.fail("compile: " + Cases[I].Name + ": " + R.status().message(),
               false);
      continue;
    }
    (I < NumSynth ? SynthSetS : LoweredSetS) += Secs;
    checkProgram(R->Program, Cases[I], Res);
    recordShape(Cases[I].Key, *R, Res);
    Whole[I] = R.take();
    Compiled[I] = true;
  }
  Res.set("driver.compile.synth_set_s", SynthSetS, "s");
  Res.set("driver.compile.lowered_set_s", LoweredSetS, "s");

  // Which of the two staged compiles goes first alternates by kernel, so a
  // drift in host speed does not land on one side.
  StageTotals Traced, Untraced;
  double TracedS = 0, UntracedS = 0;
  for (size_t I = 0; I < NumKernels; ++I) {
    const KernelCase &KC = Cases[I];
    bool Twice = I < NumSynth || LoweredSet[I - NumSynth].InOverhead;
    for (int Pass = Twice ? 0 : 1; Pass < 2; ++Pass) {
      bool WithSpans = !Twice || (Pass + I) % 2 == 1;
      Tracer::install(WithSpans ? T : nullptr);
      Stopwatch Timer;
      StagedOutcome Out;
      {
        Span Kernel("bench", "staged compile " + KC.Key,
                    static_cast<int64_t>(I));
        Out = stagedCompile(I, S, WithSpans ? Traced : Untraced);
      }
      if (Twice)
        (WithSpans ? TracedS : UntracedS) += Timer.seconds();
      ++Res.Attempted;
      if (!Out.Ok)
        Res.fail("staged compile: " + KC.Name + " failed", false);
      else if (!Out.Equivalent)
        Res.fail("verify: " + KC.Name + " is not equivalent to its spec",
                 true);
      else if (!Compiled[I] || quill::printProgram(Out.Program) !=
                                   quill::printProgram(Whole[I].Program))
        Res.fail("staged compile: " + KC.Name +
                     " differs from compile()'s program",
                 true);
    }
  }
  Tracer::install(T);

  Res.set("synth.time_s", Traced.SynthS, "s");
  Res.set("synth.cpu_s", Traced.SynthCpuS, "s");
  Res.set("synth.nodes_explored", Traced.Nodes, "count");
  Res.set("frontend.lower_s", Traced.LowerS, "s");
  Res.set("quill.passes_s", Traced.PassesS, "s");
  Res.set("quill.rewrites", Traced.Rewrites, "count");
  Res.set("quill.eqsat_s", Traced.EqSatS, "s");
  Res.set("quill.eqsat.enodes", Traced.ENodes, "count");
  Res.set("quill.eqsat.applications", Traced.Applications, "count");
  Res.set("quill.eqsat.saturated_frac", Traced.Saturated / NumLowered,
          "ratio");
  Res.set("quill.eqsat.cost_ratio", geomean(Traced.CostRatios), "ratio");
  Res.set("spec.verify_s", Traced.VerifyS, "s");
  Res.set("backend.select_params_s", Traced.ParamsS, "s");
  Res.set("backend.emit_s", Traced.EmitS, "s");
  Res.set("trace.overhead_frac", UntracedS > 0 ? TracedS / UntracedS - 1 : 0,
          "ratio");
  return runProbe(O.Seed, Res);
}

} // namespace

bool perfbench::runCompileWorkload(const Options &O, Result &Res) {
  Res.Config["synthesis_threads"] = std::to_string(O.Threads);
  Res.Config["lowered_pipeline"] = loweredOptions(O.Threads).Pipeline;
  return O.Trace ? tracedRun(O, Res) : untracedRun(O, Res);
}
