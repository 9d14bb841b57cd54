//===- perfbench/src/RunWorkload.cpp - Closed-loop encrypted calls --------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `run` workload: one client calls CompiledKernel::execute on the
/// "bfv" backend back-to-back, round-robin over four warm Engine handles.
///
///   Dot Product            rotate and multiply at N = 4096
///   Polynomial Regression  ct-ct multiply chain, no rotations
///   Conv2D 5x5             many rotations, key-switch heavy
///   Perceptron 8-4-1       the deepest kernel, N = 8192
///
/// Kernels come from their bundled programs (no synthesis, no eqsat), so
/// set-up is compile + key generation and the timed loop is bfv work.
/// Every decrypted output is checked against its reference.
///
/// The traced run makes each call stage by stage on a Runtime (lookup,
/// encrypt, run, decrypt) twice, with and without spans, and adds the
/// per-operation BFV and NTT microbenchmarks and the dry-run backend's
/// charged latency for each program.
///
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Workloads.h"

#include "bfv/BatchEncoder.h"
#include "bfv/Encryptor.h"
#include "bfv/Evaluator.h"
#include "bfv/KeyGenerator.h"
#include "driver/Engine.h"
#include "support/Error.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <memory>

using namespace perfbench;
using namespace porcupine;

namespace {

struct RunKernel {
  const char *Name;
  const char *Key;
  bool Lowered;
};

const RunKernel RunSet[] = {
    {"Dot Product", "dot", false},
    {"Polynomial Regression", "polyreg", false},
    {"Conv2D 5x5", "conv2d", true},
    {"Perceptron 8-4-1", "perceptron", true},
};
constexpr size_t NumKernels = sizeof(RunSet) / sizeof(RunSet[0]);

/// Seeded input sets per kernel; calls cycle through them.
constexpr size_t InputSets = 16;
/// Set-up samples per untraced run; the median is the set-up time.
constexpr size_t SetupSamples = 8;

std::vector<KernelCase> buildCases(uint64_t Seed) {
  std::vector<KernelCase> Cases;
  for (const RunKernel &K : RunSet) {
    if (K.Lowered) {
      Cases.push_back(loweredCase(K.Name, K.Key, Seed, InputSets));
      continue;
    }
    auto B = kernels::KernelRegistry::builtin().find(K.Name);
    if (!B)
      fatalError(std::string("perfbench: kernel missing: ") + K.Name);
    Cases.push_back(specCase((*B)->Spec, K.Key, Seed, InputSets));
  }
  return Cases;
}

driver::EngineOptions engineOptions() {
  driver::EngineOptions EO;
  EO.RuntimePoolSize = 1;
  EO.Defaults.RunSynthesis = false;
  return EO;
}

/// The warm state the timed loop runs on.
struct Warm {
  std::unique_ptr<driver::Engine> E;
  std::vector<driver::Engine::KernelHandle> Handles;
  /// First-call noise budget and ring degree per kernel (deterministic:
  /// fresh runtime, fixed execution seed, first input set).
  std::vector<double> NoiseBits;
  std::vector<size_t> PolyDegree;
};

/// Builds an Engine, compiles every kernel and makes one call each (which
/// generates keys and fills the runtime pool). Returns false if a kernel
/// cannot be compiled or executed at all.
bool warmUp(const std::vector<KernelCase> &Cases, Warm &W, Result &Res) {
  W = Warm();
  W.E = std::make_unique<driver::Engine>(engineOptions());
  for (size_t K = 0; K < NumKernels; ++K) {
    auto H = W.E->get(Cases[K].Name);
    if (!H) {
      Res.Notes.push_back("run: cannot compile " + Cases[K].Name + ": " +
                          H.status().message());
      return false;
    }
    auto Out = (*H)->execute(Cases[K].Inputs[0]);
    if (!Out) {
      Res.Notes.push_back("run: cannot execute " + Cases[K].Name + ": " +
                          Out.status().message());
      return false;
    }
    W.Handles.push_back(*H);
    W.NoiseBits.push_back(Out->NoiseBudgetBits);
    W.PolyDegree.push_back(Out->PolyDegree);
  }
  return true;
}

/// One timed call: Engine lookup (a cache hit once warm) plus execute.
/// Returns milliseconds, or a negative value when the call failed.
double timedCall(driver::Engine &E, const KernelCase &KC, size_t Set,
                 int64_t Request, Result &Res) {
  Span Call("bench", "call " + KC.Key, Request);
  auto H = E.get(KC.Name);
  Expected<driver::ExecuteOutcome> Out =
      H ? (*H)->execute(KC.Inputs[Set])
        : Expected<driver::ExecuteOutcome>(H.status());
  double Ms = Call.stop() * 1e3;
  ++Res.Attempted;
  if (!Out) {
    Res.fail("run: " + KC.Name + ": " + Out.status().message(), false);
    return -1;
  }
  std::string Why;
  if (!slotsMatch(Out->Outputs, KC.Want[Set], KC.Checked, Why)) {
    Res.fail("run: " + KC.Name + " decrypts wrong, " + Why, true);
    return -1;
  }
  return Ms;
}

void recordKernelState(const Warm &W, const std::vector<KernelCase> &Cases,
                       Result &Res) {
  for (size_t K = 0; K < NumKernels; ++K) {
    const std::string &Key = Cases[K].Key;
    const driver::CompileResult &R = W.Handles[K]->result();
    Res.set("program.instructions." + Key, R.Mix.Total, "count");
    Res.set("program.rotations." + Key, R.Mix.Rotations, "count");
    Res.set("program.ctct_muls." + Key, R.Mix.CtCtMuls, "count");
    Res.set("program.mult_depth." + Key, R.MultDepth, "count");
    Res.set("backend.poly_degree." + Key, static_cast<double>(W.PolyDegree[K]),
            "count");
    Res.set("backend.noise_budget_bits." + Key, W.NoiseBits[K], "bits");
    Res.HostIndependent["cost." + Key] = R.Cost;
    Res.HostIndependent["instructions." + Key] = R.Mix.Total;
    Res.HostIndependent["poly_degree." + Key] =
        static_cast<double>(W.PolyDegree[K]);
    Res.HostIndependent["noise_budget_bits." + Key] = W.NoiseBits[K];
  }
}

/// Untraced run. Set-up is sampled SetupSamples times — before the first
/// call and again at even shares of the time budget, each a fresh Engine
/// replacing the last — so its median spans the run, not one instant of a
/// host whose speed drifts. Calls get the whole budget; set-up is outside
/// it. The client moves to the next CPU for every set-up sample and every
/// round, so the figures do not hang on the CPU it happened to start on.
bool untracedRun(const Options &O, Result &Res) {
  std::vector<KernelCase> Cases = buildCases(O.Seed);
  Warm W;
  std::vector<double> SetupS;
  auto SetUp = [&] {
    rotateCpu(SetupS.size());
    Span S("bench", "setup");
    bool Ok = warmUp(Cases, W, Res);
    SetupS.push_back(S.stop());
    return Ok;
  };
  if (!SetUp())
    return false;
  recordKernelState(W, Cases, Res);

  std::vector<std::vector<double>> Ms(NumKernels);
  double CallS = 0;
  for (size_t Round = 0; Round == 0 || CallS < O.Seconds; ++Round) {
    if (SetupS.size() < SetupSamples &&
        CallS >= O.Seconds * SetupS.size() / SetupSamples && !SetUp())
      return false;
    Stopwatch RoundTime;
    rotateCpu(Round);
    for (size_t K = 0; K < NumKernels; ++K) {
      double T = timedCall(*W.E, Cases[K], (Round + 1) % InputSets,
                           static_cast<int64_t>(Round * NumKernels + K), Res);
      if (T >= 0)
        Ms[K].push_back(T);
    }
    CallS += RoundTime.seconds();
  }
  unpinCpu();
  Res.set("setup_s", median(SetupS), "s");

  std::vector<double> Means, Costs;
  for (size_t K = 0; K < NumKernels; ++K) {
    const std::string &Key = Cases[K].Key;
    Costs.push_back(W.Handles[K]->result().Cost);
    Res.Detail["calls." + Key] = static_cast<double>(Ms[K].size());
    if (Ms[K].empty())
      continue; // Every call failed; counted in `failed`.
    Means.push_back(mean(Ms[K]));
    Res.Detail["call_mean_ms." + Key] = Means.back();
    Res.Detail["call_median_ms." + Key] = median(Ms[K]);
    Res.Detail["call_min_ms." + Key] = quantile(Ms[K], 0);
  }
  double Latency = geomean(Means);
  Res.set("latency_ms", Latency, "ms");
  Res.set("tail_ms", Latency * pooledTailRatio(Ms), "ms");
  Res.set("program_cost", geomean(Costs), "cost");
  Res.HostIndependent["program_cost"] = geomean(Costs);
  return true;
}

/// Median microseconds of \p Reps calls of \p Fn, each under a span.
template <typename FnT>
double medianOpMicros(const char *Layer, const char *Name, int Reps, FnT Fn) {
  std::vector<double> Us;
  for (int I = 0; I < Reps; ++I) {
    Span S(Layer, Name);
    Fn();
    Us.push_back(S.stop() * 1e6);
  }
  return median(Us);
}

/// Per-operation BFV latencies and NTT transforms at the parameters
/// BfvContext::forMultDepth(\p Depth) selects.
void opMicrobench(unsigned Depth, uint64_t Seed, Result &Res) {
  BfvContext Ctx = BfvContext::forMultDepth(Depth);
  std::string Suffix = ".n" + std::to_string(Ctx.polyDegree());
  Rng R(Seed ^ Depth);
  KeyGenerator Keygen(Ctx, R);
  Encryptor Enc(Ctx, Keygen.createPublicKey(), R);
  Evaluator Eval(Ctx);
  BatchEncoder Encoder(Ctx);
  RelinKeys Relin = Keygen.createRelinKeys();
  GaloisKeys Galois = Keygen.createGaloisKeys({1});
  Plaintext Plain =
      Encoder.encode(R.vectorBelow(Ctx.plainModulus(), Ctx.slotCount()));
  Ciphertext A = Enc.encrypt(Plain);
  Ciphertext B = Enc.encrypt(Plain);
  Ciphertext Product = Eval.multiply(A, B);

  const int Reps = 15;
  Res.set("bfv.op.add_ct_ct_us" + Suffix,
          medianOpMicros("bfv", "add_ct_ct", 4 * Reps, [&] { Eval.add(A, B); }),
          "us");
  Res.set("bfv.op.mul_ct_pt_us" + Suffix,
          medianOpMicros("bfv", "mul_ct_pt", Reps,
                         [&] { Eval.multiplyPlain(A, Plain); }),
          "us");
  Res.set("bfv.op.mul_ct_ct_us" + Suffix,
          medianOpMicros("bfv", "mul_ct_ct", Reps,
                         [&] { Eval.multiply(A, B); }),
          "us");
  Res.set("bfv.op.relin_us" + Suffix,
          medianOpMicros("bfv", "relin", Reps,
                         [&] { Eval.relinearize(Product, Relin); }),
          "us");
  Res.set("bfv.op.rotate_us" + Suffix,
          medianOpMicros("bfv", "rotate", Reps,
                         [&] { Eval.rotateRows(A, 1, Galois); }),
          "us");

  const NttTables &Ntt = Ctx.coeffNtt()[0];
  std::vector<uint64_t> Poly = R.vectorBelow(Ntt.modulus(), Ntt.size());
  Res.set("math.ntt_forward_us" + Suffix,
          medianOpMicros("math", "ntt_forward", 20 * Reps,
                         [&] { Ntt.forwardTransform(Poly); }),
          "us");
  Res.set("math.ntt_inverse_us" + Suffix,
          medianOpMicros("math", "ntt_inverse", 20 * Reps,
                         [&] { Ntt.inverseTransform(Poly); }),
          "us");
}

struct StagedCall {
  bool Ok = false;
  double CallMs = 0, EncMs = 0, ExecMs = 0, DecMs = 0;
};

/// One call made stage by stage — Engine lookup, encrypt, run, decrypt —
/// on \p RT, each stage under a span, checked against its reference.
StagedCall stagedCall(driver::Engine &E, const driver::CompiledKernel &CK,
                      const driver::Runtime &RT, const KernelCase &KC,
                      size_t Set, int64_t Request, Result &Res) {
  StagedCall C;
  const quill::Program &P = CK.program();
  Span Call("bench", "staged call " + KC.Key, Request);
  {
    Span G("driver.engine", "get");
    (void)E.get(KC.Name);
  }
  std::vector<backend::Value> Enc;
  Span En("bfv", "encrypt");
  for (const std::vector<uint64_t> &In : padInputs(KC.Inputs[Set],
                                                   P.VectorSize)) {
    auto V = RT.encrypt(In);
    if (V)
      Enc.push_back(V.take());
  }
  C.EncMs = En.stop() * 1e3;
  Span X("backend", "execute");
  auto Ct = RT.run(P, Enc);
  C.ExecMs = X.stop() * 1e3;
  ++Res.Attempted;
  if (!Ct || Enc.size() != KC.Inputs[Set].size()) {
    Res.fail("run: staged call of " + KC.Name + " failed", false);
    return C;
  }
  Span D("bfv", "decrypt");
  std::vector<uint64_t> Out = RT.decrypt(*Ct, P.VectorSize);
  C.DecMs = D.stop() * 1e3;
  C.CallMs = Call.stop() * 1e3;
  std::string Why;
  if (!slotsMatch(Out, KC.Want[Set], KC.Checked, Why)) {
    Res.fail("run: staged " + KC.Name + " decrypts wrong, " + Why, true);
    return C;
  }
  C.Ok = true;
  return C;
}

bool tracedRun(const Options &O, Result &Res) {
  std::vector<KernelCase> Cases = buildCases(O.Seed);
  Warm W;
  if (!warmUp(Cases, W, Res))
    return false;
  recordKernelState(W, Cases, Res);

  // One staged runtime per kernel, built the way the Engine builds its
  // pool: Compiler::instantiate under the kernel's own options.
  std::vector<driver::Runtime> Runtimes;
  double InstantiateS = 0;
  for (size_t K = 0; K < NumKernels; ++K) {
    const driver::CompiledKernel &CK = *W.Handles[K];
    Span S("backend", "instantiate " + Cases[K].Key);
    auto RT = driver::Compiler(CK.options()).instantiate({&CK.program()});
    InstantiateS += S.stop();
    if (!RT) {
      Res.Notes.push_back("run: cannot instantiate " + Cases[K].Name);
      return false;
    }
    Runtimes.push_back(RT.take());

    driver::CompileOptions Dry = CK.options();
    Dry.Backend = "dryrun";
    auto Charged = driver::Compiler(Dry).execute(CK.program(),
                                                 Cases[K].Inputs[0]);
    if (!Charged) {
      Res.Notes.push_back("run: dry-run backend failed on " + Cases[K].Name);
      return false;
    }
    Res.set("backend.dryrun_charged_us." + Cases[K].Key,
            Charged->ChargedLatencyUs, "us");
  }
  Res.set("backend.instantiate_s", InstantiateS, "s");

  // Each call is made twice, stage by stage, with and without spans; which
  // goes first alternates by round, so a drift in host speed does not land
  // on one side. The difference is the tracing overhead.
  driver::EngineStats Before = W.E->stats();
  std::vector<std::vector<double>> Untraced(NumKernels), Traced(NumKernels),
      EncMs(NumKernels), ExecMs(NumKernels), DecMs(NumKernels);
  Tracer *T = Tracer::active();
  Stopwatch Wall;
  for (size_t Round = 0; Round == 0 || Wall.seconds() < O.Seconds; ++Round)
    for (size_t K = 0; K < NumKernels; ++K)
      for (int Pass = 0; Pass < 2; ++Pass) {
        bool WithSpans = (Pass + Round) % 2 == 1;
        Tracer::install(WithSpans ? T : nullptr);
        StagedCall C = stagedCall(*W.E, *W.Handles[K], Runtimes[K], Cases[K],
                                  (Round + 1) % InputSets,
                                  static_cast<int64_t>(Round * NumKernels + K),
                                  Res);
        if (!C.Ok)
          continue;
        if (!WithSpans) {
          Untraced[K].push_back(C.CallMs);
          continue;
        }
        Traced[K].push_back(C.CallMs);
        EncMs[K].push_back(C.EncMs);
        ExecMs[K].push_back(C.ExecMs);
        DecMs[K].push_back(C.DecMs);
      }
  Tracer::install(T);
  driver::EngineStats After = W.E->stats();

  std::vector<double> UntracedMed, TracedMed;
  for (size_t K = 0; K < NumKernels; ++K) {
    const std::string &Key = Cases[K].Key;
    Res.set("bfv.encrypt_ms." + Key, median(EncMs[K]), "ms");
    Res.set("backend.execute_ms." + Key, median(ExecMs[K]), "ms");
    Res.set("bfv.decrypt_ms." + Key, median(DecMs[K]), "ms");
    double EstimateUs = W.Handles[K]->result().LatencyEstimateUs;
    Res.set("quill.cost_model_error." + Key,
            EstimateUs > 0 ? median(ExecMs[K]) * 1e3 / EstimateUs : 0,
            "ratio");
    UntracedMed.push_back(median(Untraced[K]));
    TracedMed.push_back(median(Traced[K]));
  }
  double Lookups = static_cast<double>(After.Hits - Before.Hits +
                                       After.Misses - Before.Misses);
  Res.set("driver.engine.hit_rate",
          Lookups > 0 ? (After.Hits - Before.Hits) / Lookups : 0, "ratio");
  double U = geomean(UntracedMed);
  Res.set("trace.overhead_frac", U > 0 ? geomean(TracedMed) / U - 1 : 0,
          "ratio");

  for (unsigned Depth : {1u, 4u})
    opMicrobench(Depth, O.Seed, Res);
  return true;
}

} // namespace

bool perfbench::runRunWorkload(const Options &O, Result &Res) {
  Res.Config["engine_runtime_pool"] =
      std::to_string(engineOptions().RuntimePoolSize);
  Res.Config["clients"] = "1";
  return O.Trace ? tracedRun(O, Res) : untracedRun(O, Res);
}
