//===- tests/engine_test.cpp - Unit tests for the serving Engine ----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver::Engine contract: a second get() with equal options is a
/// cache hit (no synthesis re-run), fingerprints are canonical (field
/// assignment order never matters, every semantic change does), LRU
/// eviction honors capacity and recency, artifacts round-trip through disk
/// and execute correctly, and one CompiledKernel serves concurrent threads
/// through its runtime pool. Plus the JSON layer underneath artifacts
/// (escaping, strict parsing) and the printProgram/parseProgram round-trip
/// over every bundled kernel.
///
//===----------------------------------------------------------------------===//

#include "driver/Artifact.h"
#include "driver/Engine.h"
#include "kernels/KernelRegistry.h"
#include "kernels/Kernels.h"
#include "quill/Interpreter.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

using namespace porcupine;
using namespace porcupine::driver;
using namespace porcupine::kernels;

namespace {

constexpr uint64_t T = 65537;

/// A one-component kernel (slotwise a + b) that synthesizes in
/// microseconds, so this suite can exercise the RunSynthesis path and stay
/// in the fast label.
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

quill::Program addProgram(size_t Width = 4) {
  quill::Program P;
  P.NumInputs = 2;
  P.VectorSize = Width;
  P.append(quill::Instr::ctCt(quill::Opcode::AddCtCt, 0, 1));
  return P;
}

KernelRegistry addRegistry(const std::string &Name = "My Add") {
  KernelRegistry R;
  KernelBundle Add;
  Add.Spec = addSpec();
  Add.Sketch = addSketch();
  Add.Synthesized = addProgram();
  EXPECT_TRUE(R.add(Name, Add).ok());
  return R;
}

/// Bundled-program-only options: deterministic and fast for cache tests
/// that do not need CEGIS.
CompileOptions bundledOptions() {
  CompileOptions Opts;
  Opts.RunSynthesis = false;
  return Opts;
}

/// bundledOptions() on the keyless dry-run backend: the fast execution
/// path for tests whose subject is the cache, not the cryptography.
CompileOptions dryrunOptions() {
  CompileOptions Opts = bundledOptions();
  Opts.Backend = "dryrun";
  return Opts;
}

bool sameProgram(const quill::Program &A, const quill::Program &B) {
  return A.NumInputs == B.NumInputs && A.VectorSize == B.VectorSize &&
         A.Constants == B.Constants && A.Instructions == B.Instructions &&
         A.outputId() == B.outputId();
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(Fingerprint, StableAcrossAssignmentOrder) {
  CompileOptions A;
  A.Pipeline = "peephole,cse";
  A.Synthesis.TimeoutSeconds = 7.5;
  A.Codegen.FunctionName = "serve";

  CompileOptions B;
  B.Codegen.FunctionName = "serve";
  B.Synthesis.TimeoutSeconds = 7.5;
  B.Pipeline = "peephole,cse";

  EXPECT_EQ(A.canonicalKey(), B.canonicalKey());
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  EXPECT_EQ(compileFingerprint("k", A), compileFingerprint("k", B));
}

TEST(Fingerprint, EverySemanticFieldChangesIt) {
  CompileOptions Base;
  std::string BaseFp = Base.fingerprint();
  // A representative sample across option groups; each must perturb the
  // fingerprint.
  CompileOptions O1 = Base;
  O1.RunSynthesis = false;
  CompileOptions O2 = Base;
  O2.Synthesis.MaxComponents += 1;
  CompileOptions O3 = Base;
  O3.Synthesis.Latency.RotCt += 1.0;
  CompileOptions O4 = Base;
  O4.Codegen.FunctionName = "other";
  CompileOptions O5 = Base;
  O5.ExecutionSeed += 1;
  CompileOptions O6 = Base;
  O6.Latency = LatencySource::Profiled;
  CompileOptions O7 = Base;
  O7.Pipeline = "peephole";
  CompileOptions O8 = Base;
  O8.Synthesis.Latency.RelinCt += 1.0;
  for (const CompileOptions *O :
       {&O1, &O2, &O3, &O4, &O5, &O6, &O7, &O8})
    EXPECT_NE(O->fingerprint(), BaseFp);
  // And the kernel name is part of the pair fingerprint.
  EXPECT_NE(compileFingerprint("a", Base), compileFingerprint("b", Base));
}

TEST(Fingerprint, HostileFunctionNamesCannotForgeFields) {
  CompileOptions A;
  A.Codegen.FunctionName = "f\";run_synthesis=0;x=\"";
  CompileOptions B;
  EXPECT_NE(A.canonicalKey(), B.canonicalKey());
  // The forged text stays inside the quoted value.
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

//===----------------------------------------------------------------------===//
// Engine cache
//===----------------------------------------------------------------------===//

TEST(Engine, SecondGetIsACacheHitWithNoSynthesisRerun) {
  KernelRegistry R = addRegistry();
  EngineOptions EO;
  EO.Defaults.RunSynthesis = true; // Real CEGIS on the first get()...
  Engine E(EO, &R);

  auto First = E.get("my add");
  ASSERT_TRUE(First.hasValue()) << First.status().toString();
  EXPECT_TRUE((*First)->result().FromSynthesis);
  EngineStats S1 = E.stats();
  EXPECT_EQ(S1.Misses, 1u);
  EXPECT_EQ(S1.Compiles, 1u);

  // ...and none on the second: same handle, no new compile.
  auto Second = E.get("My Add");
  ASSERT_TRUE(Second.hasValue()) << Second.status().toString();
  EXPECT_EQ(*First, *Second);
  EngineStats S2 = E.stats();
  EXPECT_EQ(S2.Hits, 1u);
  EXPECT_EQ(S2.Misses, 1u);
  EXPECT_EQ(S2.Compiles, 1u);
}

TEST(Engine, DifferentOptionsAreDifferentEntries) {
  Engine E(EngineOptions{4, 1, bundledOptions()});
  auto A = E.get("gx");
  CompileOptions Other = bundledOptions();
  Other.Codegen.FunctionName = "different";
  auto B = E.get("gx", Other);
  ASSERT_TRUE(A.hasValue() && B.hasValue());
  EXPECT_NE(*A, *B);
  EXPECT_EQ(E.stats().Misses, 2u);
  EXPECT_EQ(E.size(), 2u);
}

TEST(Engine, LruEvictionHonorsCapacityAndRecency) {
  Engine E(EngineOptions{2, 1, bundledOptions()});
  ASSERT_TRUE(E.get("gx").hasValue());       // Cache: [gx]
  ASSERT_TRUE(E.get("gy").hasValue());       // Cache: [gy, gx]
  ASSERT_TRUE(E.get("gx").hasValue());       // Touch: [gx, gy]
  ASSERT_TRUE(E.get("box blur").hasValue()); // Evicts gy: [box blur, gx]
  EXPECT_EQ(E.size(), 2u);
  EXPECT_EQ(E.stats().Evictions, 1u);

  EngineStats Before = E.stats();
  ASSERT_TRUE(E.get("gx").hasValue()); // Still cached.
  EXPECT_EQ(E.stats().Hits, Before.Hits + 1);
  ASSERT_TRUE(E.get("gy").hasValue()); // Was evicted: a miss again.
  EXPECT_EQ(E.stats().Misses, Before.Misses + 1);
}

TEST(Engine, EvictedHandlesStayValid) {
  Engine E(EngineOptions{1, 1, dryrunOptions()});
  auto A = E.get("gx");
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(E.get("gy").hasValue()); // Evicts gx.
  EXPECT_EQ(E.size(), 1u);
  // The evicted kernel still executes (shared ownership).
  auto Out = (*A)->execute(
      {std::vector<uint64_t>((*A)->program().VectorSize, 1)});
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
}

TEST(Engine, FailuresAreReportedAndNeverCached) {
  KernelRegistry R;
  KernelBundle Bare;
  Bare.Spec = addSpec();
  Bare.Sketch = addSketch();
  // No bundled program: RunSynthesis=false cannot compile this.
  ASSERT_TRUE(R.add("bare", Bare).ok());
  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);

  auto First = E.get("bare");
  ASSERT_FALSE(First.hasValue());
  EXPECT_EQ(E.size(), 0u); // Not cached...
  EXPECT_EQ(E.stats().CompileFailures, 1u);
  auto Second = E.get("bare"); // ...so the retry really re-attempts.
  ASSERT_FALSE(Second.hasValue());
  EXPECT_EQ(E.stats().CompileFailures, 2u);
  EXPECT_EQ(E.stats().Hits, 0u);
}

TEST(Engine, UnknownKernelNamesFailLikeTheCompiler) {
  Engine E;
  auto K = E.get("no such kernel");
  ASSERT_FALSE(K.hasValue());
  EXPECT_EQ(E.stats().Misses, 0u); // Name resolution is not a cache miss.
}

TEST(Engine, ClearDropsEntriesAndStats) {
  Engine E(EngineOptions{4, 1, bundledOptions()});
  ASSERT_TRUE(E.get("gx").hasValue());
  E.clear();
  EXPECT_EQ(E.size(), 0u);
  EXPECT_EQ(E.stats().Misses, 0u);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

TEST(CompiledKernel, DryRunBackendMatchesEncryptedExecution) {
  KernelRegistry R = addRegistry();
  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);
  auto K = E.get("my add");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();
  auto KD = E.get("my add", dryrunOptions());
  ASSERT_TRUE(KD.hasValue()) << KD.status().toString();
  EXPECT_NE(*K, *KD); // Distinct backends are distinct cache entries.

  std::vector<std::vector<uint64_t>> Inputs = {{1, 2, 3, 4}, {10, 20, 30, 40}};
  auto Plain = (*KD)->execute(Inputs);
  auto Enc = (*K)->execute(Inputs);
  ASSERT_TRUE(Plain.hasValue()) << Plain.status().toString();
  ASSERT_TRUE(Enc.hasValue()) << Enc.status().toString();
  EXPECT_EQ(Plain->Outputs, (std::vector<uint64_t>{11, 22, 33, 44}));
  EXPECT_EQ(Enc->Outputs, Plain->Outputs);
  EXPECT_FALSE(Plain->Encrypted);
  EXPECT_GT(Plain->ChargedLatencyUs, 0.0);
  EXPECT_TRUE(Enc->Encrypted);
  EXPECT_GT(Enc->NoiseBudgetBits, 0.0);
}

TEST(CompiledKernel, OnePackedRequestAtWindowZeroMatchesExecute) {
  // Dot Product rotates, so its scratch slots depend on where rotations
  // wrap; both calls run over the same zero-filled batching row, so the
  // first VectorSize outputs agree slot for slot, masked or not.
  const std::vector<std::vector<uint64_t>> Inputs = {
      {1, 2, 3, 4, 5, 6, 7, 8}, {1, 1, 1, 1, 1, 1, 1, 1}};
  for (const CompileOptions &Opts : {bundledOptions(), dryrunOptions()}) {
    Engine E(EngineOptions{4, 1, Opts});
    auto K = E.get("dot product");
    ASSERT_TRUE(K.hasValue()) << K.status().toString();
    auto One = (*K)->execute(Inputs);
    auto Packed = (*K)->executePacked(Inputs);
    ASSERT_TRUE(One.hasValue()) << One.status().toString();
    ASSERT_TRUE(Packed.hasValue()) << Packed.status().toString();
    ASSERT_EQ(Packed->Outputs.size(), (*K)->packedRowWidth()) << Opts.Backend;
    const size_t W = (*K)->program().VectorSize;
    EXPECT_EQ(std::vector<uint64_t>(Packed->Outputs.begin(),
                                    Packed->Outputs.begin() + W),
              One->Outputs)
        << Opts.Backend;
    EXPECT_EQ(One->Outputs[0], 36u) << Opts.Backend;
    EXPECT_EQ(Packed->Encrypted, One->Encrypted);
    EXPECT_EQ(Packed->PolyDegree, One->PolyDegree);
  }
}

TEST(CompiledKernel, ExecuteManyValidatesAtomicallyWithTheBatchIndex) {
  KernelRegistry R = addRegistry();
  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);
  auto K = E.get("my add");
  ASSERT_TRUE(K.hasValue());

  auto Bad = (*K)->executeMany(
      {{{1, 2, 3, 4}, {1, 2, 3, 4}},
       {{1, 2, 3, 4}}}); // Item 1: one input missing.
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.status().toString().find("batch item 1"), std::string::npos);

  auto Empty = (*K)->executeMany({});
  ASSERT_TRUE(Empty.hasValue());
  EXPECT_TRUE(Empty->empty());
}

TEST(CompiledKernel, FourThreadsShareOneKernelCorrectly) {
  KernelRegistry R = addRegistry();
  // Pool of 2 runtimes for 4 threads: forces both lazy construction and
  // blocking checkout under contention.
  Engine E(EngineOptions{4, 2, bundledOptions()}, &R);
  auto K = E.get("my add");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();
  const CompiledKernel &Kernel = **K;

  constexpr int Threads = 4;
  constexpr int CallsPerThread = 3;
  std::vector<std::string> Errors(Threads);
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < Threads; ++Ti) {
    Pool.emplace_back([&, Ti] {
      std::vector<std::vector<std::vector<uint64_t>>> Batch;
      for (int C = 0; C < CallsPerThread; ++C) {
        uint64_t Base = static_cast<uint64_t>(Ti * 100 + C * 10);
        Batch.push_back({{Base + 1, Base + 2, Base + 3, Base + 4},
                         {5, 6, 7, 8}});
      }
      auto Out = Kernel.executeMany(Batch);
      if (!Out) {
        Errors[Ti] = Out.status().toString();
        return;
      }
      for (int C = 0; C < CallsPerThread; ++C) {
        auto Want = quill::interpret(Kernel.program(), Batch[C], T);
        if ((*Out)[C].Outputs != Want) {
          Errors[Ti] = "thread " + std::to_string(Ti) + " call " +
                       std::to_string(C) + " decrypted the wrong result";
          return;
        }
      }
    });
  }
  for (std::thread &Th : Pool)
    Th.join();
  for (int Ti = 0; Ti < Threads; ++Ti)
    EXPECT_EQ(Errors[Ti], "") << "thread " << Ti;
  // The pool never grew beyond its cap.
  EXPECT_LE(Kernel.runtimesBuilt(), 2u);
  EXPECT_GE(Kernel.runtimesBuilt(), 1u);
}

TEST(Runtime, SharedStateReuseAcrossInstantiations) {
  Compiler C;
  quill::Program P = addProgram();
  auto R1 = C.instantiate({&P});
  ASSERT_TRUE(R1.hasValue()) << R1.status().toString();
  // A second runtime built over the first one's shared state: one context
  // object, fresh keys — the Engine's pool-scaling path.
  auto R2 = C.instantiate({&P}, R1->sharedState());
  ASSERT_TRUE(R2.hasValue()) << R2.status().toString();
  EXPECT_EQ(R1->sharedState().get(), R2->sharedState().get());

  auto Ct = R2->encrypt({1, 2, 3, 4});
  ASSERT_TRUE(Ct.hasValue());
  auto Out = R2->run(P, {*Ct, *Ct});
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
  EXPECT_EQ(R2->decrypt(*Out, 4), (std::vector<uint64_t>{2, 4, 6, 8}));
}

TEST(Engine, ConcurrentMissesOfOneKeyCoalesceOntoOneCompile) {
  KernelRegistry R = addRegistry();
  EngineOptions EO;
  EO.Defaults.RunSynthesis = true;
  Engine E(EO, &R);

  constexpr int Threads = 4;
  std::vector<Engine::KernelHandle> Handles(Threads);
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < Threads; ++Ti)
    Pool.emplace_back([&, Ti] {
      auto K = E.get("my add");
      if (K)
        Handles[Ti] = *K;
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int Ti = 0; Ti < Threads; ++Ti) {
    ASSERT_TRUE(Handles[Ti] != nullptr) << "thread " << Ti;
    EXPECT_EQ(Handles[Ti], Handles[0]);
  }
  EXPECT_EQ(E.stats().Compiles, 1u); // One synthesis for all four callers.
  EXPECT_EQ(E.stats().Misses + E.stats().Hits, 4u);
}

//===----------------------------------------------------------------------===//
// Artifacts
//===----------------------------------------------------------------------===//

TEST(Artifact, SaveLoadExecuteRoundTrip) {
  CompileOptions Opts = bundledOptions();
  Engine E(EngineOptions{4, 1, Opts});
  auto K = E.get("gx");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();

  const std::string Path = "engine_test_artifact.tmp.json";
  ASSERT_TRUE(saveArtifact(**K, Path).ok());

  Engine Fresh(EngineOptions{4, 1, Opts});
  auto L = Fresh.loadArtifact(Path);
  ASSERT_TRUE(L.hasValue()) << L.status().toString();
  EXPECT_EQ((*L)->name(), (*K)->name());
  EXPECT_EQ((*L)->fingerprint(), (*K)->fingerprint());
  EXPECT_TRUE(sameProgram((*L)->program(), (*K)->program()));
  EXPECT_EQ((*L)->result().Params.PolyDegree,
            (*K)->result().Params.PolyDegree);
  EXPECT_EQ((*L)->result().SealCode, (*K)->result().SealCode);
  EXPECT_EQ(Fresh.stats().ArtifactLoads, 1u);

  // The warm-started engine serves the matching get() from cache — the
  // whole point of artifacts: no recompilation on process restart.
  auto Warm = Fresh.get("gx", Opts);
  ASSERT_TRUE(Warm.hasValue()) << Warm.status().toString();
  EXPECT_EQ(*Warm, *L);
  EXPECT_EQ(Fresh.stats().Hits, 1u);
  EXPECT_EQ(Fresh.stats().Misses, 0u);

  // And the loaded kernel computes the same thing as the original.
  std::vector<std::vector<uint64_t>> Inputs = {
      std::vector<uint64_t>((*K)->program().VectorSize, 3)};
  auto A = (*K)->execute(Inputs);
  auto B = (*L)->execute(Inputs);
  ASSERT_TRUE(A.hasValue()) << A.status().toString();
  ASSERT_TRUE(B.hasValue()) << B.status().toString();
  EXPECT_EQ(A->Outputs, B->Outputs);
  std::remove(Path.c_str());
}

TEST(Artifact, RecordedParametersAreRecomputedOnLoad) {
  // The BFV session sizes its ring from the program's depth, so the loaded
  // kernel must report exactly that choice, whatever the file claims.
  CompileOptions Opts = bundledOptions();
  Engine E(EngineOptions{4, 1, Opts});
  auto K = E.get("dot product");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();
  std::string Doc = renderArtifact((*K)->result(), (*K)->options());
  size_t Begin = Doc.find("\"params\": {");
  ASSERT_NE(Begin, std::string::npos);
  size_t End = Doc.find('}', Begin);
  ASSERT_NE(End, std::string::npos);
  Doc.replace(Begin, End + 1 - Begin,
              "\"params\": {\"poly_degree\": 1024, "
              "\"coeff_modulus_bits\": 27, \"mult_depth\": 0}");

  const std::string Path = "engine_test_stale_params.tmp.json";
  {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_TRUE(F != nullptr);
    std::fwrite(Doc.data(), 1, Doc.size(), F);
    std::fclose(F);
  }
  Engine Fresh(EngineOptions{4, 1, Opts});
  auto L = Fresh.loadArtifact(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(L.hasValue()) << L.status().toString();

  ParameterChoice Ladder = chooseParameters((*L)->program());
  const ParameterChoice &Loaded = (*L)->result().Params;
  EXPECT_EQ(Loaded.MultiplicativeDepth, 1u);
  EXPECT_EQ(Loaded.PolyDegree, Ladder.PolyDegree);
  EXPECT_EQ(Loaded.CoeffModulusBits, Ladder.CoeffModulusBits);
  EXPECT_EQ(Loaded.MultiplicativeDepth, Ladder.MultiplicativeDepth);
}

TEST(Artifact, NastyKernelNamesSurviveTheJsonRoundTrip) {
  CompileResult R;
  R.KernelName = "evil \"name\"\\with\nnewline\tand\x01control";
  R.Program = addProgram();
  R.SealCode = "// line1\n\"quoted\"\\\n";
  R.Notes.push_back({Severity::Note, "synthesis", "note with \"quotes\""});
  CompileOptions Opts;

  std::string Doc = renderArtifact(R, Opts);
  // The document must be valid JSON despite the hostile strings...
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(Doc, V, Err)) << Err;
  // ...and every string must round-trip exactly.
  auto A = parseArtifact(Doc);
  ASSERT_TRUE(A.hasValue()) << A.status().toString();
  EXPECT_EQ(A->Kernel, R.KernelName);
  EXPECT_EQ(A->SealCode, R.SealCode);
  ASSERT_EQ(A->Notes.size(), 1u);
  EXPECT_EQ(A->Notes[0], R.Notes[0].toString());
}

TEST(Artifact, FullRangeUint64SeedsRoundTripExactly) {
  // Seeds above 2^53 would silently degrade through a double; the reader
  // must re-parse the source digits instead.
  CompileResult R;
  R.KernelName = "k";
  R.Program = addProgram();
  CompileOptions O;
  O.ExecutionSeed = 0xDEADBEEFDEADBEEFull;
  std::string Doc = renderArtifact(R, O);
  auto A = parseArtifact(Doc);
  ASSERT_TRUE(A.hasValue()) << A.status().toString();
  EXPECT_EQ(A->ExecutionSeed, 0xDEADBEEFDEADBEEFull);
  // A present-but-broken seed is an error, never a silent default.
  EXPECT_FALSE(
      parseArtifact("{\"format\": \"porcupine-kernel-artifact\", "
                    "\"version\": 1, \"kernel\": \"k\", \"plain_modulus\": "
                    "65537, \"execution_seed\": -3, \"program\": \"quill "
                    "inputs=1 width=2\\nc1 = add-ct-ct c0 c0\\nreturn "
                    "c1\\n\"}")
          .hasValue());
}

TEST(KernelRegistryThreads, ConcurrentLazyLookupsOnOneRegistryAreSafe) {
  // A fresh copy drops the materialized caches, so every thread races on
  // lazy materialization — through two Engines and direct find() calls.
  KernelRegistry Shared = KernelRegistry::builtin();
  EngineOptions EO;
  EO.Defaults.RunSynthesis = false;
  Engine E1(EO, &Shared), E2(EO, &Shared);

  const char *Names[] = {"gx", "gy", "box blur", "dot product"};
  std::vector<int> Ok(4, 0);
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < 4; ++Ti)
    Pool.emplace_back([&, Ti] {
      Engine &E = Ti % 2 ? E2 : E1;
      bool Good = E.get(Names[Ti]).hasValue() &&
                  Shared.find(Names[(Ti + 1) % 4]).hasValue();
      Ok[Ti] = Good ? 1 : 0;
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int Ti = 0; Ti < 4; ++Ti)
    EXPECT_EQ(Ok[Ti], 1) << "thread " << Ti;
}

TEST(Artifact, CorruptedArtifactsAreRejectedWithDiagnostics) {
  // Not JSON at all.
  EXPECT_FALSE(parseArtifact("not json").hasValue());
  // JSON, but not an artifact.
  EXPECT_FALSE(parseArtifact("{\"format\": \"something-else\"}").hasValue());
  // Unsupported version.
  EXPECT_FALSE(
      parseArtifact("{\"format\": \"porcupine-kernel-artifact\", "
                    "\"version\": 99, \"kernel\": \"k\", \"plain_modulus\": "
                    "65537, \"program\": \"quill inputs=1 width=2\\nc1 = "
                    "add-ct-ct c0 c0\\nreturn c1\\n\"}")
          .hasValue());
  // Tampered program text must fail re-validation, not execute garbage.
  auto Bad =
      parseArtifact("{\"format\": \"porcupine-kernel-artifact\", "
                    "\"version\": 1, \"kernel\": \"k\", \"plain_modulus\": "
                    "65537, \"program\": \"quill inputs=1 width=2\\nc1 = "
                    "add-ct-ct c0 c9\\nreturn c1\\n\"}");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.status().toString().find("invalid"), std::string::npos);
  // Missing file.
  Engine E;
  EXPECT_FALSE(E.loadArtifact("/nonexistent/path.json").hasValue());
}

//===----------------------------------------------------------------------===//
// JSON layer
//===----------------------------------------------------------------------===//

TEST(Json, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json::quote("x"), "\"x\"");
}

TEST(Json, ParserRoundTripsEscapedStrings) {
  const std::string Nasty = "a\"b\\c\nd\te\x01f";
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse("{\"k\": " + json::quote(Nasty) + "}", V, Err))
      << Err;
  ASSERT_TRUE(V.isObject());
  const json::Value *K = V.find("k");
  ASSERT_TRUE(K && K->isString());
  EXPECT_EQ(K->asString(), Nasty);
}

TEST(Json, ParserRejectsMalformedDocuments) {
  json::Value V;
  std::string Err;
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "tru", "\"unterminated",
        "01", "1.", "1e", "{\"a\":1} trailing", "\"lone \\udc00 surrogate\"",
        "\"bad \\x escape\"", "\"raw \n control\""}) {
    EXPECT_FALSE(json::parse(Bad, V, Err)) << "accepted: " << Bad;
    EXPECT_FALSE(Err.empty());
  }
  // Hostile nesting depth fails cleanly instead of overflowing the stack.
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  EXPECT_FALSE(json::parse(Deep, V, Err));
}

TEST(Json, ParserHandlesNumbersBoolsNullsAndNesting) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(
      "{\"i\": 42, \"f\": -1.5e2, \"t\": true, \"n\": null, "
      "\"a\": [1, {\"deep\": \"yes\"}], \"u\": \"\\u0041\\u00e9\"}",
      V, Err))
      << Err;
  EXPECT_EQ(V.find("i")->asNumber(), 42.0);
  EXPECT_EQ(V.find("f")->asNumber(), -150.0);
  EXPECT_TRUE(V.find("t")->asBool());
  EXPECT_TRUE(V.find("n")->isNull());
  ASSERT_TRUE(V.find("a")->isArray());
  EXPECT_EQ(V.find("a")->elements()[1].find("deep")->asString(), "yes");
  EXPECT_EQ(V.find("u")->asString(), "A\xc3\xa9");
}

TEST(Json, CompileResultRecordIsValidJsonEvenWithHostileStrings) {
  CompileResult R;
  R.KernelName = "k\"er\\nel\nname";
  R.Program = addProgram();
  R.SealCode = "code with \"quotes\" and \\slashes\\";
  R.Notes.push_back({Severity::Warning, "synthesis", "warn \"hard\""});
  std::string J = toJson(R);
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(J, V, Err)) << Err;
  EXPECT_EQ(V.find("kernel")->asString(), R.KernelName);
  EXPECT_EQ(V.find("seal_code")->asString(), R.SealCode);
}

//===----------------------------------------------------------------------===//
// Program serialization round-trip
//===----------------------------------------------------------------------===//

TEST(ProgramRoundTrip, EveryBundledKernelPrintsAndParsesBack) {
  const KernelRegistry &R = KernelRegistry::builtin();
  for (const std::string &Name : R.names()) {
    auto B = R.find(Name);
    ASSERT_TRUE(B.hasValue()) << Name;
    for (const quill::Program *P :
         {&(*B)->Synthesized, &(*B)->Baseline}) {
      if (P->Instructions.empty())
        continue;
      std::string Text = quill::printProgram(*P);
      quill::Program Parsed;
      std::string Error;
      ASSERT_TRUE(quill::parseProgram(Text, Parsed, Error))
          << Name << ": " << Error;
      EXPECT_TRUE(sameProgram(*P, Parsed)) << Name;
      // And printing the parse is a fixed point.
      EXPECT_EQ(quill::printProgram(Parsed), Text) << Name;
    }
  }
}

TEST(ProgramRoundTrip, ParserRejectsHostileInputWithoutThrowing) {
  quill::Program P;
  std::string Error;
  // Overflowing / out-of-range numbers must fail, not throw.
  EXPECT_FALSE(quill::parseProgram(
      "quill inputs=99999999999999999999 width=4\n", P, Error));
  EXPECT_FALSE(
      quill::parseProgram("quill inputs=1 width=99999999999\n", P, Error));
  EXPECT_FALSE(quill::parseProgram("quill inputs=0 width=4\n", P, Error));
  EXPECT_FALSE(quill::parseProgram(
      "quill inputs=1 width=4\nc1 = rot-ct c0 99999999999999999999\nreturn "
      "c1\n",
      P, Error));
  EXPECT_FALSE(quill::parseProgram(
      "quill inputs=1 width=4\nc1 = rot-ct c0 1abc\nreturn c1\n", P, Error));
  EXPECT_FALSE(quill::parseProgram(
      "quill inputs=1 width=4\nc99999999999999999999 = rot-ct c0 1\n", P,
      Error));
  // Valid negative rotation still parses.
  ASSERT_TRUE(quill::parseProgram(
      "quill inputs=1 width=4\nc1 = rot-ct c0 -1\nreturn c1\n", P, Error))
      << Error;
  EXPECT_EQ(P.Instructions[0].Rot, -1);
}

//===----------------------------------------------------------------------===//
// Eviction under load and async compilation (serving-tier prerequisites)
//===----------------------------------------------------------------------===//

/// An "a + b" bundle whose *spec* carries \p Name — the Engine cache keys
/// on the spec name, so distinct names occupy distinct cache entries.
KernelBundle namedAddBundle(const std::string &Name) {
  KernelBundle B;
  DataLayout Layout;
  Layout.Description = "slotwise a + b";
  B.Spec = makeKernelSpec(Name, 2, 4, Layout,
                          [](const auto &In, auto Konst) {
                            (void)Konst;
                            std::decay_t<decltype(In[0])> Out;
                            for (size_t I = 0; I < 4; ++I)
                              Out.push_back(In[0][I] + In[1][I]);
                            return Out;
                          });
  B.Sketch = addSketch();
  B.Synthesized = addProgram();
  return B;
}

TEST(Engine, EvictionUnderConcurrentExecuteKeepsHeldHandlesValid) {
  // Capacity-1 cache with two kernels: every get() of one evicts the
  // other. Worker threads hammer encrypted execute() on handles they hold
  // while the main thread forces continuous eviction churn — held handles
  // must stay valid and correct throughout (shared_ptr ownership, not
  // cache residency, governs lifetime).
  KernelRegistry R;
  ASSERT_TRUE(R.add("add a", namedAddBundle("add a")).ok());
  ASSERT_TRUE(R.add("add b", namedAddBundle("add b")).ok());
  Engine E(EngineOptions{1, 2, bundledOptions()}, &R);

  auto KA = E.get("add a");
  auto KB = E.get("add b"); // Evicts "add a" immediately.
  ASSERT_TRUE(KA.hasValue()) << KA.status().toString();
  ASSERT_TRUE(KB.hasValue()) << KB.status().toString();

  constexpr int Threads = 2;
  constexpr int CallsPerThread = 4;
  std::vector<std::string> Errors(Threads);
  std::atomic<bool> Done{false};
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < Threads; ++Ti) {
    Pool.emplace_back([&, Ti] {
      // Each thread executes on the handle the OTHER thread's gets keep
      // evicting.
      const CompiledKernel &K = Ti % 2 ? **KB : **KA;
      for (int C = 0; C < CallsPerThread; ++C) {
        uint64_t Base = static_cast<uint64_t>(Ti * 100 + C * 10);
        std::vector<std::vector<uint64_t>> In = {
            {Base + 1, Base + 2, Base + 3, Base + 4}, {5, 6, 7, 8}};
        auto Out = K.execute(In);
        if (!Out) {
          Errors[Ti] = Out.status().toString();
          return;
        }
        if (Out->Outputs != quill::interpret(K.program(), In, T)) {
          Errors[Ti] = "thread " + std::to_string(Ti) + " call " +
                       std::to_string(C) + " decrypted the wrong result";
          return;
        }
      }
    });
  }
  // Eviction churn concurrent with the executions above.
  std::thread Churn([&] {
    int Flip = 0;
    while (!Done.load(std::memory_order_relaxed))
      E.get(++Flip % 2 ? "add a" : "add b");
  });
  for (std::thread &Th : Pool)
    Th.join();
  Done.store(true);
  Churn.join();
  for (int Ti = 0; Ti < Threads; ++Ti)
    EXPECT_EQ(Errors[Ti], "") << "thread " << Ti;
  EXPECT_EQ(E.size(), 1u); // Capacity was honored throughout.
  EXPECT_GT(E.stats().Evictions, 0u);
}

TEST(Engine, CompileAsyncBurstDrainsThroughTheBoundedPool) {
  // More queued compiles than pool threads (2): the bounded ThreadPool
  // must drain them all without spawning a thread per request, and
  // coalescing must still collapse duplicate keys onto one compile.
  KernelRegistry R = addRegistry();
  EngineOptions EO{8, 1, bundledOptions()};
  EO.AsyncCompileThreads = 2;
  Engine E(EO, &R);

  std::vector<std::future<Expected<Engine::KernelHandle>>> Futs;
  for (int I = 0; I < 8; ++I) {
    CompileOptions Opts = bundledOptions();
    Opts.ExecutionSeed = static_cast<uint64_t>(I % 4 + 1); // 4 distinct keys.
    Futs.push_back(E.compileAsync("my add", Opts));
  }
  std::vector<Engine::KernelHandle> Handles;
  for (auto &F : Futs) {
    auto K = F.get();
    ASSERT_TRUE(K.hasValue()) << K.status().toString();
    Handles.push_back(*K);
  }
  // Duplicate seeds resolved to the same cached kernel.
  EXPECT_EQ(Handles[0], Handles[4]);
  EXPECT_NE(Handles[0], Handles[1]);
  EXPECT_EQ(E.size(), 4u);
  EXPECT_EQ(E.stats().Compiles, 4u);

  auto Out = Handles[0]->execute({{1, 2, 3, 4}, {10, 20, 30, 40}});
  ASSERT_TRUE(Out.hasValue());
  EXPECT_EQ(Out->Outputs, (std::vector<uint64_t>{11, 22, 33, 44}));
}

TEST(Engine, DestructionResolvesEveryPendingAsyncFuture) {
  // Futures returned by compileAsync may outlive the Engine; destruction
  // must leave each one resolved (value or error), never abandoned.
  KernelRegistry R = addRegistry();
  std::vector<std::future<Expected<Engine::KernelHandle>>> Futs;
  {
    EngineOptions EO{8, 1, bundledOptions()};
    EO.AsyncCompileThreads = 1;
    Engine E(EO, &R);
    for (int I = 0; I < 4; ++I) {
      CompileOptions Opts = bundledOptions();
      Opts.ExecutionSeed = static_cast<uint64_t>(I + 1);
      Futs.push_back(E.compileAsync("my add", Opts));
    }
  } // ~Engine: shuts the pool down after running queued tasks.
  for (auto &F : Futs) {
    ASSERT_TRUE(F.valid());
    auto K = F.get(); // Must not hang or throw broken_promise.
    if (K.hasValue())
      EXPECT_TRUE(*K != nullptr);
    else
      EXPECT_FALSE(K.status().ok());
  }
}

} // namespace
