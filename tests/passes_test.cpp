//===- tests/passes_test.cpp - Optimizer pipeline tests -------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// quill::PassManager and the shipped passes: golden before/after rewrites
/// for each pass, interpreter equivalence on randomized programs, the
/// pipeline-twice fixed-point property, Galois-key-set shrinkage under
/// rot-dedup, fingerprint sensitivity to the pipeline string, and the
/// acceptance bar: the default pipeline strictly reduces cost-model cost
/// on at least three bundled kernels and never increases it on any.
///
//===----------------------------------------------------------------------===//

#include "quill/Passes.h"

#include "driver/Driver.h"
#include "kernels/Kernels.h"
#include "quill/Analysis.h"
#include "quill/Interpreter.h"
#include "BfvSession.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

using namespace porcupine;
using namespace porcupine::quill;

namespace {

constexpr uint64_t T = 65537;

PassManagerOptions managerOptions(const Program &P, unsigned Seed = 7,
                                  int Examples = 3) {
  PassManagerOptions O;
  O.Context.PlainModulus = T;
  Rng R(Seed);
  for (int E = 0; E < Examples; ++E) {
    std::vector<SlotVector> Example;
    for (int I = 0; I < P.NumInputs; ++I)
      Example.push_back(R.vectorBelow(T, P.VectorSize));
    O.Examples.push_back(std::move(Example));
  }
  return O;
}

/// Runs one named pass (under a full manager, so verification and the cost
/// guard apply) and returns the stats record.
PassRunStats runPass(const std::string &Name, Program &P) {
  auto PM = PassManager::fromPipeline(Name, managerOptions(P));
  EXPECT_TRUE(PM.hasValue()) << PM.status().toString();
  auto Stats = PM->run(P);
  EXPECT_TRUE(Stats.hasValue()) << Stats.status().toString();
  EXPECT_EQ(Stats->Passes.size(), 1u);
  return Stats->Passes.front();
}

void expectSameBehavior(const Program &A, const Program &B, unsigned Seed) {
  ASSERT_EQ(A.NumInputs, B.NumInputs);
  Rng R(Seed);
  for (int Trial = 0; Trial < 16; ++Trial) {
    std::vector<SlotVector> Inputs;
    for (int I = 0; I < A.NumInputs; ++I)
      Inputs.push_back(R.vectorBelow(T, A.VectorSize));
    EXPECT_EQ(interpret(A, Inputs, T), interpret(B, Inputs, T))
        << "trial " << Trial;
  }
}

//===----------------------------------------------------------------------===//
// Pipeline parsing
//===----------------------------------------------------------------------===//

TEST(PassManager, ParsesTheDefaultPipeline) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  auto PM = PassManager::fromPipeline(defaultPipeline(), managerOptions(P));
  ASSERT_TRUE(PM.hasValue()) << PM.status().toString();
  EXPECT_EQ(PM->size(), 5u);
}

TEST(PassManager, EmptyPipelineIsValidAndDoesNothing) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  P.append(Instr::rot(0, 1));
  auto PM = PassManager::fromPipeline("", managerOptions(P));
  ASSERT_TRUE(PM.hasValue());
  EXPECT_EQ(PM->size(), 0u);
  std::string Before = printProgram(P);
  auto Stats = PM->run(P);
  ASSERT_TRUE(Stats.hasValue());
  EXPECT_TRUE(Stats->Passes.empty());
  EXPECT_EQ(printProgram(P), Before);
}

TEST(PassManager, RejectsUnknownAndEmptyPassNames) {
  PassManagerOptions O;
  EXPECT_FALSE(PassManager::fromPipeline("nope", O).hasValue());
  EXPECT_FALSE(PassManager::fromPipeline("cse,,peephole", O).hasValue());
  // Spaces around names are tolerated.
  EXPECT_TRUE(PassManager::fromPipeline("cse, peephole", O).hasValue());
}

TEST(PassManager, EveryKnownPassInstantiates) {
  for (const std::string &Name : knownPassNames()) {
    auto P = createPass(Name);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_EQ(P->name(), Name);
  }
  EXPECT_EQ(createPass("bogus"), nullptr);
}

//===----------------------------------------------------------------------===//
// cse
//===----------------------------------------------------------------------===//

TEST(CsePass, SharesIdenticalSubexpressionsIncludingCommutedOperands) {
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 4;
  int A = P.append(Instr::ctCt(Opcode::AddCtCt, 0, 1));
  int B = P.append(Instr::ctCt(Opcode::AddCtCt, 1, 0)); // Commuted dup.
  int M1 = P.append(Instr::ctCt(Opcode::MulCtCt, A, A));
  int M2 = P.append(Instr::ctCt(Opcode::MulCtCt, B, B)); // Dup after A==B.
  P.append(Instr::ctCt(Opcode::SubCtCt, M1, M2));
  Program Orig = P;

  PassRunStats S = runPass("cse", P);
  EXPECT_EQ(S.Rewrites, 2);
  EXPECT_EQ(P.Instructions.size(), 3u); // add, mul, sub.
  expectSameBehavior(Orig, P, 21);
}

TEST(CsePass, SubtractionOperandOrderIsRespected) {
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 4;
  int A = P.append(Instr::ctCt(Opcode::SubCtCt, 0, 1));
  int B = P.append(Instr::ctCt(Opcode::SubCtCt, 1, 0)); // NOT a dup.
  P.append(Instr::ctCt(Opcode::AddCtCt, A, B));
  Program Orig = P;
  PassRunStats S = runPass("cse", P);
  EXPECT_EQ(S.Rewrites, 0);
  EXPECT_EQ(printProgram(P), printProgram(Orig));
}

//===----------------------------------------------------------------------===//
// constfold
//===----------------------------------------------------------------------===//

TEST(ConstFoldPass, FoldsIdentitiesAndSplatChains) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  int Zero = P.internConstant(PlainConstant{{0}});
  int One = P.internConstant(PlainConstant{{1}});
  int Three = P.internConstant(PlainConstant{{3}});
  int Five = P.internConstant(PlainConstant{{5}});
  int A = P.append(Instr::ctPt(Opcode::AddCtPt, 0, Zero));   // x + 0 -> x
  int B = P.append(Instr::ctPt(Opcode::MulCtPt, A, One));    // x * 1 -> x
  int C = P.append(Instr::ctPt(Opcode::AddCtPt, B, Three));  // x + 3
  int D = P.append(Instr::ctPt(Opcode::SubCtPt, C, Five));   // - 5 -> x - 2
  P.append(Instr::ctCt(Opcode::AddCtCt, D, D));
  Program Orig = P;

  PassRunStats S = runPass("constfold", P);
  EXPECT_GE(S.Rewrites, 3);
  // One folded ct-pt op (net -2 splat) and the final add remain.
  EXPECT_EQ(P.Instructions.size(), 2u);
  expectSameBehavior(Orig, P, 22);
  // Orphaned constants are compacted away.
  EXPECT_EQ(P.Constants.size(), 1u);
}

TEST(ConstFoldPass, FusesRawDoubleRotationsAndCancelsInverses) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 3));
  int B = P.append(Instr::rot(A, -3)); // Cancels at any width.
  int C = P.append(Instr::rot(B, 2));
  int D = P.append(Instr::rot(C, 1)); // Fuses to rot 3 at any width.
  P.append(Instr::ctCt(Opcode::AddCtCt, D, 0));
  Program Orig = P;

  PassRunStats S = runPass("constfold", P);
  EXPECT_GE(S.Rewrites, 2);
  EXPECT_EQ(countInstructions(P).Rotations, 1);
  expectSameBehavior(Orig, P, 23);
}

TEST(ConstFoldPass, LeavesWidthCyclicFusionToThePeephole) {
  // rot(rot(x,3),5) at width 8 sums to 8 — identity only under the
  // width-8-cyclic model, not on a wider ciphertext row. constfold must
  // leave it; peephole (the paper's model) folds it.
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 3));
  int B = P.append(Instr::rot(A, 5));
  P.append(Instr::ctCt(Opcode::AddCtCt, B, 0));

  Program ForFold = P;
  PassRunStats S = runPass("constfold", ForFold);
  EXPECT_EQ(S.Rewrites, 0);

  Program ForPeephole = P;
  PassRunStats S2 = runPass("peephole", ForPeephole);
  EXPECT_GT(S2.Rewrites, 0);
  EXPECT_EQ(countInstructions(ForPeephole).Rotations, 0);
}

TEST(ConstFoldPass, MulByZeroSplatBecomesCanonicalZero) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  int Zero = P.internConstant(PlainConstant{{0}});
  P.append(Instr::ctPt(Opcode::MulCtPt, 0, Zero));
  Program Orig = P;
  PassRunStats S = runPass("constfold", P);
  EXPECT_GE(S.Rewrites, 1);
  EXPECT_EQ(countInstructions(P).CtPtMuls, 0);
  expectSameBehavior(Orig, P, 24);
}

//===----------------------------------------------------------------------===//
// lazy-relin
//===----------------------------------------------------------------------===//

TEST(LazyRelinPass, ElidesRelinWhenOnlyAddsConsumeTheProduct) {
  // add(mul(a,b), mul(c,d)): both relins elided, output stays degree 3.
  Program P;
  P.NumInputs = 4;
  P.VectorSize = 4;
  int M1 = P.append(Instr::ctCt(Opcode::MulCtCt, 0, 1));
  int M2 = P.append(Instr::ctCt(Opcode::MulCtCt, 2, 3));
  P.append(Instr::ctCt(Opcode::AddCtCt, M1, M2));
  Program Orig = P;

  PassRunStats S = runPass("lazy-relin", P);
  EXPECT_EQ(S.Rewrites, 2);
  EXPECT_EQ(S.RelinsDeferred, 2);
  EXPECT_TRUE(P.ExplicitRelin);
  EXPECT_EQ(countInstructions(P).Relins, 0);
  EXPECT_EQ(P.validate(), "");
  expectSameBehavior(Orig, P, 25);
}

TEST(LazyRelinPass, SinksTheRelinPastTheReductionAdd) {
  // In add(mul, rot(relin(mul))) shaped reductions the single forced relin
  // must serve both consumers (the naive greedy placement would emit two).
  Program P = kernels::varianceKernel().Synthesized;
  Program Orig = P;
  PassRunStats S = runPass("lazy-relin", P);
  EXPECT_EQ(S.RelinsDeferred, 1);
  EXPECT_TRUE(P.ExplicitRelin);
  EXPECT_EQ(countInstructions(P).Relins, 1);
  EXPECT_EQ(countInstructions(P).CtCtMuls, 2);
  EXPECT_EQ(P.validate(), "");
  expectSameBehavior(Orig, P, 26);
}

TEST(LazyRelinPass, LeavesProgramsWithNoSavingsInImplicitForm) {
  // Dot product's single mul feeds a rotation: the relin cannot move, so
  // the program must stay byte-identical implicit (no representation
  // churn for a zero-cost win).
  Program P = kernels::dotProductKernel().Synthesized;
  Program Orig = P;
  PassRunStats S = runPass("lazy-relin", P);
  EXPECT_EQ(S.Rewrites, 0);
  EXPECT_FALSE(P.ExplicitRelin);
  EXPECT_EQ(printProgram(P), printProgram(Orig));
}

TEST(LazyRelinPass, ReplacesEagerRelinsInExplicitPrograms) {
  // An explicit program with a relin after every mul: re-analysis elides
  // the removable one.
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 4;
  P.ExplicitRelin = true;
  int M1 = P.append(Instr::ctCt(Opcode::MulCtCt, 0, 1));
  Instr R1;
  R1.Op = Opcode::Relin;
  R1.Src0 = M1;
  int RL = P.append(R1);
  P.append(Instr::ctCt(Opcode::AddCtCt, RL, 0));
  ASSERT_EQ(P.validate(), "");
  Program Orig = P;

  PassRunStats S = runPass("lazy-relin", P);
  EXPECT_GT(S.Rewrites, 0);
  EXPECT_EQ(countInstructions(P).Relins, 0);
  expectSameBehavior(Orig, P, 27);
}

TEST(LazyRelinPass, NeverReplacesABetterHandScheduledPlacement) {
  // One relin on the shared product serves both adds; the pass's
  // consumer-demand analysis would place two (one per rotated sum). It
  // must recognize the input is better and leave it byte-identical.
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 4;
  P.ExplicitRelin = true;
  int M = P.append(Instr::ctCt(Opcode::MulCtCt, 0, 1));
  Instr R;
  R.Op = Opcode::Relin;
  R.Src0 = M;
  int MR = P.append(R);
  int S1 = P.append(Instr::ctCt(Opcode::AddCtCt, MR, 0));
  int S2 = P.append(Instr::ctCt(Opcode::AddCtCt, MR, 1));
  int R1 = P.append(Instr::rot(S1, 1));
  int R2 = P.append(Instr::rot(S2, 2));
  P.append(Instr::ctCt(Opcode::AddCtCt, R1, R2));
  ASSERT_EQ(P.validate(), "");
  std::string Before = printProgram(P);

  PassRunStats S = runPass("lazy-relin", P);
  EXPECT_EQ(S.Rewrites, 0);
  EXPECT_EQ(printProgram(P), Before);
}

TEST(LazyRelinPass, ExplicitProgramsExecuteEncryptedCorrectly) {
  // The optimized explicit form must agree with the implicit original
  // under real BFV execution, not just the interpreter (three-component
  // intermediates and output included).
  Program Implicit;
  Implicit.NumInputs = 2;
  Implicit.VectorSize = 4;
  int M1 = Implicit.append(Instr::ctCt(Opcode::MulCtCt, 0, 1));
  int M2 = Implicit.append(Instr::ctCt(Opcode::MulCtCt, 0, 0));
  Implicit.append(Instr::ctCt(Opcode::AddCtCt, M1, M2));

  Program Explicit = Implicit;
  PassRunStats S = runPass("lazy-relin", Explicit);
  EXPECT_EQ(S.RelinsDeferred, 2);

  auto Exec = openBfvSession({&Implicit, &Explicit}, /*Seed=*/5);
  std::vector<uint64_t> A{3, 1, 4, 1}, B{2, 7, 1, 8};
  for (const Program *P : {&Implicit, &Explicit}) {
    backend::Value Out =
        *Exec->run(*P, {*Exec->encrypt(A), *Exec->encrypt(B)});
    EXPECT_GT(Exec->noiseBudget(Out), 0.0) << P->ExplicitRelin;
    auto Got = Exec->decrypt(Out, 4);
    EXPECT_EQ(Got, (std::vector<uint64_t>{3 * 2 + 9, 7 + 1, 4 + 16,
                                          8 + 1}))
        << "explicit=" << P->ExplicitRelin;
  }
}

//===----------------------------------------------------------------------===//
// rot-dedup
//===----------------------------------------------------------------------===//

TEST(RotDedupPass, SharesIdenticalRotationsAndShrinksTheKeySet) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 2));
  int B = P.append(Instr::rot(0, 2)); // Exact duplicate.
  int S1 = P.append(Instr::ctCt(Opcode::AddCtCt, A, 0));
  P.append(Instr::ctCt(Opcode::AddCtCt, S1, B));
  Program Orig = P;

  PassRunStats St = runPass("rot-dedup", P);
  EXPECT_EQ(St.Rewrites, 1);
  EXPECT_EQ(St.RotationsEliminated, 1);
  EXPECT_EQ(countInstructions(P).Rotations, 1);
  expectSameBehavior(Orig, P, 28);
}

TEST(RotDedupPass, HoistsSharedAmountRotationsThroughAdds) {
  // add(rot(x,3), rot(y,3)) -> rot(add(x,y), 3): one rotation instead of
  // two, and the rewrite is exact at every vector width.
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 3));
  int B = P.append(Instr::rot(1, 3));
  P.append(Instr::ctCt(Opcode::AddCtCt, A, B));
  Program Orig = P;

  PassRunStats St = runPass("rot-dedup", P);
  EXPECT_EQ(St.Rewrites, 1);
  EXPECT_EQ(countInstructions(P).Rotations, 1);
  EXPECT_EQ(P.Instructions.size(), 2u);
  expectSameBehavior(Orig, P, 29);

  // The Galois key set shrank with the instruction count.
  EXPECT_EQ(requiredRotations(P), requiredRotations(Orig));
  EXPECT_EQ(requiredRotations(P).size(), 1u);
}

TEST(RotDedupPass, KeySetShrinksWhenDedupRemovesTheLastUseOfAnAmount) {
  // Two hoistable pairs at different amounts collapse to two rotations;
  // with CSE-style sharing a duplicated amount disappears from
  // requiredRotations() entirely.
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 5));
  int B = P.append(Instr::rot(0, 5));
  int S1 = P.append(Instr::ctCt(Opcode::AddCtCt, A, 1));
  int S2 = P.append(Instr::ctCt(Opcode::AddCtCt, B, S1));
  int C = P.append(Instr::rot(S2, 1));
  int D = P.append(Instr::rot(S1, 1));
  P.append(Instr::ctCt(Opcode::SubCtCt, C, D));
  Program Orig = P;
  ASSERT_EQ(requiredRotations(Orig).size(), 2u);

  PassRunStats St = runPass("rot-dedup", P);
  EXPECT_GE(St.Rewrites, 1);
  EXPECT_LT(countInstructions(P).Rotations,
            countInstructions(Orig).Rotations);
  expectSameBehavior(Orig, P, 30);
}

TEST(RotDedupPass, DoesNotHoistMultiUseRotations) {
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 8;
  int A = P.append(Instr::rot(0, 3));
  int B = P.append(Instr::rot(1, 3));
  int S = P.append(Instr::ctCt(Opcode::AddCtCt, A, B));
  P.append(Instr::ctCt(Opcode::AddCtCt, S, A)); // A used twice.
  Program Orig = P;
  PassRunStats St = runPass("rot-dedup", P);
  EXPECT_EQ(St.Rewrites, 0);
  EXPECT_EQ(printProgram(P), printProgram(Orig));
}

//===----------------------------------------------------------------------===//
// Manager behavior: verification, cost guard, stats
//===----------------------------------------------------------------------===//

TEST(PassManager, PerPassStatsCarryCostsAndDeltas) {
  Program P = kernels::varianceKernel().Synthesized;
  auto PM = PassManager::fromPipeline(defaultPipeline(), managerOptions(P));
  ASSERT_TRUE(PM.hasValue());
  auto Stats = PM->run(P);
  ASSERT_TRUE(Stats.hasValue()) << Stats.status().toString();
  ASSERT_EQ(Stats->Passes.size(), 5u);
  for (const PassRunStats &S : Stats->Passes) {
    EXPECT_LE(S.CostAfter, S.CostBefore) << S.Pass;
    EXPECT_FALSE(S.Reverted) << S.Pass;
  }
  EXPECT_LT(Stats->costAfter(), Stats->costBefore());
  EXPECT_GT(Stats->totalRewrites(), 0);
}

/// A deliberately bad pass: appends a cancelling rotation pair after the
/// output. Semantics-preserving (the verifier must accept it) but strictly
/// more expensive — the manager's cost guard must revert it.
class PessimizingPass : public Pass {
public:
  const char *name() const override { return "pessimize"; }
  int run(Program &P, const PassContext &) override {
    int A = P.append(Instr::rot(P.outputId(), 1));
    P.Output = P.append(Instr::rot(A, -1));
    return 1;
  }
};

/// A broken pass: rewrites a rotation amount, silently changing behavior.
/// The manager's interpreter verification must fail the run.
class MiscompilingPass : public Pass {
public:
  const char *name() const override { return "miscompile"; }
  int run(Program &P, const PassContext &) override {
    for (Instr &I : P.Instructions)
      if (I.Op == Opcode::RotCt) {
        I.Rot = I.Rot == 1 ? 2 : 1;
        return 1;
      }
    return 0;
  }
};

TEST(PassManager, RevertsCostIncreasingRewrites) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  P.append(Instr::ctCt(Opcode::AddCtCt, 0, 0));
  std::string Before = printProgram(P);

  PassManager PM(managerOptions(P));
  PM.add(std::make_unique<PessimizingPass>());
  auto Stats = PM.run(P);
  ASSERT_TRUE(Stats.hasValue()) << Stats.status().toString();
  ASSERT_EQ(Stats->Passes.size(), 1u);
  EXPECT_TRUE(Stats->Passes.front().Reverted);
  EXPECT_GT(Stats->Passes.front().RejectedCost,
            Stats->Passes.front().CostBefore);
  EXPECT_EQ(Stats->Passes.front().CostAfter,
            Stats->Passes.front().CostBefore);
  EXPECT_EQ(Stats->totalRewrites(), 0); // Reverted work does not count.
  EXPECT_EQ(printProgram(P), Before);   // Program restored.
}

TEST(PassManager, FailsTheRunWhenAPassChangesBehavior) {
  Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  int A = P.append(Instr::rot(0, 1));
  P.append(Instr::ctCt(Opcode::AddCtCt, A, 0));
  std::string Before = printProgram(P);

  PassManager PM(managerOptions(P));
  PM.add(std::make_unique<MiscompilingPass>());
  auto Stats = PM.run(P);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.status().toString().find("changed program behavior"),
            std::string::npos);
  // Contract: on failure P is left at its last verified state.
  EXPECT_EQ(printProgram(P), Before);
}

TEST(PassManager, FailsOnShapeMismatchedExamples) {
  Program P;
  P.NumInputs = 2;
  P.VectorSize = 4;
  P.append(Instr::ctCt(Opcode::AddCtCt, 0, 1));
  PassManagerOptions O;
  O.Examples.push_back({SlotVector{1, 2, 3, 4}}); // Only one input vector.
  auto PM = PassManager::fromPipeline("cse", O);
  ASSERT_TRUE(PM.hasValue());
  EXPECT_FALSE(PM->run(P).hasValue());
}

//===----------------------------------------------------------------------===//
// Idempotence / fixed point (PORCUPINE_TEST_SEED-driven)
//===----------------------------------------------------------------------===//

/// Random straight-line program over the full opcode set (implicit form).
Program randomProgram(Rng &R, int NumInputs, size_t Width, int Len) {
  Program P;
  P.NumInputs = NumInputs;
  P.VectorSize = Width;
  int Zero = P.internConstant(PlainConstant{{0}});
  int One = P.internConstant(PlainConstant{{1}});
  int Two = P.internConstant(PlainConstant{{2}});
  int Five = P.internConstant(PlainConstant{{5}});
  for (int K = 0; K < Len; ++K) {
    int NumVals = P.numValues();
    int A = static_cast<int>(R.below(NumVals));
    int B = static_cast<int>(R.below(NumVals));
    switch (R.below(8)) {
    case 0:
      P.append(Instr::ctCt(Opcode::AddCtCt, A, B));
      break;
    case 1:
      P.append(Instr::ctCt(Opcode::SubCtCt, A, B));
      break;
    case 2:
      P.append(Instr::ctCt(Opcode::MulCtCt, A, B));
      break;
    case 3:
      P.append(Instr::rot(A, 1 + static_cast<int>(R.below(Width - 1))));
      break;
    case 4:
      P.append(Instr::ctPt(Opcode::AddCtPt, A, Zero));
      break;
    case 5:
      P.append(Instr::ctPt(Opcode::MulCtPt, A, One));
      break;
    case 6:
      P.append(Instr::ctPt(Opcode::MulCtPt, A, Two));
      break;
    case 7:
      P.append(Instr::ctPt(Opcode::AddCtPt, A, Five));
      break;
    }
  }
  return P;
}

TEST(PipelineFixedPoint, RunningAnyPipelineTwiceIsANoOp) {
  const uint64_t Seed = testSeed(8100);
  SeedReporter Reporter(Seed);
  Rng R(Seed);
  const std::string Pipelines[] = {
      defaultPipeline(), "cse", "constfold", "lazy-relin", "rot-dedup",
      "peephole",        "rot-dedup,lazy-relin,cse"};
  for (int Trial = 0; Trial < 12; ++Trial) {
    Program P = randomProgram(R, 2, 6, 10);
    for (const std::string &Pipe : Pipelines) {
      Program Once = P;
      auto PM1 =
          PassManager::fromPipeline(Pipe, managerOptions(P, 900 + Trial));
      ASSERT_TRUE(PM1.hasValue());
      auto S1 = PM1->run(Once);
      ASSERT_TRUE(S1.hasValue())
          << Pipe << ": " << S1.status().toString();

      Program Twice = Once;
      auto PM2 =
          PassManager::fromPipeline(Pipe, managerOptions(P, 900 + Trial));
      auto S2 = PM2->run(Twice);
      ASSERT_TRUE(S2.hasValue())
          << Pipe << ": " << S2.status().toString();
      EXPECT_EQ(printProgram(Once), printProgram(Twice))
          << "pipeline '" << Pipe << "' is not idempotent (trial " << Trial
          << ")";
      EXPECT_EQ(S2->totalRewrites(), 0)
          << "pipeline '" << Pipe << "' reported rewrites on its own "
          << "output (trial " << Trial << ")";
    }
  }
}

TEST(PipelinePreservesSemantics, OnRandomProgramsUnderTheDefaultPipeline) {
  const uint64_t Seed = testSeed(8200);
  SeedReporter Reporter(Seed);
  Rng R(Seed);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Program P = randomProgram(R, 2, 8, 12);
    Program Opt = P;
    auto PM = PassManager::fromPipeline(defaultPipeline(),
                                        managerOptions(P, 7700 + Trial));
    ASSERT_TRUE(PM.hasValue());
    auto Stats = PM->run(Opt);
    ASSERT_TRUE(Stats.hasValue()) << Stats.status().toString();
    EXPECT_EQ(Opt.validate(), "");
    expectSameBehavior(P, Opt, 7800 + Trial);
    // And the pipeline never raises cost.
    CostModel Cost;
    EXPECT_LE(Cost.cost(Opt), Cost.cost(P) + 1e-9) << "trial " << Trial;
  }
}

//===----------------------------------------------------------------------===//
// Fingerprints and the acceptance bar over the bundled kernels
//===----------------------------------------------------------------------===//

TEST(PipelineFingerprint, PipelineStringChangesCompileFingerprint) {
  driver::CompileOptions A;
  driver::CompileOptions B;
  B.Pipeline = "peephole";
  driver::CompileOptions C;
  C.Pipeline = "";
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  EXPECT_NE(A.fingerprint(), C.fingerprint());
  EXPECT_NE(B.fingerprint(), C.fingerprint());
  EXPECT_NE(driver::compileFingerprint("dot product", A),
            driver::compileFingerprint("dot product", B));
}

TEST(Acceptance, DefaultPipelineNeverRaisesAndStrictlyImprovesThreeKernels) {
  // The acceptance bar for the optimizer: over every bundled program
  // (synthesized and baseline), the default pipeline never increases
  // cost-model cost, reproduces interpreter behavior exactly, and
  // strictly reduces cost on at least three distinct kernels.
  CostModel Cost;
  int KernelsImproved = 0;
  for (const auto &B : kernels::allKernels()) {
    bool Improved = false;
    for (const Program *Prog : {&B.Synthesized, &B.Baseline}) {
      if (Prog->Instructions.empty())
        continue;
      Program Opt = *Prog;
      auto PM = PassManager::fromPipeline(defaultPipeline(),
                                          managerOptions(*Prog, 31));
      ASSERT_TRUE(PM.hasValue());
      auto Stats = PM->run(Opt);
      ASSERT_TRUE(Stats.hasValue())
          << B.Spec.name() << ": " << Stats.status().toString();
      EXPECT_EQ(Opt.validate(), "") << B.Spec.name();
      expectSameBehavior(*Prog, Opt, 3100 + KernelsImproved);
      double CostBefore = Cost.cost(*Prog);
      double CostAfter = Cost.cost(Opt);
      EXPECT_LE(CostAfter, CostBefore + 1e-9) << B.Spec.name();
      if (CostAfter < CostBefore - 1e-9 && Prog == &B.Synthesized)
        Improved = true;
    }
    if (Improved)
      ++KernelsImproved;
  }
  EXPECT_GE(KernelsImproved, 3)
      << "the default pipeline must strictly reduce cost on at least "
         "three bundled kernels (lazy relinearization on polynomial "
         "regression, Roberts cross, and variance)";
}

} // namespace
