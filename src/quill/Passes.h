//===- quill/Passes.h - Optimizer pass pipeline -----------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// quill::PassManager: a named, ordered, composable rewrite pipeline over
/// Quill programs, in the shape HECO structures its IR passes. Every pass
/// is a semantics-preserving rewrite; the manager re-runs the Interpreter
/// on caller-supplied examples after each pass (any mismatch is reported as
/// a hard error — it means a compiler bug, not bad input) and reverts any
/// pass whose rewrite increases CostModel cost, so a pipeline can never
/// make a program worse under the paper's cost function.
///
/// Shipped passes (pipeline-string names):
///
///   peephole   The original rewrite-rule optimizer (Peephole.h) as pass
///              number zero: rotation fusion/CSE, identity folds, strength
///              reduction, dead-code elimination.
///   cse        Global common-subexpression elimination by value numbering
///              (commutative operands normalized).
///   constfold  Constant folding and identity simplification: x+0, x-0,
///              x*1, x*0, rotate-by-0, raw double-rotation fusion, and
///              splat constant-chain folding mod t.
///   lazy-relin EVA-style lazy relinearization: converts to explicit-relin
///              form (Program::ExplicitRelin), sinking each mul-ct-ct's
///              relinearization to the first consumer that needs a
///              two-component ciphertext, sharing it between consumers,
///              and eliding it entirely when no rotation or multiply (or
///              anything besides add/sub/ct-pt ops and the output)
///              consumes the product.
///   rot-dedup  Rotation deduplication and hoisting: shares identical
///              rotations and rewrites op(rot(x,a), rot(y,a)) into
///              rot(op(x,y), a), shrinking both the instruction stream and
///              the Galois key set requiredRotations() reports.
///   eqsat      Equality-saturation superoptimizer (src/quill/eqsat/): all
///              of the above axioms as an e-graph saturation instead of
///              greedy ordered rewrites, extracted by CostModel with a
///              relin-aware scoring term. Budgeted via PassContext::EqSat;
///              commits only strict cost improvements. Not in the default
///              pipeline — opt in with "...,eqsat".
///
/// All passes are deterministic and idempotent (a second run returns 0
/// rewrites), so any pipeline is a no-op on its own output; eqsat is
/// idempotent whenever its budgets let saturation reach a fixpoint (the
/// defaults do on every bundled kernel — a budget-stopped run may still
/// find more on a rerun). Unlike the width-W-cyclic peephole and eqsat,
/// the four other passes only apply rewrites that are also exact on wider
/// ciphertext rows (width portability).
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_QUILL_PASSES_H
#define PORCUPINE_QUILL_PASSES_H

#include "quill/CostModel.h"
#include "quill/Interpreter.h"
#include "quill/Program.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <vector>

namespace porcupine {
namespace quill {

/// Budgets bounding the `eqsat` pass's saturation loop (src/quill/eqsat/).
/// Defined here rather than in the eqsat headers so PassContext and
/// driver::CompileOptions can carry them without a layering cycle. The
/// defaults do not saturate every bundled kernel: Variance, Conv2D,
/// Perceptron and Group-By stop at the MaxNodes cap.
struct EqSatBudgets {
  /// Maximum saturation iterations (full rule sweeps). <= 0 makes the
  /// pass a no-op.
  int MaxIterations = 8;
  /// Stop once the e-graph holds this many live e-nodes. Enforced both
  /// between sweeps and *inside* a sweep (wide programs with many
  /// distinct rotations can blow past any between-sweep check within one
  /// sweep), so it bounds work as well as memory. 40000 is the smallest
  /// power-of-two-ish budget at which the variance kernel still discovers
  /// its strength-reduction mult-depth win.
  int MaxNodes = 40000;
  /// Wall-clock budget in milliseconds, checked between iterations.
  /// <= 0 (the default) disables the clock entirely: saturation is then
  /// bounded by iterations/nodes only and the extracted program is
  /// byte-identical across runs, hosts, and thread counts. Accordingly
  /// CompileOptions::canonicalKey() fingerprints this field only when it
  /// is armed (> 0) — the same rule that keeps Synthesis.Threads out of
  /// compile-cache keys.
  double TimeBudgetMs = 0.0;
};

/// Everything a pass may consult besides the program itself.
struct PassContext {
  /// Prices rewrite decisions (e.g. strength reduction) and the manager's
  /// cost-monotonicity guard.
  LatencyTable Latency;
  /// Plaintext modulus for constant folding and example verification.
  uint64_t PlainModulus = 65537;
  /// Saturation budgets for the `eqsat` pass (ignored by the others).
  EqSatBudgets EqSat;
};

struct PassRunStats;

/// One rewrite pass. Implementations must be deterministic, idempotent,
/// and semantics-preserving under the Interpreter.
class Pass {
public:
  virtual ~Pass() = default;
  virtual const char *name() const = 0;
  /// Rewrites \p P in place; returns the number of rule applications
  /// (0 means \p P was left untouched).
  virtual int run(Program &P, const PassContext &Ctx) = 0;
  /// Called by the manager right after run() so a pass can surface
  /// pass-specific statistics (the eqsat pass reports its saturation
  /// state here — even when it commits nothing). Default: no extra stats.
  virtual void annotateStats(PassRunStats &S) const { (void)S; }
};

/// The default pipeline string driver::CompileOptions ships with.
const char *defaultPipeline();

/// Names createPass() accepts, in default-pipeline order.
std::vector<std::string> knownPassNames();

/// Instantiates a pass by pipeline-string name; nullptr if unknown.
std::unique_ptr<Pass> createPass(const std::string &Name);

/// What one pass did to the program.
struct PassRunStats {
  std::string Pass;
  /// Rule applications the pass reported (0 = program untouched).
  int Rewrites = 0;
  /// Net instruction-count delta (negative when a pass adds instructions,
  /// e.g. lazy-relin materializing an explicit relin it could not elide).
  int InstructionsRemoved = 0;
  /// Net rotation-count delta.
  int RotationsEliminated = 0;
  /// Net relinearization delta: implicit programs relinearize once per
  /// mul-ct-ct, explicit programs once per Relin instruction.
  int RelinsDeferred = 0;
  /// CostModel cost around the pass (CostAfter == CostBefore when nothing
  /// changed or the change was reverted).
  double CostBefore = 0.0;
  double CostAfter = 0.0;
  /// True when the rewrite increased cost and the manager restored the
  /// pre-pass program (RejectedCost holds the increase for diagnostics).
  bool Reverted = false;
  double RejectedCost = 0.0;
  /// Saturation statistics, filled via Pass::annotateStats() by the eqsat
  /// pass only (HasEqSat marks presence; all zero for the classical
  /// passes). Reported even when the pass commits no rewrite, so tooling
  /// can tell "saturated, nothing cheaper" from "budget-stopped".
  bool HasEqSat = false;
  int EqSatIterations = 0;
  int EqSatClasses = 0;
  int EqSatNodes = 0;
  /// True when the rule set reached a fixpoint within the budgets; false
  /// when an iteration/node/time budget stopped saturation early.
  bool EqSatSaturated = false;
};

/// Per-pass statistics for one pipeline run.
struct PipelineStats {
  std::vector<PassRunStats> Passes;

  int totalRewrites() const {
    int N = 0;
    for (const PassRunStats &S : Passes)
      N += S.Reverted ? 0 : S.Rewrites;
    return N;
  }
  double costBefore() const {
    return Passes.empty() ? 0.0 : Passes.front().CostBefore;
  }
  double costAfter() const {
    return Passes.empty() ? 0.0 : Passes.back().CostAfter;
  }
};

/// PassManager configuration.
struct PassManagerOptions {
  PassContext Context;
  /// Verification inputs: each entry is one full input set (NumInputs
  /// vectors of the program's VectorSize). After every pass the manager
  /// re-interprets the program on each example and fails the run on any
  /// output mismatch. Empty disables verification.
  std::vector<std::vector<SlotVector>> Examples;
  /// Revert (rather than fail) any pass whose result costs more than its
  /// input under Context.Latency.
  bool RevertCostIncreases = true;
};

/// An ordered pass pipeline. Movable, not copyable (owns the passes).
class PassManager {
public:
  explicit PassManager(PassManagerOptions Opts) : Opts(std::move(Opts)) {}
  PassManager(PassManager &&) = default;
  PassManager &operator=(PassManager &&) = default;

  /// Builds a manager from a comma-separated pipeline string, e.g.
  /// "peephole,cse,constfold,lazy-relin,rot-dedup" (defaultPipeline()).
  /// An empty string is a valid empty pipeline; unknown or empty segment
  /// names are errors.
  static Expected<PassManager> fromPipeline(const std::string &Pipeline,
                                            PassManagerOptions Opts);

  void add(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }
  size_t size() const { return Passes.size(); }

  const PassManagerOptions &options() const { return Opts; }

  /// Runs the pipeline over \p P in place. Fails (leaving \p P in its last
  /// verified state) if a pass emits an invalid program or changes the
  /// program's behavior on any verification example.
  Expected<PipelineStats> run(Program &P);

private:
  PassManagerOptions Opts;
  std::vector<std::unique_ptr<Pass>> Passes;
};

} // namespace quill
} // namespace porcupine

#endif // PORCUPINE_QUILL_PASSES_H
