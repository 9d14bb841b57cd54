//===- synth/Synthesizer.h - CEGIS synthesis engine -------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Porcupine's synthesis engine (paper section 5 / Algorithm 1):
///
///   1. Iterative deepening on the component count L: try sketches of
///      1, 2, ... components, so the first solution minimizes L.
///   2. CEGIS: synthesize a candidate agreeing with the current
///      input-output examples, verify it symbolically against the lifted
///      spec, and on failure add the counterexample and retry.
///   3. Optimization: once an initial solution exists, repeatedly re-search
///      the same sketch under the constraint cost(candidate) < cost(best)
///      until the space is exhausted (optimality proof) or timeout; cost is
///      latency * (1 + multiplicative depth).
///
/// Where the paper compiles these queries to SMT (Rosette/Boolector), this
/// reproduction solves them with a pruned enumerative search: operand
/// symmetry breaking, observational-equivalence deduplication on examples,
/// dead-value bounds, and cheapest-first ordering. Verification is exact
/// polynomial identity (spec/Equivalence.h).
///
/// Parallel portfolio search: every solve query (one sketch size L, one
/// example set, one cost bound) is embarrassingly parallel across the
/// candidate space, so with Threads > 1 the query is split at a shallow
/// prefix depth into independent candidate subtrees that run on a
/// support::ThreadPool. The winner is chosen by a deterministic tie-break
/// — the lowest candidate (prefix) index that contains a solution, which
/// is exactly the candidate the sequential search would have reached first
/// — and cooperative cancellation (support/Cancellation.h-style stop
/// flags) stops every worker exploring a higher-indexed subtree. Because
/// the cost-minimization phase already orders queries by strictly
/// decreasing cost bound, this tie-break makes the synthesized program
/// byte-identical for every thread count and every thread schedule;
/// threading changes only how fast the answer arrives (and, under timeout
/// pressure, how much of the space gets covered before the deadline).
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_SYNTH_SYNTHESIZER_H
#define PORCUPINE_SYNTH_SYNTHESIZER_H

#include "quill/CostModel.h"
#include "quill/Program.h"
#include "spec/KernelSpec.h"
#include "synth/Sketch.h"

#include <cstdint>
#include <vector>

namespace porcupine {
namespace synth {

/// Tunables for a synthesis run.
struct SynthesisOptions {
  /// Smallest and largest component counts to try.
  int MinComponents = 1;
  int MaxComponents = 8;
  /// Wall-clock budget for the whole run (initial + optimization).
  double TimeoutSeconds = 120.0;
  /// Whether to run the cost-minimization phase after the first solution.
  bool Optimize = true;
  /// Instruction latencies for the cost function.
  quill::LatencyTable Latency;
  /// Plaintext modulus the kernel computes over.
  uint64_t PlainModulus = 65537;
  /// PRNG seed (examples, counterexample sampling).
  uint64_t Seed = 1;
  /// Worker threads for the portfolio search: 0 = one per hardware thread,
  /// 1 = the exact sequential code path, N > 1 = N pool workers. The
  /// synthesized program is byte-identical for every value (deterministic
  /// lowest-candidate-index tie-break), so this is purely a speed knob.
  int Threads = 0;
};

/// Measurements the paper reports in Table 3.
struct SynthesisStats {
  int ExamplesUsed = 0;
  double InitialTimeSeconds = 0.0;
  double TotalTimeSeconds = 0.0;
  double InitialCost = 0.0;
  double FinalCost = 0.0;
  /// L of the solution sketch.
  int ComponentsUsed = 0;
  /// Instruction count of the lowered program (components + rotations).
  int LoweredInstructions = 0;
  bool TimedOut = false;
  /// True when the optimizer exhausted the sketch (solution proven optimal
  /// under the cost model within this sketch).
  bool ProvenOptimal = false;
  /// Search nodes in the subtrees that decided each query's answer. For
  /// fixed options and seed this is the same under every thread schedule
  /// (runs cut short by the timeout excepted).
  long NodesExplored = 0;
  /// Portfolio work spent in subtrees that a lower-indexed solution
  /// outran. Where those workers notice the cancellation depends on the
  /// schedule, so this count varies from run to run; 0 with Threads == 1.
  long NodesDiscarded = 0;

  // Parallel-search accounting (PR 4). ThreadsUsed is the resolved worker
  // count (1 when synthesis never ran the portfolio path); NodesPerThread
  // has one entry per worker and sums to NodesExplored + NodesDiscarded;
  // CpuTimeSeconds is process CPU time across all workers, so
  // CpuTimeSeconds / TotalTimeSeconds approximates the achieved parallel
  // speedup.
  int ThreadsUsed = 1;
  std::vector<long> NodesPerThread;
  double CpuTimeSeconds = 0.0;
};

/// Outcome of a synthesis run.
struct SynthesisResult {
  bool Found = false;
  quill::Program Prog;
  SynthesisStats Stats;
};

/// Runs the full pipeline (deepening + CEGIS + optimization) for \p Spec
/// against \p Sk.
SynthesisResult synthesize(const KernelSpec &Spec, const Sketch &Sk,
                           const SynthesisOptions &Opts);

} // namespace synth
} // namespace porcupine

#endif // PORCUPINE_SYNTH_SYNTHESIZER_H
