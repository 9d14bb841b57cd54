//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the benchmark's workloads. Each fills a Result with the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
/// and returns false only when an output check could not run at all —
/// wrong outputs and failed operations are counted in the Result instead.
///
///   compile  cold compiles: the synthesized set through CEGIS, the lowered
///            set through the .porc frontend and eqsat (plus the untimed
///            repeated-squaring noise probe);
///   run      closed loop of encrypted calls over warm Engine handles;
///   serve    open loop of requests into driver::Server at fixed rates.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_PERFBENCH_WORKLOADS_H
#define PORCUPINE_PERFBENCH_WORKLOADS_H

#include "Stats.h"
#include "Trace.h"

#include <vector>

namespace perfbench {

bool runCompileWorkload(const Options &O, Result &Res);
bool runRunWorkload(const Options &O, Result &Res);
bool runServeWorkload(const Options &O, Result &Res);

/// Runs \p Setup \p Times times and returns the median wall time in seconds
/// (the set-up metric). The callable keeps the last repetition's state.
template <typename FnT> double medianSetupSeconds(int Times, FnT Setup) {
  std::vector<double> Secs;
  for (int I = 0; I < Times; ++I) {
    Span S("bench", "setup");
    Setup();
    Secs.push_back(S.stop());
  }
  return median(Secs);
}

} // namespace perfbench

#endif // PORCUPINE_PERFBENCH_WORKLOADS_H
