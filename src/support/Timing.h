//===- support/Timing.h - Wall-clock timers ---------------------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small wall-clock timing helpers used by the latency profiler (which plays
/// the role of the paper's SEAL instruction profiling) and by the synthesis
/// engine's timeout logic.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_SUPPORT_TIMING_H
#define PORCUPINE_SUPPORT_TIMING_H

#include <algorithm>
#include <chrono>
#include <vector>

namespace porcupine {

/// A simple start/elapsed stopwatch.
class Stopwatch {
public:
  Stopwatch() { reset(); }

  /// Restarts the stopwatch.
  void reset();

  /// Returns seconds elapsed since construction or the last reset().
  double seconds() const;

  /// Returns microseconds elapsed since construction or the last reset().
  double micros() const;

private:
  std::chrono::steady_clock::time_point Start;
};

/// Median of \p Repeats wall-clock timings of \p Fn, in microseconds.
template <typename FnT> double medianMicros(int Repeats, FnT Fn) {
  std::vector<double> Times;
  Times.reserve(Repeats);
  for (int I = 0; I < Repeats; ++I) {
    Stopwatch W;
    Fn();
    Times.push_back(W.micros());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

} // namespace porcupine

#endif // PORCUPINE_SUPPORT_TIMING_H
