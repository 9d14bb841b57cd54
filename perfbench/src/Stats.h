//===- perfbench/src/Stats.h - Sample statistics and results ----*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics over timing samples, and the per-run Result every
/// workload fills in: the reported metrics, the operation counts, the host
/// record and the host-independent numbers the determinism check compares.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_PERFBENCH_STATS_H
#define PORCUPINE_PERFBENCH_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for even counts); 0 when empty.
double median(std::vector<double> V);

/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double> &V);

/// Nearest-rank quantile \p Q in [0, 1]; 0 when empty.
double quantile(std::vector<double> V, double Q);

/// The tail: the highest of p99.9, p99, p95 and p90 (nearest rank) with at
/// least ten samples beyond it, or the median when there are fewer than 100
/// samples.
double tail(std::vector<double> V);

/// tail() of several kernels' samples pooled after dividing each by its own
/// kernel's mean (kernels without samples are skipped): how far the slow
/// end sits above the typical operation, with enough samples for a real
/// percentile even when each kernel alone has too few.
double pooledTailRatio(const std::vector<std::vector<double>> &PerKernel);

/// \p V split into \p N consecutive windows of near-equal size (fewer
/// when \p V has fewer than \p N samples).
std::vector<std::vector<double>> windows(const std::vector<double> &V,
                                         size_t N);

/// Geometric mean of positive values; 0 when empty or any value <= 0.
double geomean(const std::vector<double> &V);

/// Pins the calling thread to the (\p Turn mod n)-th of the n CPUs the
/// process started with. A single-threaded loop that calls this with a
/// growing turn visits every CPU, so its figures do not hang on the speed
/// of the one CPU it would otherwise stay on. No-op where unsupported.
void rotateCpu(size_t Turn);

/// Lets the calling thread run on every CPU the process started with.
void unpinCpu();

/// How many CPUs the process started with (1 where unknown).
size_t cpuCount();

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Command-line options shared by all workloads.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the run record and the Chrome trace ("" = none).
  std::string OutDir;
  /// Worker threads the workload may use (synthesis portfolio, shards).
  unsigned Threads = 4;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one workload run reports.
struct Result {
  /// Every output check that ran matched its reference.
  bool Correct = true;
  /// Operations attempted / failed (wrong output, compile error, rejected
  /// or expired request).
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// Numbers that must not depend on the host, the load or the run.
  std::map<std::string, double> HostIndependent;
  /// Supporting measurements behind the reported metrics (per-kernel
  /// medians, sample counts), kept in the run record only.
  std::map<std::string, double> Detail;
  /// Configuration that produced the numbers (threads, shards, pools...).
  std::map<std::string, std::string> Config;
  /// Human-readable diagnostics (first few failures, probe results).
  std::vector<std::string> Notes;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Counts one failed operation and remembers why (first 20 reasons).
  void fail(const std::string &Why, bool WrongOutput);
};

/// Compares the checked slots of \p Got with \p Want (same length as the
/// mask); on mismatch describes the first differing slot in \p Why.
bool slotsMatch(const std::vector<uint64_t> &Got,
                const std::vector<uint64_t> &Want,
                const std::vector<bool> &Checked, std::string &Why);

} // namespace perfbench

#endif // PORCUPINE_PERFBENCH_STATS_H
