//===- perfbench/src/Stats.cpp - Sample statistics and results ------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#ifdef __linux__
#include <sched.h>
#endif

using namespace perfbench;

#ifdef __linux__
namespace {
/// The CPUs the process may run on, read once before any pinning.
const cpu_set_t &startCpus() {
  static const cpu_set_t Set = [] {
    cpu_set_t S;
    CPU_ZERO(&S);
    if (sched_getaffinity(0, sizeof(S), &S) != 0)
      CPU_ZERO(&S);
    return S;
  }();
  return Set;
}
} // namespace

void perfbench::rotateCpu(size_t Turn) {
  const cpu_set_t &Start = startCpus();
  size_t Count = static_cast<size_t>(CPU_COUNT(&Start));
  if (Count == 0)
    return;
  size_t Want = Turn % Count;
  for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &Start) || Want-- != 0)
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    sched_setaffinity(0, sizeof(One), &One);
    return;
  }
}

void perfbench::unpinCpu() {
  if (CPU_COUNT(&startCpus()) > 0)
    sched_setaffinity(0, sizeof(cpu_set_t), &startCpus());
}

size_t perfbench::cpuCount() {
  return std::max(1, CPU_COUNT(&startCpus()));
}
#else
void perfbench::rotateCpu(size_t) {}
void perfbench::unpinCpu() {}
size_t perfbench::cpuCount() { return 1; }
#endif

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double perfbench::tail(std::vector<double> V) {
  double N = static_cast<double>(V.size());
  for (double Q : {0.999, 0.99, 0.95, 0.9})
    if (N * (1 - Q) >= 10)
      return std::max(quantile(V, Q), median(V));
  return median(V);
}

double perfbench::pooledTailRatio(
    const std::vector<std::vector<double>> &PerKernel) {
  std::vector<double> Ratios;
  for (const std::vector<double> &V : PerKernel) {
    double M = mean(V);
    for (double X : V)
      Ratios.push_back(X / M);
  }
  return tail(Ratios);
}

std::vector<std::vector<double>>
perfbench::windows(const std::vector<double> &V, size_t N) {
  std::vector<std::vector<double>> W;
  N = std::min(N, V.size());
  for (size_t I = 0; I < N; ++I)
    W.emplace_back(V.begin() + I * V.size() / N,
                   V.begin() + (I + 1) * V.size() / N);
  return W;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (X <= 0)
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

void Result::fail(const std::string &Why, bool WrongOutput) {
  ++Failed;
  if (WrongOutput)
    Correct = false;
  if (Notes.size() < 20)
    Notes.push_back(Why);
}

bool perfbench::slotsMatch(const std::vector<uint64_t> &Got,
                           const std::vector<uint64_t> &Want,
                           const std::vector<bool> &Checked,
                           std::string &Why) {
  for (size_t I = 0; I < Checked.size(); ++I) {
    if (!Checked[I])
      continue;
    uint64_t G = I < Got.size() ? Got[I] : 0;
    if (I >= Got.size() || G != Want[I]) {
      Why = "slot " + std::to_string(I) + ": got " + std::to_string(G) +
            ", want " + std::to_string(Want[I]);
      return false;
    }
  }
  return true;
}
