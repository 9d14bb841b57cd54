//===- bench/bench_figure4_speedup.cpp - Paper Figure 4 -------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Reproduces paper Figure 4: run-time speedup of Porcupine-synthesized
/// kernels over the depth-optimized hand-written baselines, measured on
/// encrypted data with 128-bit-security parameters. Kernels in the paper's
/// "multi-step" class (Sobel, Harris) are composed from synthesized stages.
///
/// Usage: bench_figure4_speedup [--repeats N] [--app-repeats N] [--fast]
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "kernels/Kernels.h"
#include "support/Random.h"

#include <cstdio>
#include <cmath>
#include <vector>

using namespace porcupine;
using namespace porcupine::bench;
using namespace porcupine::kernels;
using namespace porcupine::quill;

namespace {

struct Row {
  std::string Name;
  double PaperSpeedupPct;
  const KernelSpec *Spec;
  const Program *Baseline;
  const Program *Synthesized;
  int Repeats;
};

/// Times baseline and synthesized variants and prints one table row.
/// Returns the measured speedup fraction (baseline/synth - 1).
double runRow(const Row &R, Rng &Rand) {
  auto Exec = openBfvSession({R.Baseline, R.Synthesized}, Rand.next());
  uint64_t T = Exec->plainModulus();

  auto Inputs = R.Spec->randomInputs(Rand, T, /*Bound=*/64);
  std::vector<backend::Value> Encrypted;
  for (const auto &In : Inputs)
    Encrypted.push_back(*Exec->encrypt(In));

  // Correctness guard: both variants must decrypt to the reference result.
  auto Want = R.Spec->evalConcrete(Inputs, T);
  for (const Program *P : {R.Baseline, R.Synthesized}) {
    auto Got = Exec->decrypt(*Exec->run(*P, Encrypted), R.Spec->vectorSize());
    for (size_t J = 0; J < R.Spec->vectorSize(); ++J)
      if (R.Spec->outputSlotMatters(J) && Got[J] != Want[J]) {
        std::printf("!! %s: wrong encrypted result, aborting row\n",
                    R.Name.c_str());
        return 0.0;
      }
  }

  auto [BaseUs, SynthUs] =
      timeInterleaved(*Exec, *R.Baseline, *R.Synthesized, Encrypted,
                      R.Repeats);
  double SpeedupPct = (BaseUs / SynthUs - 1.0) * 100.0;
  std::printf("%-22s %6zu %10.1f %10.1f %+9.1f%% %+9.1f%% %8d\n",
              R.Name.c_str(), Exec->polyDegree(), BaseUs / 1000.0,
              SynthUs / 1000.0, SpeedupPct, R.PaperSpeedupPct, R.Repeats);
  std::fflush(stdout);
  return BaseUs / SynthUs - 1.0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Fast = argFlag(Argc, Argv, "--fast");
  int Repeats = argInt(Argc, Argv, "--repeats", Fast ? 10 : 50);
  int AppRepeats = argInt(Argc, Argv, "--app-repeats", Fast ? 3 : 10);

  std::printf("Figure 4: speedup of synthesized kernels over hand-written "
              "depth-optimized baselines\n");
  std::printf("(mean over repeated encrypted runs; paper column = Figure 4 "
              "values on the authors' testbed)\n\n");
  std::printf("%-22s %6s %10s %10s %10s %10s %8s\n", "Kernel", "N",
              "base(ms)", "synth(ms)", "speedup", "paper", "runs");
  printRule(7);

  Rng Rand(2024);

  std::vector<KernelBundle> Bundles;
  Bundles.push_back(boxBlurKernel());
  Bundles.push_back(dotProductKernel());
  Bundles.push_back(hammingDistanceKernel());
  Bundles.push_back(l2DistanceKernel());
  Bundles.push_back(linearRegressionKernel());
  Bundles.push_back(polyRegressionKernel());
  Bundles.push_back(gxKernel());
  Bundles.push_back(gyKernel());
  Bundles.push_back(robertsCrossKernel());
  double Paper[] = {39.1, 1.0, 0.1, -0.9, 0.6, 28.0, 26.6, 52.0, -0.5};

  double GeoProduct = 1.0;
  int Count = 0;
  for (size_t I = 0; I < Bundles.size(); ++I) {
    Row R{Bundles[I].Spec.name(), Paper[I], &Bundles[I].Spec,
          &Bundles[I].Baseline, &Bundles[I].Synthesized, Repeats};
    GeoProduct *= 1.0 + runRow(R, Rand);
    ++Count;
  }

  AppBundle Sobel = sobelApp();
  AppBundle Harris = harrisApp();
  for (const AppBundle *App : {&Sobel, &Harris}) {
    double PaperPct = App->Name == "Sobel" ? 4.2 : 15.4;
    Row R{App->Name + " (multi-step)", PaperPct, &App->Spec, &App->Baseline,
          &App->Synthesized, AppRepeats};
    GeoProduct *= 1.0 + runRow(R, Rand);
    ++Count;
  }

  printRule(7);
  double GeoMeanPct = (std::pow(GeoProduct, 1.0 / Count) - 1.0) * 100.0;
  std::printf("Geometric-mean speedup: %+.1f%% (paper: +11%% over 11 "
              "kernels)\n",
              GeoMeanPct);
  return 0;
}
