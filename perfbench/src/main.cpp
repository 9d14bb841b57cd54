//===- perfbench/src/main.cpp - porcbench command line ---------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   porcbench --workload compile|run|serve --seed N --seconds S
///             --trace 0|1 [--out-dir DIR]
///   porcbench --list-metrics
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object {"correct", "attempted", "failed", "metrics"}. The untraced
/// run (--trace 0) reports the end-to-end metrics; the traced run
/// (--trace 1) reports the per-layer metrics, with 0 for layers the
/// workload does not reach. The line before it is the host record. With
/// --out-dir, the full run record (host, configuration, host-independent
/// numbers, notes) and, when traced, the Chrome trace are written there.
///
/// Exit status: 0 when the workload ran (its failures are counted in the
/// result), 1 when an output check could not run, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace perfbench;

namespace {

/// Workloads, as bits of MetricDecl::Owners.
enum : unsigned { Compile = 1, Run = 2, Serve = 4, All = 7 };

unsigned workloadBit(const std::string &W) {
  return W == "compile" ? Compile : W == "run" ? Run : Serve;
}

/// A reported metric. Per-layer metrics name the workloads whose traced
/// run must produce them; the others report 0 for it.
struct MetricDecl {
  std::string Name;
  std::string Unit;
  unsigned Owners = All;
};
using MetricList = std::vector<MetricDecl>;

/// The end-to-end metrics, reported by every workload's untraced run.
MetricList endToEndMetrics() {
  return {{"latency_ms", "ms"},
          {"tail_ms", "ms"},
          {"program_cost", "cost"},
          {"setup_s", "s"},
          {"peak_rss_mb", "MB"}};
}

/// The per-layer metrics, reported by every workload's traced run.
MetricList perLayerMetrics() {
  MetricList L = {
      {"synth.time_s", "s", Compile},
      {"synth.cpu_s", "s", Compile},
      {"synth.nodes_explored", "count", Compile},
      {"frontend.lower_s", "s", Compile},
      {"quill.passes_s", "s", Compile},
      {"quill.rewrites", "count", Compile},
      {"quill.eqsat_s", "s", Compile},
      {"quill.eqsat.enodes", "count", Compile},
      {"quill.eqsat.applications", "count", Compile},
      {"quill.eqsat.saturated_frac", "ratio", Compile},
      {"quill.eqsat.cost_ratio", "ratio", Compile},
      {"spec.verify_s", "s", Compile},
      {"backend.select_params_s", "s", Compile},
      {"backend.emit_s", "s", Compile},
      {"driver.compile.synth_set_s", "s", Compile},
      {"driver.compile.lowered_set_s", "s", Compile},
      {"probe.wrong_depths", "count", Compile},
      {"probe.rejected_depths", "count", Compile},
  };
  auto Add = [&L](const std::string &Name, const char *Unit, unsigned Owners) {
    L.push_back({Name, Unit, Owners});
  };
  for (std::string K : {"box_blur", "linreg", "polyreg", "hamming", "gx", "gy",
                        "dot", "conv2d", "perceptron", "groupby"}) {
    bool InRun = K == "dot" || K == "polyreg" || K == "conv2d" ||
                 K == "perceptron";
    for (std::string M : {"instructions", "rotations", "ctct_muls",
                          "mult_depth"})
      Add("program." + M + "." + K, "count", InRun ? Compile | Run : Compile);
  }

  Add("backend.instantiate_s", "s", Run);
  for (std::string K : {"dot", "polyreg", "conv2d", "perceptron"}) {
    Add("backend.poly_degree." + K, "count", Run);
    Add("backend.noise_budget_bits." + K, "bits", Run);
    Add("bfv.encrypt_ms." + K, "ms", Run);
    Add("backend.execute_ms." + K, "ms", Run);
    Add("bfv.decrypt_ms." + K, "ms", Run);
    Add("quill.cost_model_error." + K, "ratio", Run);
    Add("backend.dryrun_charged_us." + K, "us", Run);
  }
  for (std::string N : {".n4096", ".n8192"}) {
    for (std::string Op : {"add_ct_ct", "mul_ct_pt", "mul_ct_ct", "relin",
                           "rotate"})
      Add("bfv.op." + Op + "_us" + N, "us", Run);
    Add("math.ntt_forward_us" + N, "us", Run);
    Add("math.ntt_inverse_us" + N, "us", Run);
  }
  Add("driver.engine.hit_rate", "ratio", Run);

  Add("driver.server.queue_p50_ms", "ms", Serve);
  Add("driver.server.queue_tail_ms", "ms", Serve);
  Add("driver.server.exec_ms", "ms", Serve);
  Add("driver.server.batch_size", "count", Serve);
  Add("driver.server.batch_fill", "ratio", Serve);
  Add("driver.server.rejects", "count", Serve);
  Add("driver.server.tenant_setup_s", "s", Serve);
  Add("serve.gen_late_ms", "ms", Serve);
  Add("serve.capacity_rps", "1/s", Serve);
  Add("serve.goodput_rps", "1/s", Serve);
  Add("trace.overhead_frac", "ratio", All);
  for (std::string Layer : {"synth", "frontend", "quill", "quill.eqsat",
                            "spec"})
    Add("self_s." + Layer, "s", Compile);
  Add("self_s.backend", "s", All);
  for (std::string Layer : {"bfv", "math", "driver.engine"})
    Add("self_s." + Layer, "s", Run);
  Add("self_s.driver.server", "s", Serve);
  return L;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const MetricList &List, const Result &Res) {
  std::string J = "{";
  for (size_t I = 0; I < List.size(); ++I) {
    const Metric &M = Res.Metrics.at(List[I].Name);
    J += (I ? ", " : "") + porcupine::json::quote(List[I].Name) +
         ": {\"value\": " + number(M.Value) +
         ", \"unit\": " + porcupine::json::quote(M.Unit) + "}";
  }
  return J + "}";
}

std::string stringMapJson(const std::map<std::string, std::string> &Map) {
  std::string J = "{";
  for (const auto &KV : Map)
    J += (J.size() > 1 ? ", " : "") + porcupine::json::quote(KV.first) +
         ": " + porcupine::json::quote(KV.second);
  return J + "}";
}

std::string numberMapJson(const std::map<std::string, double> &Map) {
  std::string J = "{";
  for (const auto &KV : Map)
    J += (J.size() > 1 ? ", " : "") + porcupine::json::quote(KV.first) +
         ": " + number(KV.second);
  return J + "}";
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "porcbench: %s\nusage: porcbench --workload compile|run|serve "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       porcbench --list-metrics\n",
               Why);
  return 2;
}

void listMetrics() {
  auto Print = [](const char *Name, const MetricList &L, bool Last) {
    std::printf("  \"%s\": [", Name);
    for (size_t I = 0; I < L.size(); ++I) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"workloads\": [",
                  I ? ", " : "", L[I].Name.c_str(), L[I].Unit.c_str());
      const char *Sep = "";
      for (const char *W : {"compile", "run", "serve"})
        if (L[I].Owners & workloadBit(W)) {
          std::printf("%s\"%s\"", Sep, W);
          Sep = ", ";
        }
      std::printf("]}");
    }
    std::printf("]%s\n", Last ? "" : ",");
  };
  std::printf("{\n");
  Print("end_to_end", endToEndMetrics(), false);
  Print("per_layer", perLayerMetrics(), true);
  std::printf("}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--list-metrics") {
      listMetrics();
      return 0;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = *End == '\0' && O.Seconds > 0;
    } else if (A == "--trace") {
      HaveTrace = V == "0" || V == "1";
      O.Trace = V == "1";
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (O.Workload != "compile" && O.Workload != "run" && O.Workload != "serve")
    return usage("--workload must be compile, run or serve");
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds (> 0) and --trace 0|1 are required");
  O.Threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  Tracer T;
  if (O.Trace)
    Tracer::install(&T);
  Result Res;
  bool Ran = O.Workload == "compile" ? runCompileWorkload(O, Res)
             : O.Workload == "run"   ? runRunWorkload(O, Res)
                                     : runServeWorkload(O, Res);
  Tracer::install(nullptr);
  for (const std::string &N : Res.Notes)
    std::fprintf(stderr, "porcbench: %s\n", N.c_str());
  if (!Ran) {
    std::fprintf(stderr, "porcbench: the %s workload could not run its "
                         "output checks\n",
                 O.Workload.c_str());
    return 1;
  }

  MetricList Reported = O.Trace ? perLayerMetrics() : endToEndMetrics();
  std::map<std::string, std::string> Known;
  for (const MetricList &L : {endToEndMetrics(), perLayerMetrics()})
    for (const MetricDecl &M : L)
      Known[M.Name] = M.Unit;
  if (O.Trace)
    for (const auto &KV : T.selfSecondsByLayer())
      if (KV.first != "bench")
        Res.set("self_s." + KV.first, KV.second, "s");
  for (const auto &KV : Res.Metrics)
    if (!Known.count(KV.first) || Known[KV.first] != KV.second.Unit) {
      std::fprintf(stderr, "porcbench: undeclared metric %s (%s)\n",
                   KV.first.c_str(), KV.second.Unit.c_str());
      return 1;
    }
  if (!O.Trace)
    Res.set("peak_rss_mb", peakRssMb(), "MB");
  // End-to-end metrics must be positive; a per-layer metric must be present
  // when this workload owns it and reads 0 when another workload does.
  unsigned Self = workloadBit(O.Workload);
  for (const MetricDecl &M : Reported) {
    bool Have = Res.Metrics.count(M.Name) &&
                (O.Trace || Res.Metrics[M.Name].Value > 0);
    if (Have)
      continue;
    if (!O.Trace || (M.Owners & Self)) {
      std::fprintf(stderr, "porcbench: %s produced no value for %s\n",
                   O.Workload.c_str(), M.Name.c_str());
      return 1;
    }
    Res.set(M.Name, 0, M.Unit);
  }

  std::map<std::string, std::string> Host = Res.Config;
  Host["workload"] = O.Workload;
  Host["seed"] = std::to_string(O.Seed);
  Host["seconds"] = number(O.Seconds);
  Host["trace"] = O.Trace ? "1" : "0";
  Host["nproc"] = std::to_string(std::thread::hardware_concurrency());
  Host["threads"] = std::to_string(O.Threads);
  Host["build_type"] = PORCBENCH_BUILD_TYPE;
  Host["compiler"] = PORCBENCH_COMPILER;
  std::string HostJson = stringMapJson(Host);

  if (!O.OutDir.empty()) {
    std::string Stem = O.OutDir + "/" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + "-trace" +
                       (O.Trace ? "1" : "0");
    if (O.Trace && !T.writeChromeJson(Stem + ".trace.json"))
      std::fprintf(stderr, "porcbench: cannot write %s.trace.json\n",
                   Stem.c_str());
    std::string Notes;
    for (const std::string &N : Res.Notes)
      Notes += (Notes.empty() ? "" : ", ") + porcupine::json::quote(N);
    std::string Record = "{\"host\": " + HostJson +
                         ", \"host_independent\": " +
                         numberMapJson(Res.HostIndependent) +
                         ", \"detail\": " + numberMapJson(Res.Detail) +
                         ", \"metrics\": " + metricsJson(Reported, Res) +
                         ", \"notes\": [" + Notes + "]}\n";
    std::FILE *F = std::fopen((Stem + ".record.json").c_str(), "w");
    bool Written = F && std::fputs(Record.c_str(), F) >= 0;
    if (F && std::fclose(F) != 0)
      Written = false;
    if (!Written)
      std::fprintf(stderr, "porcbench: cannot write %s.record.json\n",
                   Stem.c_str());
  }

  std::printf("{\"host\": %s}\n", HostJson.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Res.Correct ? "true" : "false",
              static_cast<unsigned long long>(Res.Attempted),
              static_cast<unsigned long long>(Res.Failed),
              metricsJson(Reported, Res).c_str());
  return 0;
}
