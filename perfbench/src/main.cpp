// perfbench: run one benchmark workload and print its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a run record line, human-readable checks and metrics, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when a correctness check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "common.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/obs/profiler.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/gemm_config.hpp"
#include "runs.hpp"
#include "workloads.hpp"

#ifdef PERFBENCH_OPENMP
constexpr bool kOpenMP = true;
#else
constexpr bool kOpenMP = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::fmt_double;
using perfbench::json_string;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train_alexnet|train_rnn|train_pipeline|serve_open> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

// Everything that decides whether two results are comparable.
void print_run_record(const perfbench::Options& o) {
  const auto& g = mbd::tensor::gemm_config();
  const mbd::comm::World probe(1);
  std::printf(
      "{\"run_record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %d, \"build_type\": %s, \"ranks\": %d, "
      "\"openmp\": %s, \"rank_omp_threads\": 1, "
      "\"reference_omp_threads\": %d, "
      "\"gemm\": {\"kernel\": %s, \"mr\": %zu, \"nr\": %zu, \"mc\": %zu, "
      "\"kc\": %zu, \"nc\": %zu}, \"validation_enabled\": %s, "
      "\"profiler_enabled\": %s}}\n",
      json_string(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), fmt_double(o.seconds).c_str(),
      o.trace ? 1 : 0, perfbench::nproc(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), perfbench::kRanks,
      kOpenMP ? "true" : "false", kOpenMP ? perfbench::nproc() : 1, json_string(g.kernel).c_str(), g.mr, g.nr, g.mc,
      g.kc, g.nc, probe.validation_enabled() ? "true" : "false",
      mbd::obs::profiling_enabled() ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && o.seconds > 0;
    } else if (key == "--trace") {
      o.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace)
    return usage("missing or malformed option");
  const auto w = perfbench::make_workload(o.workload, o.seed);
  if (!w) return usage(("unknown workload " + o.workload).c_str());

  // The profiler stays off in every run (MBD_PROFILE would turn it on);
  // the run record states it. Traced runs turn on the library's GEMM shape
  // inventory from the start, which the tensor tally is checked against.
  mbd::obs::enable_profiling(false);
  mbd::tensor::set_gemm_shape_metrics(o.trace);
  perfbench::set_omp_threads(1);
  print_run_record(o);

  perfbench::Outcome out;
  try {
    out = w->serving ? perfbench::run_serve(*w, o) : perfbench::run_train(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  // The sheet must hold exactly the catalogue of this mode.
  const auto& defs = o.trace ? perfbench::per_layer_metrics()
                             : perfbench::end_to_end_metrics();
  std::set<std::string> expected;
  for (const auto& d : defs) expected.insert(d.name);
  for (const auto& m : out.sheet.items()) {
    if (expected.erase(m.name) == 0) {
      std::fprintf(stderr, "perfbench: stray metric %s\n", m.name.c_str());
      return 1;
    }
  }
  if (!expected.empty()) {
    std::fprintf(stderr, "perfbench: metric %s not measured\n",
                 expected.begin()->c_str());
    return 1;
  }

  for (const auto& m : out.sheet.items())
    out.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  for (const auto& note : out.notes)
    std::printf("CHECK FAILED: %s\n", note.c_str());
  std::printf("checks: %llu attempted, %llu failed (failed_frac %s)\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              fmt_double(out.attempted > 0
                             ? static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted)
                             : 0.0)
                  .c_str());
  for (const auto& m : out.sheet.items())
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.sheet.items()) {
    if (!first) json += ", ";
    first = false;
    json += json_string(m.name) + ": {\"value\": " + fmt_double(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
