// The four benchmark workloads and the metric catalogue every run prints.
// README.md records why each workload exists and which layer metric should
// move which end-to-end metric on which workload.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mbd/nn/layer_spec.hpp"
#include "mbd/nn/trainer.hpp"
#include "mbd/parallel/common.hpp"
#include "tally.hpp"

namespace perfbench {

/// Thread ranks of every workload (one OpenMP thread each).
inline constexpr int kRanks = 4;
/// Warm-up steps (training) before the timed window; part of setup_s.
inline constexpr std::size_t kWarmupSteps = 2;
/// Timed sub-runs per run, each on a fresh World with its own set-up,
/// spread over the run's duration; end-to-end metrics are their medians.
inline constexpr int kSubRuns = 5;

struct Workload {
  std::string name;
  bool serving = false;
  std::vector<mbd::nn::LayerSpec> specs;
  const mbd::parallel::TrainerEntry* trainer = nullptr;
  mbd::parallel::TrainerOptions opts;  ///< grid, mode, microbatches, seed
  std::size_t batch = 0;       ///< training mini-batch / serving max batch
  float lr = 0.01f;            ///< SGD learning rate (momentum 0.9)
  std::size_t classes = 0;
  std::size_t dataset_size = 0;
  /// Message size (floats) of the comm probes: the workload's largest
  /// per-call payload (∆W shard, pipeline boundary block, or logits batch).
  std::size_t probe_words = 0;
};

/// The named workload with weights and data drawn from `seed`; nullopt for
/// an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

/// The workload's synthetic dataset for `seed`.
mbd::nn::Dataset make_dataset(const Workload& w, std::uint64_t seed);

/// Forward GEMM shapes train_alexnet issues per layer (conv per sample, FC
/// on rank 0's 2×2 block), named conv1..conv5, fc6..fc8.
std::vector<std::pair<std::string, GemmShape>> alexnet_forward_shapes();

/// Every metric name a run prints, with its unit: end-to-end (untraced
/// runs) or per-layer (traced runs). Mirrors BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

}  // namespace perfbench
