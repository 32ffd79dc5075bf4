// The two workload drivers. Each returns the metric sheet for its mode
// (end-to-end when untraced, per-layer when traced) and the outcome of every
// correctness check it made.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "mbd/comm/stats.hpp"
#include "mbd/parallel/common.hpp"
#include "stage_tap.hpp"
#include "workloads.hpp"

namespace perfbench {

/// How deep a run's stages are wrapped (see stage_tap.hpp).
enum class Tap { None, Clock, Full };

/// One training run of `iters` steps on a fresh kRanks-rank World.
struct StepsRun {
  std::vector<mbd::parallel::DistResult> results;  ///< per rank
  std::vector<RankTrace> traces;                   ///< per rank
  std::vector<double> build_s;  ///< per rank: build_*_layout call
  mbd::comm::StatsSnapshot stats;
  /// Dataset generation + World + layout build + warm-up steps: from the
  /// start to rank 0's begin_iteration of step kWarmupSteps (NaN without a
  /// clock or with fewer steps).
  double setup_s = 0.0;
};

/// Generate the workload's dataset from `data_seed`, build its layout on
/// every rank, wrap it per `tap`, and train `iters` steps via train_layout.
StepsRun run_steps(const Workload& w, std::uint64_t data_seed,
                   std::size_t iters, Tap tap);

/// train_alexnet, train_rnn, train_pipeline.
Outcome run_train(const Workload& w, const Options& o);

/// serve_open.
Outcome run_serve(const Workload& w, const Options& o);

/// Relative tolerance of a distributed step loss against the sequential
/// reference's loss for the same step: |a − b| ≤ tol · (1 + |b|). Reduction
/// order differs between the two, nothing else.
inline constexpr double kLossRelTol = 1e-3;
/// Steps compared against the reference. Reordered float sums drift the two
/// trajectories apart over many SGD steps (the pipeline's microbatch
/// accumulation by ~1% after 20), so only the early steps are an oracle.
inline constexpr std::size_t kOracleSteps = 8;

}  // namespace perfbench
