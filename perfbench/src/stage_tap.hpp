// StageTap: the benchmark-side decorator around a layout's EngineStages.
//
// A tap forwards every EngineStage virtual to the stage it wraps, unchanged,
// and records wall-clock spans of the calls into its rank's RankTrace. The
// engine and the inference session see the same stages doing the same work
// in the same order, so wrapped and unwrapped runs are bitwise identical
// (transparency_test.cpp proves it for every workload's trainer).
//
// Two depths:
//   clock — only rank 0's first stage is wrapped, and only begin_iteration
//           is timestamped: the untraced runs' step clock.
//   full  — every stage of every rank is wrapped and forward/backward/update
//           calls are timed: the traced run's per-layer spans.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "mbd/parallel/engine_layout.hpp"

namespace perfbench {

/// One engine iteration (a training step, or one batched inference forward)
/// as one rank saw it.
struct StepRec {
  Clock::time_point begin{};  ///< first stage's begin_iteration
  Clock::time_point end{};    ///< end of the step's last timed stage call
  double fwd = 0.0, bwd = 0.0, update = 0.0;  ///< seconds inside those calls
  double pipe = 0.0;          ///< inside pipe_recv/pipe_send stage calls
  double redistribute = 0.0;  ///< inside the Eq. 6 redistribution stage
  Clock::time_point last_bwd_end{}, first_update_begin{};
  bool has_update = false;
};

/// Every step one rank ran, in order. Written only by its rank's thread.
struct RankTrace {
  std::vector<StepRec> steps;
};

/// Wrap every stage of `layout`, timing all calls into `trace`.
void tap_full(mbd::parallel::EngineLayout& layout, RankTrace& trace);

/// Wrap the first stage of `layout`, timestamping only begin_iteration.
void tap_clock(mbd::parallel::EngineLayout& layout, RankTrace& trace);

}  // namespace perfbench
