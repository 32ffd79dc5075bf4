// Per-layer metric reduction shared by the training and serving runs:
// parallel.* from StageTap traces, tensor.* from the call tally plus
// probes, comm.* from World::stats() plus probes.
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"
#include "mbd/comm/stats.hpp"
#include "stage_tap.hpp"
#include "tally.hpp"

namespace perfbench {

/// parallel.* (except layout_build_s) over engine iterations [first, last)
/// of every rank's full-depth trace.
void put_parallel_metrics(Sheet& sheet, const std::vector<RankTrace>& ranks,
                          std::size_t first, std::size_t last);

/// tensor.*: `timed` was tallied over `steps` engine iterations of the
/// kRanks rank threads (one OpenMP thread each), `reference` over the
/// sequential reference (nproc threads). Also checks that the library's
/// shape inventory saw every tallied GEMM shape.
void put_tensor_metrics(Sheet& sheet, Outcome& out, const TallyCounts& timed,
                        double steps, const TallyCounts& reference);

/// comm.*: `delta` is the traffic of `steps` engine iterations; probes run
/// at `probe_words` floats per call.
void put_comm_metrics(Sheet& sheet, const mbd::comm::StatsSnapshot& delta,
                      double steps, std::size_t probe_words);

/// serve.* for workloads without a gateway: nothing queued, batched or
/// rejected, so every serving figure is zero.
void put_no_serving(Sheet& sheet);

}  // namespace perfbench
