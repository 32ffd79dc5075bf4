// Isolated probes of the tensor and comm layers, called through their
// public entry points on the shapes and message sizes a workload issued.
#pragma once

#include <cstddef>

#include "tally.hpp"

namespace perfbench {

/// Median seconds per call of one GEMM shape on `threads` OpenMP threads
/// (the calling thread's team; restored afterwards).
double time_gemm(const GemmShape& shape, int threads);

/// Median seconds per call of im2col / col2im_add on one geometry
/// (single-threaded; both are serial per sample).
double time_im2col(const ConvKey& key);
double time_col2im(const ConvKey& key);

/// Median seconds per call of each public collective on a fresh
/// kRanks-rank World, `words` floats per call (allgather: words in total).
struct CommProbe {
  double allreduce_s = 0.0;
  double iallreduce_s = 0.0;  ///< post plus wait
  double allgather_s = 0.0;
  double sendrecv_s = 0.0;    ///< ring neighbour exchange
  double broadcast_s = 0.0;
};
CommProbe probe_comm(std::size_t words);

}  // namespace perfbench
