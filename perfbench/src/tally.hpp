// Call tally of the tensor layer's public entry points.
//
// The benchmark links with `--wrap` on gemm_nn/tn/nt, matmul/_tn/_nt,
// im2col and col2im_add (see CMakeLists.txt), so every call the library
// makes lands in a wrapper here first. While the tally is on, the wrapper
// counts the call under its shape; it always forwards to the real function
// unchanged. The tally gives exact per-shape call counts, which the tensor
// probes turn into time and FLOP rates, with no change to the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>

#include "mbd/tensor/im2col.hpp"

namespace perfbench {

/// One GEMM shape: C (m×n) += op(A) (m×k) · op(B) (k×n), variant 'n' (nn),
/// 't' (tn) or 'T' (nt), named like the library's shape inventory.
struct GemmShape {
  char variant = 'n';
  std::size_t m = 0, n = 0, k = 0;

  double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
  }
  const char* variant_name() const {
    return variant == 'n' ? "nn" : variant == 't' ? "tn" : "nt";
  }
  auto key() const { return std::tie(variant, m, n, k); }
  bool operator<(const GemmShape& o) const { return key() < o.key(); }
};

/// One convolution lowering geometry.
struct ConvKey {
  std::size_t in_c, in_h, in_w, out_c, kh, kw, stride, pad;

  static ConvKey of(const mbd::tensor::ConvGeom& g) {
    return {g.in_c, g.in_h, g.in_w, g.out_c, g.kernel_h, g.kernel_w,
            g.stride, g.pad};
  }
  mbd::tensor::ConvGeom geom() const {
    return {in_c, in_h, in_w, out_c, kh, kw, stride, pad};
  }
  auto key() const {
    return std::tie(in_c, in_h, in_w, out_c, kh, kw, stride, pad);
  }
  bool operator<(const ConvKey& o) const { return key() < o.key(); }
};

/// Calls counted while the tally was on.
struct TallyCounts {
  std::map<GemmShape, std::uint64_t> gemm;
  std::map<ConvKey, std::uint64_t> im2col;
  std::map<ConvKey, std::uint64_t> col2im;

  void add(const TallyCounts& o) {
    for (const auto& [k, n] : o.gemm) gemm[k] += n;
    for (const auto& [k, n] : o.im2col) im2col[k] += n;
    for (const auto& [k, n] : o.col2im) col2im[k] += n;
  }
};

/// Start counting from zero (clears earlier counts).
void tally_start();
/// Stop counting and return what was counted since tally_start().
TallyCounts tally_stop();

}  // namespace perfbench
