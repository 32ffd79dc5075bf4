#include "tally.hpp"

#include <atomic>
#include <mutex>

#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/matrix.hpp"
#include "mbd/tensor/tensor4.hpp"

namespace perfbench {
namespace {

using mbd::tensor::ConvGeom;
using mbd::tensor::Matrix;
using mbd::tensor::Tensor4;

std::atomic<bool> g_on{false};
std::mutex g_mu;
TallyCounts g_counts;  // guarded by g_mu

}  // namespace

void count_gemm(char variant, std::size_t m, std::size_t n, std::size_t k) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  const std::lock_guard lock(g_mu);
  ++g_counts.gemm[GemmShape{variant, m, n, k}];
}

void count_conv(std::map<ConvKey, std::uint64_t> TallyCounts::*which,
                const ConvGeom& g) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  const std::lock_guard lock(g_mu);
  ++(g_counts.*which)[ConvKey::of(g)];
}

void tally_start() {
  const std::lock_guard lock(g_mu);
  g_counts = {};
  g_on.store(true, std::memory_order_relaxed);
}

TallyCounts tally_stop() {
  g_on.store(false, std::memory_order_relaxed);
  const std::lock_guard lock(g_mu);
  return std::move(g_counts);
}

}  // namespace perfbench

// --- link-time interposers (see CMakeLists.txt, PERFBENCH_WRAPPED) ---------
//
// Each pair declares the real symbol under its __real_ alias and defines the
// __wrap_ entry the linker routes library calls to. The signatures must match
// the public declarations in mbd/tensor/gemm.hpp and im2col.hpp exactly.

using mbd::tensor::ConvGeom;
using mbd::tensor::Matrix;
using mbd::tensor::Tensor4;
using perfbench::count_conv;
using perfbench::count_gemm;

extern "C" {
// NOLINTBEGIN(bugprone-reserved-identifier,readability-identifier-naming)
void __real__ZN3mbd6tensor7gemm_nnERKNS0_6MatrixES3_RS1_ff(const Matrix&,
                                                          const Matrix&,
                                                          Matrix&, float,
                                                          float);
void __real__ZN3mbd6tensor7gemm_tnERKNS0_6MatrixES3_RS1_ff(const Matrix&,
                                                          const Matrix&,
                                                          Matrix&, float,
                                                          float);
void __real__ZN3mbd6tensor7gemm_ntERKNS0_6MatrixES3_RS1_ff(const Matrix&,
                                                          const Matrix&,
                                                          Matrix&, float,
                                                          float);
Matrix __real__ZN3mbd6tensor6matmulERKNS0_6MatrixES3_(const Matrix&,
                                                     const Matrix&);
Matrix __real__ZN3mbd6tensor9matmul_tnERKNS0_6MatrixES3_(const Matrix&,
                                                        const Matrix&);
Matrix __real__ZN3mbd6tensor9matmul_ntERKNS0_6MatrixES3_(const Matrix&,
                                                        const Matrix&);
Matrix __real__ZN3mbd6tensor6im2colERKNS0_7Tensor4EmRKNS0_8ConvGeomE(
    const Tensor4&, std::size_t, const ConvGeom&);
void __real__ZN3mbd6tensor10col2im_addERKNS0_6MatrixERNS0_7Tensor4EmRKNS0_8ConvGeomE(
    const Matrix&, Tensor4&, std::size_t, const ConvGeom&);

// C = αAB + βC: A m×k, B k×n.
void __wrap__ZN3mbd6tensor7gemm_nnERKNS0_6MatrixES3_RS1_ff(const Matrix& a,
                                                          const Matrix& b,
                                                          Matrix& c,
                                                          float alpha,
                                                          float beta) {
  count_gemm('n', a.rows(), b.cols(), a.cols());
  __real__ZN3mbd6tensor7gemm_nnERKNS0_6MatrixES3_RS1_ff(a, b, c, alpha, beta);
}
// C = αAᵀB + βC: A k×m, B k×n.
void __wrap__ZN3mbd6tensor7gemm_tnERKNS0_6MatrixES3_RS1_ff(const Matrix& a,
                                                          const Matrix& b,
                                                          Matrix& c,
                                                          float alpha,
                                                          float beta) {
  count_gemm('t', a.cols(), b.cols(), a.rows());
  __real__ZN3mbd6tensor7gemm_tnERKNS0_6MatrixES3_RS1_ff(a, b, c, alpha, beta);
}
// C = αABᵀ + βC: A m×k, B n×k.
void __wrap__ZN3mbd6tensor7gemm_ntERKNS0_6MatrixES3_RS1_ff(const Matrix& a,
                                                          const Matrix& b,
                                                          Matrix& c,
                                                          float alpha,
                                                          float beta) {
  count_gemm('T', a.rows(), b.rows(), a.cols());
  __real__ZN3mbd6tensor7gemm_ntERKNS0_6MatrixES3_RS1_ff(a, b, c, alpha, beta);
}
Matrix __wrap__ZN3mbd6tensor6matmulERKNS0_6MatrixES3_(const Matrix& a,
                                                     const Matrix& b) {
  count_gemm('n', a.rows(), b.cols(), a.cols());
  return __real__ZN3mbd6tensor6matmulERKNS0_6MatrixES3_(a, b);
}
Matrix __wrap__ZN3mbd6tensor9matmul_tnERKNS0_6MatrixES3_(const Matrix& a,
                                                        const Matrix& b) {
  count_gemm('t', a.cols(), b.cols(), a.rows());
  return __real__ZN3mbd6tensor9matmul_tnERKNS0_6MatrixES3_(a, b);
}
Matrix __wrap__ZN3mbd6tensor9matmul_ntERKNS0_6MatrixES3_(const Matrix& a,
                                                        const Matrix& b) {
  count_gemm('T', a.rows(), b.rows(), a.cols());
  return __real__ZN3mbd6tensor9matmul_ntERKNS0_6MatrixES3_(a, b);
}
Matrix __wrap__ZN3mbd6tensor6im2colERKNS0_7Tensor4EmRKNS0_8ConvGeomE(
    const Tensor4& in, std::size_t n, const ConvGeom& g) {
  count_conv(&perfbench::TallyCounts::im2col, g);
  return __real__ZN3mbd6tensor6im2colERKNS0_7Tensor4EmRKNS0_8ConvGeomE(in, n,
                                                                       g);
}
void __wrap__ZN3mbd6tensor10col2im_addERKNS0_6MatrixERNS0_7Tensor4EmRKNS0_8ConvGeomE(
    const Matrix& cols, Tensor4& grad, std::size_t n, const ConvGeom& g) {
  count_conv(&perfbench::TallyCounts::col2im, g);
  __real__ZN3mbd6tensor10col2im_addERKNS0_6MatrixERNS0_7Tensor4EmRKNS0_8ConvGeomE(
      cols, grad, n, g);
}
// NOLINTEND(bugprone-reserved-identifier,readability-identifier-naming)
}
