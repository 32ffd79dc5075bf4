#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "common.hpp"
#include "mbd/comm/comm.hpp"
#include "mbd/comm/nonblocking.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/tensor/gemm.hpp"
#include "mbd/tensor/im2col.hpp"
#include "mbd/tensor/matrix.hpp"
#include "mbd/tensor/tensor4.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mbd::tensor::Matrix;
using mbd::tensor::Tensor4;

// Repeat `call` until it has run at least kMinReps times and kMinSeconds in
// total (after one untimed warm-up call); median seconds per call.
constexpr int kMinReps = 5;
constexpr double kMinSeconds = 0.03;

double time_calls(const std::function<void()>& call) {
  call();
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < static_cast<std::size_t>(kMinReps) ||
         seconds_since(start) < kMinSeconds) {
    const auto t0 = Clock::now();
    call();
    samples.push_back(seconds_since(t0));
  }
  return median(std::move(samples));
}

Matrix filled(std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  auto s = m.span();
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = 0.01f * static_cast<float>(i % 97) - 0.4f;
  return m;
}

}  // namespace

double time_gemm(const GemmShape& g, int threads) {
  const int saved = omp_threads();
  set_omp_threads(threads);
  Matrix c(g.m, g.n);
  double s = 0.0;
  if (g.variant == 'n') {
    const Matrix a = filled(g.m, g.k), b = filled(g.k, g.n);
    s = time_calls([&] { mbd::tensor::gemm_nn(a, b, c); });
  } else if (g.variant == 't') {
    const Matrix a = filled(g.k, g.m), b = filled(g.k, g.n);
    s = time_calls([&] { mbd::tensor::gemm_tn(a, b, c); });
  } else {
    const Matrix a = filled(g.m, g.k), b = filled(g.n, g.k);
    s = time_calls([&] { mbd::tensor::gemm_nt(a, b, c); });
  }
  set_omp_threads(saved);
  return s;
}

double time_im2col(const ConvKey& key) {
  const auto g = key.geom();
  Tensor4 in(1, g.in_c, g.in_h, g.in_w);
  auto s = in.span();
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = static_cast<float>(i % 13);
  return time_calls([&] { (void)mbd::tensor::im2col(in, 0, g); });
}

double time_col2im(const ConvKey& key) {
  const auto g = key.geom();
  const Matrix cols =
      filled(g.in_c * g.kernel_h * g.kernel_w, g.out_h() * g.out_w());
  Tensor4 grad(1, g.in_c, g.in_h, g.in_w);
  return time_calls([&] { mbd::tensor::col2im_add(cols, grad, 0, g); });
}

CommProbe probe_comm(std::size_t words) {
  constexpr int kWarm = 3, kReps = 20;
  // elapsed[rep][rank]: one call's time on each rank, every rank entering
  // from the same barrier; a call costs what its slowest rank waited.
  std::vector<std::vector<double>> elapsed(
      kReps, std::vector<double>(static_cast<std::size_t>(kRanks)));
  auto slowest = [&] {
    std::vector<double> per_call;
    for (const auto& rep : elapsed)
      per_call.push_back(*std::max_element(rep.begin(), rep.end()));
    return median(std::move(per_call));
  };
  CommProbe out;
  mbd::comm::World world(kRanks);
  auto probe = [&](const std::function<void(mbd::comm::Comm&,
                                            std::vector<float>&)>& op) {
    world.run([&](mbd::comm::Comm& c) {
      set_omp_threads(1);
      std::vector<float> buf(words, 1.0f);
      for (int i = 0; i < kWarm + kReps; ++i) {
        c.barrier();
        const auto t0 = Clock::now();
        op(c, buf);
        if (i >= kWarm)
          elapsed[static_cast<std::size_t>(i - kWarm)]
                 [static_cast<std::size_t>(c.rank())] = seconds_since(t0);
      }
    });
    return slowest();
  };
  out.allreduce_s = probe([](mbd::comm::Comm& c, std::vector<float>& b) {
    c.allreduce(std::span<float>(b));
  });
  out.iallreduce_s = probe([](mbd::comm::Comm& c, std::vector<float>& b) {
    auto h = c.iallreduce(std::span<float>(b));
    h.wait();
  });
  out.allgather_s = probe([](mbd::comm::Comm& c, std::vector<float>& b) {
    const std::size_t block = b.size() / static_cast<std::size_t>(c.size());
    (void)c.allgather(std::span<const float>(b.data(), block));
  });
  out.sendrecv_s = probe([](mbd::comm::Comm& c, std::vector<float>& b) {
    const int p = c.size(), r = c.rank();
    (void)c.sendrecv((r + 1) % p, std::span<const float>(b), (r + p - 1) % p);
  });
  out.broadcast_s = probe([](mbd::comm::Comm& c, std::vector<float>& b) {
    c.broadcast(std::span<float>(b), 0);
  });
  return out;
}

}  // namespace perfbench
