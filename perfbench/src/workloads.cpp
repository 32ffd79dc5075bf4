#include "workloads.hpp"

#include <algorithm>

#include "mbd/nn/models.hpp"

namespace perfbench {
namespace {

using mbd::nn::LayerKind;
using mbd::nn::LayerSpec;
using mbd::parallel::block_range;
using mbd::parallel::ReduceMode;

// The paper's Fig. 7 net, scaled to a 3×67×67 input: conv1 11×11/4 and the
// three max-pools keep AlexNet's shape chain; channels 96/128/192/192/128;
// a 1024-wide FC tail to 100 classes.
std::vector<LayerSpec> alexnet_small_spec() {
  using mbd::nn::conv_spec;
  using mbd::nn::fc_spec;
  using mbd::nn::pool_spec;
  std::vector<LayerSpec> net;
  net.push_back(conv_spec("conv1", 3, 67, 67, 96, 11, 4, 0));    // 96×15×15
  net.push_back(pool_spec("pool1", 96, 15, 15, 3, 2));           // 96×7×7
  net.push_back(conv_spec("conv2", 96, 7, 7, 128, 5, 1, 2));     // 128×7×7
  net.push_back(pool_spec("pool2", 128, 7, 7, 3, 2));            // 128×3×3
  net.push_back(conv_spec("conv3", 128, 3, 3, 192, 3, 1, 1));
  net.push_back(conv_spec("conv4", 192, 3, 3, 192, 3, 1, 1));
  net.push_back(conv_spec("conv5", 192, 3, 3, 128, 3, 1, 1));
  net.push_back(pool_spec("pool5", 128, 3, 3, 3, 2));            // 128×1×1
  net.push_back(fc_spec("fc6", 128, 1024));
  net.push_back(fc_spec("fc7", 1024, 1024));
  net.push_back(fc_spec("fc8", 1024, 100, /*relu=*/false));
  mbd::nn::check_chain(net);
  return net;
}

// Largest single ∆W all-reduce payload of a 2-D-grid layout: a replicated
// conv kernel, or an FC layer's row block on a pr-row grid.
std::size_t largest_grad_words(const std::vector<LayerSpec>& specs, int pr) {
  std::size_t words = 0;
  for (const auto& s : specs) {
    if (s.kind == LayerKind::Conv) words = std::max(words, s.weight_count());
    if (s.kind == LayerKind::FullyConnected)
      words = std::max(words, block_range(s.fc_out, pr, 0).size() * s.fc_in);
  }
  return words;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.opts.seed = seed;
  w.opts.grid = {2, 2};
  w.opts.mode = ReduceMode::Overlapped;
  if (name == "train_alexnet") {
    w.specs = alexnet_small_spec();
    w.trainer = mbd::parallel::find_trainer("mixed");
    w.batch = 32;
    // The unnormalized 13467-wide input makes the first logits large; a
    // smaller step keeps the loss falling, so the loss oracle compares two
    // converging trajectories instead of amplifying rounding differences.
    w.lr = 0.0002f;
    w.classes = 100;
    w.dataset_size = 4 * w.batch;
    w.probe_words = largest_grad_words(w.specs, w.opts.grid.pr);
  } else if (name == "train_rnn" || name == "serve_open") {
    w.specs = mbd::nn::rnn_proxy_spec(512, 1024, 4, 100);
    w.trainer = mbd::parallel::find_trainer("integrated");
    w.classes = 100;
    if (name == "serve_open") {
      w.serving = true;
      w.batch = 32;  // the gateway's max batch
      w.dataset_size = 1024;
      w.probe_words = w.classes * w.batch;  // one full logits batch
    } else {
      w.batch = 64;
      w.dataset_size = 8 * w.batch;
      w.probe_words = largest_grad_words(w.specs, w.opts.grid.pr);
    }
  } else if (name == "train_pipeline") {
    w.specs = mbd::nn::mlp_spec(std::vector<std::size_t>(9, 1024));
    w.trainer = mbd::parallel::find_trainer("pipeline");
    w.opts.microbatches = 4;
    w.batch = 64;
    w.classes = 1024;
    w.dataset_size = 8 * w.batch;
    // One boundary activation block: 1024 rows × B/M columns.
    w.probe_words = 1024 * (w.batch / w.opts.microbatches);
  } else {
    return std::nullopt;
  }
  return w;
}

mbd::nn::Dataset make_dataset(const Workload& w, std::uint64_t seed) {
  return mbd::nn::make_synthetic_dataset(w.specs.front().d_in(), w.classes,
                                         w.dataset_size, seed);
}

std::vector<std::pair<std::string, GemmShape>> alexnet_forward_shapes() {
  const int pr = 2, pc = 2;
  const std::size_t batch = 32;
  std::vector<std::pair<std::string, GemmShape>> out;
  for (const auto& s : alexnet_small_spec()) {
    if (s.kind == LayerKind::Conv) {
      // Conv2D::forward: per sample, W (out_c × C·kh·kw) · im2col columns.
      out.emplace_back(s.name,
                       GemmShape{'n', s.conv.out_c,
                                 s.conv.out_h() * s.conv.out_w(),
                                 s.conv.in_c * s.conv.kernel_h *
                                     s.conv.kernel_w});
    } else if (s.kind == LayerKind::FullyConnected) {
      // FcStage::forward on grid rank (0, 0): its row block of W times its
      // column block of the batch.
      out.emplace_back(s.name,
                       GemmShape{'n', block_range(s.fc_out, pr, 0).size(),
                                 block_range(batch, pc, 0).size(), s.fc_in});
    }
  }
  return out;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"samples_per_s", "samples/s"},
      {"latency_ms.p50", "ms"},
      {"latency_ms.p90", "ms"},
      {"single_samples_per_s", "samples/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"parallel.fwd_s", "s"},
      {"parallel.bwd_s", "s"},
      {"parallel.update_s", "s"},
      {"parallel.drain_s", "s"},
      {"parallel.idle_frac", "fraction"},
      {"parallel.redistribute_s", "s"},
      {"parallel.rank_skew_s", "s"},
      {"parallel.layout_build_s", "s"},
      {"tensor.gemm.gflops", "GFLOP/s"},
      {"tensor.gemm.s_per_step", "s"},
      {"tensor.gemm.mt.gflops", "GFLOP/s"},
      {"tensor.gemm.conv1.gflops", "GFLOP/s"},
      {"tensor.gemm.conv2.gflops", "GFLOP/s"},
      {"tensor.gemm.conv3.gflops", "GFLOP/s"},
      {"tensor.gemm.conv4.gflops", "GFLOP/s"},
      {"tensor.gemm.conv5.gflops", "GFLOP/s"},
      {"tensor.gemm.fc6.gflops", "GFLOP/s"},
      {"tensor.gemm.fc7.gflops", "GFLOP/s"},
      {"tensor.gemm.fc8.gflops", "GFLOP/s"},
      {"tensor.gemm.conv1.mt.gflops", "GFLOP/s"},
      {"tensor.im2col.s_per_step", "s"},
      {"tensor.col2im.s_per_step", "s"},
      {"tensor.flops_per_step", "count"},
      {"comm.allreduce.bytes_per_step", "B"},
      {"comm.allgather.bytes_per_step", "B"},
      {"comm.p2p.bytes_per_step", "B"},
      {"comm.broadcast.bytes_per_step", "B"},
      {"comm.msgs_per_step", "count"},
      {"comm.allreduce.s", "s"},
      {"comm.iallreduce.s", "s"},
      {"comm.allgather.s", "s"},
      {"comm.allreduce.gbps", "GB/s"},
      {"comm.sendrecv.s", "s"},
      {"comm.broadcast.s", "s"},
      {"serve.forward_ms.p50", "ms"},
      {"serve.mean_batch", "samples"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.rejected.queue_full", "count"},
      {"serve.rejected.deadline", "count"},
      {"serve.calibrate_s", "s"},
      {"serve.gen_lag_ms.max", "ms"},
      {"serve.goodput_frac", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  return defs;
}

}  // namespace perfbench
