#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "mbd/obs/metrics.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

void put_parallel_metrics(Sheet& sheet, const std::vector<RankTrace>& ranks,
                          std::size_t first, std::size_t last) {
  std::vector<double> fwd, bwd, upd, drain, redis, skew;
  double pipe_sum = 0.0, step_sum = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    double f = 0, b = 0, u = 0, d = 0, rd = 0;
    double busy_max = 0, busy_min = std::numeric_limits<double>::infinity();
    for (const RankTrace& t : ranks) {
      if (i >= t.steps.size()) continue;
      const StepRec& s = t.steps[i];
      f = std::max(f, s.fwd);
      b = std::max(b, s.bwd);
      u = std::max(u, s.update);
      rd = std::max(rd, s.redistribute);
      // The exposed ∆W wait: the engine drains the gradient reducer between
      // a rank's last Bwd tick and its first update.
      if (s.has_update && s.bwd > 0.0)
        d = std::max(d, seconds_between(s.last_bwd_end, s.first_update_begin));
      const double busy = s.fwd + s.bwd + s.update - s.pipe;
      busy_max = std::max(busy_max, busy);
      busy_min = std::min(busy_min, busy);
      pipe_sum += s.pipe;
      step_sum += seconds_between(s.begin, s.end);
    }
    fwd.push_back(f);
    bwd.push_back(b);
    upd.push_back(u);
    drain.push_back(d);
    redis.push_back(rd);
    skew.push_back(busy_max >= busy_min ? busy_max - busy_min : 0.0);
  }
  sheet.set("parallel.fwd_s", median(fwd), "s");
  sheet.set("parallel.bwd_s", median(bwd), "s");
  sheet.set("parallel.update_s", median(upd), "s");
  sheet.set("parallel.drain_s", median(drain), "s");
  sheet.set("parallel.idle_frac", step_sum > 0 ? pipe_sum / step_sum : 0.0,
            "fraction");
  sheet.set("parallel.redistribute_s", median(redis), "s");
  sheet.set("parallel.rank_skew_s", median(skew), "s");
}

void put_tensor_metrics(Sheet& sheet, Outcome& out, const TallyCounts& timed,
                        double steps, const TallyCounts& reference) {
  std::map<std::pair<GemmShape, int>, double> probe_cache;
  auto probe = [&](const GemmShape& g, int threads) {
    const auto key = std::make_pair(g, threads);
    auto it = probe_cache.find(key);
    if (it == probe_cache.end())
      it = probe_cache.emplace(key, time_gemm(g, threads)).first;
    return it->second;
  };
  auto rate = [&](const std::map<GemmShape, std::uint64_t>& calls,
                  int threads, double* seconds_out, double* flops_out) {
    double flops = 0.0, secs = 0.0;
    for (const auto& [g, n] : calls) {
      flops += static_cast<double>(n) * g.flops();
      secs += static_cast<double>(n) * probe(g, threads);
    }
    if (seconds_out != nullptr) *seconds_out = secs;
    if (flops_out != nullptr) *flops_out = flops;
    return secs > 0 ? flops / secs / 1e9 : 0.0;
  };

  double gemm_s = 0.0, gemm_flops = 0.0;
  sheet.set("tensor.gemm.gflops", rate(timed.gemm, 1, &gemm_s, &gemm_flops),
            "GFLOP/s");
  // Per rank: the ranks run their GEMMs concurrently, one thread each.
  sheet.set("tensor.gemm.s_per_step", gemm_s / steps / kRanks, "s");
  sheet.set("tensor.gemm.mt.gflops",
            rate(reference.gemm, nproc(), nullptr, nullptr), "GFLOP/s");
  sheet.set("tensor.flops_per_step", gemm_flops / steps, "count");
  for (const auto& [name, g] : alexnet_forward_shapes()) {
    sheet.set("tensor.gemm." + name + ".gflops", g.flops() / probe(g, 1) / 1e9,
              "GFLOP/s");
    if (name == "conv1")
      sheet.set("tensor.gemm.conv1.mt.gflops",
                g.flops() / probe(g, nproc()) / 1e9, "GFLOP/s");
  }
  double im2col_s = 0.0, col2im_s = 0.0;
  for (const auto& [k, n] : timed.im2col)
    im2col_s += static_cast<double>(n) * time_im2col(k);
  for (const auto& [k, n] : timed.col2im)
    col2im_s += static_cast<double>(n) * time_col2im(k);
  sheet.set("tensor.im2col.s_per_step", im2col_s / steps / kRanks, "s");
  sheet.set("tensor.col2im.s_per_step", col2im_s / steps / kRanks, "s");

  // The tally and the library's own shape inventory must agree: a shape the
  // inventory never saw means the tally counted a call that did not happen.
  std::set<std::string> inventory;
  for (const auto& m : mbd::obs::Metrics::instance().snapshot())
    if (m.name.rfind("gemm.shape.", 0) == 0) inventory.insert(m.name);
  for (const auto* calls : {&timed.gemm, &reference.gemm}) {
    for (const auto& [g, n] : *calls) {
      char name[96];
      std::snprintf(name, sizeof name, "gemm.shape.%s m%zu n%zu k%zu",
                    g.variant_name(), g.m, g.n, g.k);
      out.check(inventory.count(name) == 1,
                std::string("tallied GEMM shape missing from the library's "
                            "shape inventory: ") + name);
    }
  }
}

void put_comm_metrics(Sheet& sheet, const mbd::comm::StatsSnapshot& delta,
                      double steps, std::size_t probe_words) {
  using mbd::comm::Coll;
  auto per_step = [&](Coll c) {
    return static_cast<double>(delta[c].bytes) / steps;
  };
  sheet.set("comm.allreduce.bytes_per_step", per_step(Coll::AllReduce), "B");
  sheet.set("comm.allgather.bytes_per_step", per_step(Coll::AllGather), "B");
  sheet.set("comm.p2p.bytes_per_step", per_step(Coll::PointToPoint), "B");
  sheet.set("comm.broadcast.bytes_per_step", per_step(Coll::Broadcast), "B");
  sheet.set("comm.msgs_per_step",
            static_cast<double>(delta.total_messages()) / steps, "count");

  const CommProbe p = probe_comm(probe_words);
  sheet.set("comm.allreduce.s", p.allreduce_s, "s");
  sheet.set("comm.iallreduce.s", p.iallreduce_s, "s");
  sheet.set("comm.allgather.s", p.allgather_s, "s");
  sheet.set("comm.allreduce.gbps",
            static_cast<double>(probe_words * sizeof(float)) / p.allreduce_s /
                1e9,
            "GB/s");
  sheet.set("comm.sendrecv.s", p.sendrecv_s, "s");
  sheet.set("comm.broadcast.s", p.broadcast_s, "s");
}

void put_no_serving(Sheet& sheet) {
  for (const char* name :
       {"serve.forward_ms.p50", "serve.queue_wait_ms.p50",
        "serve.queue_wait_ms.p99", "serve.gen_lag_ms.max"})
    sheet.set(name, 0.0, "ms");
  sheet.set("serve.mean_batch", 0.0, "samples");
  sheet.set("serve.rejected.queue_full", 0.0, "count");
  sheet.set("serve.rejected.deadline", 0.0, "count");
  sheet.set("serve.calibrate_s", 0.0, "s");
  sheet.set("serve.goodput_frac", 0.0, "fraction");
}

}  // namespace perfbench
