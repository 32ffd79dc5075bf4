// Training workloads: a short sizing run, the timed sub-runs (each paired
// with a fully tapped one in traced mode), the sequential reference, and
// the checks.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "layers.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/costmodel/volumes.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "runs.hpp"

namespace perfbench {
namespace {

using mbd::comm::Coll;
using mbd::comm::StatsSnapshot;

// Share of the run's --seconds the sequential reference runs for.
constexpr double kReferenceShare = 0.2;

mbd::nn::TrainConfig train_config(const Workload& w, std::size_t iters) {
  mbd::nn::TrainConfig cfg;
  cfg.batch = w.batch;
  cfg.lr = w.lr;
  cfg.momentum = 0.9f;
  cfg.iterations = iters;
  return cfg;
}

double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

// Step wall times from rank 0's begin_iteration clock: step i lasts from
// its begin to step i+1's, for i in [first, last).
std::vector<double> step_times(const RankTrace& clock, std::size_t first,
                               std::size_t last) {
  std::vector<double> out;
  for (std::size_t i = first; i < last && i + 1 < clock.steps.size(); ++i)
    out.push_back(
        seconds_between(clock.steps[i].begin, clock.steps[i + 1].begin));
  return out;
}

// Every step's loss is finite and bitwise-identical on all ranks, and the
// first kOracleSteps steps match the sequential reference within kLossRelTol.
void check_losses(Outcome& out, const StepsRun& run, std::size_t iters,
                  const std::vector<double>& ref) {
  const auto& l0 = run.results[0].losses;
  for (std::size_t i = 0; i < iters; ++i) {
    bool ok = i < l0.size() && std::isfinite(l0[i]);
    for (std::size_t r = 1; ok && r < run.results.size(); ++r) {
      const auto& lr = run.results[r].losses;
      ok = i < lr.size() && lr[i] == l0[i];
    }
    std::string what = "not finite or not rank-identical";
    if (ok && i < std::min(ref.size(), kOracleSteps)) {
      ok = std::abs(l0[i] - ref[i]) <= kLossRelTol * (1.0 + std::abs(ref[i]));
      what = std::to_string(l0[i]) + " vs sequential reference " +
             std::to_string(ref[i]);
    }
    out.check(ok, "step " + std::to_string(i) + " loss " + what);
  }
}

// Per-step AllReduce/AllGather/P2P bytes, differenced between two runs of
// different lengths, equal the costmodel closed form summed over ranks.
void check_bytes(Outcome& out, const Workload& w, const StatsSnapshot& delta,
                 std::size_t steps) {
  mbd::costmodel::RankVolume expect;
  for (int r = 0; r < kRanks; ++r)
    expect += mbd::costmodel::trainer_rank_volume(
        w.trainer->kind, w.specs, w.batch, w.opts.grid.pr, w.opts.grid.pc, r);
  const std::pair<Coll, std::uint64_t> classes[] = {
      {Coll::AllReduce, expect.allreduce_bytes},
      {Coll::AllGather, expect.allgather_bytes},
      {Coll::PointToPoint, expect.p2p_bytes}};
  for (const auto& [c, bytes] : classes) {
    const std::uint64_t got = delta[c].bytes;
    out.check(got == bytes * steps,
              std::string(mbd::comm::coll_name(c)) + " bytes: measured " +
                  std::to_string(got) + " over " + std::to_string(steps) +
                  " steps, closed form " + std::to_string(bytes) + "/step");
  }
}

// The sequential reference on nproc OpenMP threads: throughput baseline and
// loss oracle. It runs one nn::train_sgd call per step on that step's batch
// (the same slice, learning rate and momentum state as one multi-step call;
// the nets have no dropout, the only layer that reads the iteration index),
// so each step is timed on its own. It runs in slices spread over the whole
// run and its rate comes from the median step, so a slow spell of the host
// cannot own it.
class TrainReference {
 public:
  TrainReference(const Workload& w, std::uint64_t data_seed)
      : w_(w),
        data_(make_dataset(w, data_seed)),
        net_(mbd::nn::build_network(w.specs, {.seed = w.opts.seed})) {}

  /// Run steps for about `seconds` (at least two).
  void run_for(double seconds) {
    set_omp_threads(nproc());
    const auto t0 = Clock::now();
    const std::size_t first = losses.size();
    do {
      mbd::parallel::BatchSlice b = mbd::parallel::batch_slice(
          data_, losses.size() * w_.batch, w_.batch);
      const mbd::nn::Dataset step{std::move(b.inputs), std::move(b.labels)};
      const auto t = Clock::now();
      losses.push_back(
          mbd::nn::train_sgd(net_, step, train_config(w_, 1)).at(0));
      step_s.push_back(seconds_since(t));
    } while (seconds_since(t0) < seconds || losses.size() < first + 2);
    set_omp_threads(1);
  }

  std::vector<double> losses, step_s;

 private:
  const Workload& w_;
  mbd::nn::Dataset data_;
  mbd::nn::Network net_;
};

}  // namespace

StepsRun run_steps(const Workload& w, std::uint64_t data_seed,
                   std::size_t iters, Tap tap) {
  StepsRun out;
  const auto t0 = Clock::now();
  const mbd::nn::Dataset data = make_dataset(w, data_seed);
  mbd::comm::World world(kRanks);
  out.results.resize(kRanks);
  out.traces.resize(kRanks);
  out.build_s.resize(kRanks);
  const mbd::nn::TrainConfig cfg = train_config(w, iters);
  world.run([&](mbd::comm::Comm& c) {
    set_omp_threads(1);
    const auto r = static_cast<std::size_t>(c.rank());
    const auto tb = Clock::now();
    mbd::parallel::EngineLayout layout =
        w.trainer->layout(c, w.opts, w.specs, w.batch);
    out.build_s[r] = seconds_since(tb);
    if (tap == Tap::Full) tap_full(layout, out.traces[r]);
    if (tap == Tap::Clock && r == 0) tap_clock(layout, out.traces[r]);
    out.results[r] =
        mbd::parallel::train_layout(c, std::move(layout), data, cfg);
  });
  out.stats = world.stats();
  const auto& clock = out.traces[0].steps;
  out.setup_s = clock.size() > kWarmupSteps
                    ? seconds_between(t0, clock[kWarmupSteps].begin)
                    : std::numeric_limits<double>::quiet_NaN();
  return out;
}

Outcome run_train(const Workload& w, const Options& o) {
  Outcome out;
  const std::uint64_t data_seed = o.seed * 7919 + 17;
  TrainReference ref(w, data_seed);
  const double ref_slice = kReferenceShare * o.seconds / (kSubRuns + 1);

  // A short run first: it sizes the sub-runs from its warm-up pace and is
  // the baseline the byte check differences the sub-runs against (set-up
  // traffic cancels).
  const std::size_t short_iters = kWarmupSteps + 1;
  ref.run_for(ref_slice);
  const StepsRun short_run = run_steps(w, data_seed, short_iters, Tap::Clock);
  std::vector<double> setups = {short_run.setup_s};
  std::vector<double> builds = {max_of(short_run.build_s)};
  const double warm_step =
      step_times(short_run.traces[0], kWarmupSteps - 1, kWarmupSteps).at(0);

  // kSubRuns timed runs spread over the whole run, each on a fresh World
  // with its own set-up; a metric is the median over them, so a slow spell
  // of the host spoils at most the sub-runs it overlaps. Traced mode pairs
  // every untraced sub-run with a fully tapped one on half the budget.
  const double budget = (o.trace ? o.seconds / 2 : o.seconds) / kSubRuns;
  const auto n_timed = static_cast<std::size_t>(
      std::max(8.0, std::ceil(budget / warm_step)));
  const std::size_t iters = kWarmupSteps + n_timed + 1;
  const std::size_t first = kWarmupSteps, last = kWarmupSteps + n_timed;
  std::vector<double> rate, p50, p90, tapped_p50;
  std::vector<RankTrace> tapped_steps(kRanks);
  TallyCounts timed_calls;
  StatsSnapshot per_run_traffic;
  for (int k = 0; k < kSubRuns; ++k) {
    ref.run_for(ref_slice);
    const StepsRun run = run_steps(w, data_seed, iters, Tap::Clock);
    setups.push_back(run.setup_s);
    builds.push_back(max_of(run.build_s));
    check_losses(out, run, iters, ref.losses);
    per_run_traffic = run.stats.since(short_run.stats);
    check_bytes(out, w, per_run_traffic, iters - short_iters);
    const std::vector<double> steps = step_times(run.traces[0], first, last);
    double sum = 0.0;
    for (const double t : steps) sum += t;
    rate.push_back(static_cast<double>(w.batch * steps.size()) / sum);
    p50.push_back(quantile(steps, 0.5));
    p90.push_back(quantile(steps, 0.9));
    if (!o.trace) continue;

    tally_start();
    const StepsRun tapped = run_steps(w, data_seed, iters, Tap::Full);
    timed_calls.add(tally_stop());
    // The tapped run must be the same program, bit for bit.
    for (std::size_t r = 0; r < run.results.size(); ++r)
      out.check(tapped.results[r].losses == run.results[r].losses &&
                    tapped.results[r].params == run.results[r].params,
                "rank " + std::to_string(r) +
                    ": tapped run differs from the untapped run");
    tapped_p50.push_back(
        quantile(step_times(tapped.traces[0], first, last), 0.5));
    for (std::size_t r = 0; r < tapped.traces.size(); ++r) {
      const auto& st = tapped.traces[r].steps;
      tapped_steps[r].steps.insert(
          tapped_steps[r].steps.end(),
          st.begin() + static_cast<std::ptrdiff_t>(first),
          st.begin() + static_cast<std::ptrdiff_t>(last));
    }
  }
  if (o.trace) tally_start();
  ref.run_for(ref_slice);
  const TallyCounts ref_calls = o.trace ? tally_stop() : TallyCounts{};

  Sheet& sheet = out.sheet;
  if (!o.trace) {
    sheet.set("samples_per_s", median(rate), "samples/s");
    sheet.set("latency_ms.p50", 1e3 * median(p50), "ms");
    sheet.set("latency_ms.p90", 1e3 * median(p90), "ms");
    sheet.set("single_samples_per_s",
              static_cast<double>(w.batch) / median(ref.step_s), "samples/s");
    sheet.set("setup_s", median(setups), "s");
    sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  put_parallel_metrics(sheet, tapped_steps, 0, kSubRuns * n_timed);
  sheet.set("parallel.layout_build_s", median(builds), "s");
  put_tensor_metrics(sheet, out, timed_calls,
                     static_cast<double>(kSubRuns * iters), ref_calls);
  put_comm_metrics(sheet, per_run_traffic,
                   static_cast<double>(iters - short_iters), w.probe_words);
  put_no_serving(sheet);
  sheet.set("trace.overhead_frac", median(tapped_p50) / median(p50) - 1.0,
            "fraction");
  return out;
}

}  // namespace perfbench
