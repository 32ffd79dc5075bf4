// serve_open: the train_rnn net's integrated 2×2 layout behind a Gateway.
//
// One generator thread drives the gateway: after calibration it sends
// single-sample requests open-loop on a fixed schedule (warm-up, then the
// measured phase), then keeps a fixed window of requests in flight to find
// the saturation throughput. Every request's latency is timed from its due
// time, so a stalled server charges the wait to every request behind it.
// A run is kSubRuns such sessions, each with its own set-up.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "layers.hpp"
#include "mbd/comm/world.hpp"
#include "mbd/nn/network.hpp"
#include "mbd/obs/metrics.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/serve/gateway.hpp"
#include "mbd/serve/inference.hpp"
#include "runs.hpp"

namespace perfbench {
namespace {

using mbd::serve::Reply;
using mbd::tensor::Matrix;

// Open-loop arrival rate, about half the saturation throughput of the
// 2×2 integrated layout on a 4-core x86 host (≈4000 requests/s).
constexpr double kRate = 2000.0;
// The latency limit goodput is judged against.
constexpr double kLatencyLimitS = 0.100;
// A run whose generator fell further behind schedule than this share of the
// latency limit did not offer the load it claims: it is marked invalid.
constexpr double kMaxLagShare = 0.5;
// Requests kept in flight during the saturation phase (2 × max batch).
constexpr std::size_t kWindow = 64;
// Open-loop warm-up before the measured phase (excluded from every figure).
constexpr double kWarmupS = 0.25;
// Replies checked bitwise against a batch-of-one forward.
constexpr std::size_t kChecks = 48;
// Share of the run's --seconds the sequential reference runs for.
constexpr double kReferenceShare = 0.05;

struct Sent {
  Clock::time_point due, sent;
  std::future<Reply> reply;
};

struct Done {
  Clock::time_point due, sent;
  Reply reply;
};

struct SessionRun {
  double setup_s = 0.0, calibrate_s = 0.0;
  std::vector<Done> open;          ///< the measured open-loop phase
  Clock::time_point open_begin{}, open_end{};
  std::size_t sat_rejected = 0;
  std::vector<double> sat_gaps;  ///< seconds between saturation replies
  std::vector<RankTrace> traces;
  std::vector<double> build_s;
  mbd::comm::StatsSnapshot stats;
  std::vector<std::size_t> check_index;  ///< open-phase request indices
  std::vector<std::vector<float>> check_logits;  ///< batch-of-one forwards
};

double counter(const std::string& name) {
  for (const auto& m : mbd::obs::Metrics::instance().snapshot())
    if (m.name == name) return m.value;
  return 0.0;
}

std::vector<float> features(const mbd::nn::Dataset& data, std::size_t i) {
  const std::size_t col = (i * 7) % data.size();
  const Matrix x = data.inputs.col_block(col, col + 1);
  return {x.span().begin(), x.span().end()};
}

// One gateway session: set up, warm up, then the open-loop phase of
// `open_s` seconds followed by `sat_s` seconds at saturation.
SessionRun run_session(const Workload& w, std::uint64_t data_seed, Tap tap,
                       double open_s, double sat_s) {
  SessionRun run;
  const auto t0 = Clock::now();
  const mbd::nn::Dataset data = make_dataset(w, data_seed);
  const auto n_open = static_cast<std::size_t>(std::ceil(open_s * kRate));
  for (std::size_t j = 0; j < kChecks; ++j)
    run.check_index.push_back(j * (n_open / kChecks));
  run.traces.resize(kRanks);
  run.build_s.resize(kRanks);

  mbd::serve::Gateway* gateway = nullptr;
  std::mutex mu;
  std::condition_variable cv;

  std::thread generator([&] {
    {
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return gateway != nullptr; });
    }
    mbd::serve::Gateway& gw = *gateway;
    const auto t_pub = Clock::now();
    while (gw.chosen_batch() == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    const auto t_ready = Clock::now();
    run.calibrate_s = seconds_between(t_pub, t_ready);
    run.setup_s = seconds_between(t0, t_ready);
    auto open_loop = [&](std::size_t n, std::size_t index0) {
      std::vector<Sent> sent;
      sent.reserve(n);
      const auto start = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / kRate));
        std::this_thread::sleep_until(due);
        const auto t = Clock::now();
        sent.push_back({due, t, gw.submit(features(data, index0 + i))});
      }
      return sent;
    };
    (void)open_loop(static_cast<std::size_t>(kWarmupS * kRate), n_open);
    run.open_begin = Clock::now();
    std::vector<Sent> open = open_loop(n_open, 0);
    run.open_end = Clock::now();

    std::deque<std::future<Reply>> window;
    std::size_t next = 0;
    const auto sat_start = Clock::now();
    auto last = sat_start;
    while (seconds_since(sat_start) < sat_s) {
      while (window.size() < kWindow)
        window.push_back(gw.submit(features(data, next++)));
      const Reply r = window.front().get();
      window.pop_front();
      const auto now = Clock::now();
      run.sat_gaps.push_back(seconds_between(last, now));
      last = now;
      if (!r.accepted) ++run.sat_rejected;
    }
    for (auto& f : window) (void)f.get();
    for (auto& s : open) run.open.push_back({s.due, s.sent, s.reply.get()});
    gw.shutdown();
  });

  mbd::comm::World world(kRanks);
  world.run([&](mbd::comm::Comm& c) {
    set_omp_threads(1);
    const auto r = static_cast<std::size_t>(c.rank());
    const auto tb = Clock::now();
    mbd::parallel::EngineLayout layout =
        w.trainer->layout(c, w.opts, w.specs, w.batch);
    run.build_s[r] = seconds_since(tb);
    if (tap == Tap::Full) tap_full(layout, run.traces[r]);
    if (tap == Tap::Clock && r == 0) tap_clock(layout, run.traces[r]);
    mbd::serve::InferenceSession session(c, std::move(layout));
    mbd::serve::GatewayOptions opts;
    opts.queue_capacity = 1 << 14;
    opts.max_batch = w.batch;
    mbd::serve::Gateway gw(session, c, opts);
    if (r == 0) {
      {
        const std::lock_guard lk(mu);
        gateway = &gw;
      }
      cv.notify_all();
    }
    gw.serve();
    // The determinism contract: a reply's logits equal the session's
    // batch-of-one forward of the same features, bit for bit.
    for (const std::size_t i : run.check_index) {
      const std::vector<float> x = features(data, i);
      const Matrix logits = session.forward(Matrix::from_data(
          x.size(), 1, std::vector<float>(x.begin(), x.end())));
      if (r == 0)
        run.check_logits.emplace_back(logits.span().begin(),
                                      logits.span().end());
    }
  });
  generator.join();
  run.stats = world.stats();
  return run;
}

// Latency of each open-phase request from its due time, seconds; rejected
// requests count as missing every limit.
std::vector<double> due_latencies(const SessionRun& run) {
  std::vector<double> out;
  for (const Done& d : run.open)
    out.push_back(d.reply.accepted
                      ? seconds_between(d.due, d.sent) + d.reply.latency_s
                      : std::numeric_limits<double>::infinity());
  return out;
}

void check_session(Outcome& out, const SessionRun& run,
                   const mbd::nn::Dataset& data, mbd::nn::Network& ref,
                   const char* label) {
  const std::string tag(label);
  for (const Done& d : run.open)
    out.check(d.reply.accepted, tag + ": request refused (" +
                                    d.reply.reject_reason + ")");
  out.check(run.sat_rejected == 0,
            tag + ": " + std::to_string(run.sat_rejected) +
                " saturation requests refused");
  double lag = 0.0;
  for (const Done& d : run.open)
    lag = std::max(lag, seconds_between(d.due, d.sent));
  out.check(lag <= kMaxLagShare * kLatencyLimitS,
            tag + ": generator lag " + std::to_string(lag * 1e3) +
                " ms exceeds the open-loop limit; run invalid");
  for (std::size_t j = 0; j < run.check_index.size(); ++j) {
    const std::size_t i = run.check_index[j];
    const bool have = i < run.open.size() && j < run.check_logits.size();
    const auto& got = have ? run.open[i].reply.logits : std::vector<float>{};
    out.check(have && got == run.check_logits[j],
              tag + ": reply " + std::to_string(i) +
                  " differs from its batch-of-one forward");
    // Numerical oracle: the sequential network on the same weights.
    if (have && !got.empty()) {
      const std::vector<float> x = features(data, i);
      const Matrix y = ref.forward(Matrix::from_data(
          x.size(), 1, std::vector<float>(x.begin(), x.end())));
      bool close = y.size() == got.size();
      for (std::size_t k = 0; close && k < got.size(); ++k)
        close = std::abs(got[k] - y.span()[k]) <=
                kLossRelTol * (1.0 + std::abs(y.span()[k]));
      out.check(close, tag + ": reply " + std::to_string(i) +
                           " off the sequential forward");
    }
  }
}

// Engine iterations (batches) rank 0 began inside [begin, end).
std::pair<std::size_t, std::size_t> window_steps(const RankTrace& t,
                                                 Clock::time_point begin,
                                                 Clock::time_point end) {
  std::size_t first = t.steps.size(), last = 0;
  for (std::size_t i = 0; i < t.steps.size(); ++i) {
    if (t.steps[i].begin >= begin && t.steps[i].begin < end) {
      first = std::min(first, i);
      last = i + 1;
    }
  }
  return {std::min(first, last), last};
}

}  // namespace

Outcome run_serve(const Workload& w, const Options& o) {
  Outcome out;
  const std::uint64_t data_seed = o.seed * 7919 + 17;

  // Sequential reference: the same net and weights as one nn::Network on
  // nproc OpenMP threads, forwarding full max-size batches. It runs in
  // slices spread over the run; its rate comes from the median batch.
  const mbd::nn::Dataset data = make_dataset(w, data_seed);
  mbd::nn::Network net = mbd::nn::build_network(w.specs, {.seed = w.opts.seed});
  const Matrix batch = data.inputs.col_block(0, w.batch);
  std::vector<double> per_batch;
  const double ref_slice = kReferenceShare * o.seconds / (kSubRuns + 1);
  auto run_reference = [&] {
    set_omp_threads(nproc());
    const auto t0 = Clock::now();
    do {
      const auto t = Clock::now();
      (void)net.forward(batch);
      per_batch.push_back(seconds_since(t));
    } while (seconds_since(t0) < ref_slice);
    set_omp_threads(1);
  };

  // kSubRuns sessions spread over the run, each with its own set-up; a
  // metric is the median over them. A session spends 60% of its share of
  // the budget open-loop and 40% saturated. Traced mode pairs every
  // untraced session with a fully tapped one on half the budget.
  const double share = (o.trace ? o.seconds / 2 : o.seconds) / kSubRuns;
  const double open_s = 0.6 * (share - kWarmupS);
  const double sat_s = 0.4 * (share - kWarmupS);
  std::vector<double> setups, calibrations, builds, capacity, p50, p90;
  std::vector<double> tapped_p50, fwd_ms, wait_ms;
  std::vector<RankTrace> tapped_steps(kRanks);
  TallyCounts timed_calls;
  mbd::comm::StatsSnapshot traffic;
  std::size_t forwards = 0, accepted = 0, batches = 0, good = 0, sent = 0;
  double lag = 0.0;
  for (int k = 0; k < kSubRuns; ++k) {
    run_reference();
    const SessionRun run =
        run_session(w, data_seed, Tap::Clock, open_s, sat_s);
    check_session(out, run, data, net, "session");
    setups.push_back(run.setup_s);
    calibrations.push_back(run.calibrate_s);
    builds.push_back(*std::max_element(run.build_s.begin(), run.build_s.end()));
    const std::vector<double> lat = due_latencies(run);
    double sum = 0.0;
    for (const double g : run.sat_gaps) sum += g;
    capacity.push_back(static_cast<double>(run.sat_gaps.size()) / sum);
    p50.push_back(quantile(lat, 0.5));
    p90.push_back(quantile(lat, 0.9));
    if (!o.trace) continue;

    tally_start();
    const SessionRun tapped = run_session(w, data_seed, Tap::Full, open_s, sat_s);
    timed_calls.add(tally_stop());
    check_session(out, tapped, data, net, "tapped session");
    const std::vector<double> tapped_lat = due_latencies(tapped);
    tapped_p50.push_back(quantile(tapped_lat, 0.5));
    const RankTrace& r0 = tapped.traces[0];
    forwards += r0.steps.size();
    const mbd::comm::StatsSnapshot t = tapped.stats;
    for (std::size_t c = 0; c < t.by_coll.size(); ++c) {
      traffic.by_coll[c].bytes += t.by_coll[c].bytes;
      traffic.by_coll[c].messages += t.by_coll[c].messages;
    }

    // The open-loop phase's batches: per-layer spans, and each request's
    // queue wait — from its enqueue to the start of the batch that carried
    // it (the last batch rank 0 began before the reply; dispatch is FIFO
    // and a batch begins only after the previous one replied).
    const auto [first, last] =
        window_steps(r0, tapped.open_begin, tapped.open_end);
    batches += last - first;
    for (std::size_t r = 0; r < tapped.traces.size(); ++r) {
      const auto& st = tapped.traces[r].steps;
      tapped_steps[r].steps.insert(
          tapped_steps[r].steps.end(),
          st.begin() + static_cast<std::ptrdiff_t>(first),
          st.begin() + static_cast<std::ptrdiff_t>(last));
    }
    for (std::size_t i = first; i < last; ++i)
      fwd_ms.push_back(1e3 *
                       seconds_between(r0.steps[i].begin, r0.steps[i].end));
    for (std::size_t i = 0; i < tapped.open.size(); ++i) {
      const Done& d = tapped.open[i];
      ++sent;
      lag = std::max(lag, seconds_between(d.due, d.sent));
      if (tapped_lat[i] <= kLatencyLimitS) ++good;
      if (!d.reply.accepted) continue;
      ++accepted;
      const auto reply_at =
          d.sent + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(d.reply.latency_s));
      auto it = std::upper_bound(
          r0.steps.begin(), r0.steps.end(), reply_at,
          [](Clock::time_point at, const StepRec& s) { return at < s.begin; });
      if (it == r0.steps.begin()) continue;
      wait_ms.push_back(
          1e3 * std::max(0.0, seconds_between(d.sent, std::prev(it)->begin)));
    }
  }
  if (o.trace) tally_start();
  run_reference();
  const TallyCounts ref_calls = o.trace ? tally_stop() : TallyCounts{};

  Sheet& sheet = out.sheet;
  if (!o.trace) {
    sheet.set("samples_per_s", median(capacity), "samples/s");
    sheet.set("latency_ms.p50", 1e3 * median(p50), "ms");
    sheet.set("latency_ms.p90", 1e3 * median(p90), "ms");
    sheet.set("single_samples_per_s",
              static_cast<double>(w.batch) / median(per_batch), "samples/s");
    sheet.set("setup_s", median(setups), "s");
    sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  put_parallel_metrics(sheet, tapped_steps, 0, batches);
  sheet.set("parallel.layout_build_s", median(builds), "s");
  put_tensor_metrics(sheet, out, timed_calls, static_cast<double>(forwards),
                     ref_calls);
  put_comm_metrics(sheet, traffic, static_cast<double>(forwards),
                   w.probe_words);
  sheet.set("serve.forward_ms.p50", quantile(fwd_ms, 0.5), "ms");
  sheet.set("serve.mean_batch",
            static_cast<double>(accepted) /
                static_cast<double>(std::max<std::size_t>(1, batches)),
            "samples");
  sheet.set("serve.queue_wait_ms.p50", quantile(wait_ms, 0.5), "ms");
  sheet.set("serve.queue_wait_ms.p99", quantile(wait_ms, 0.99), "ms");
  sheet.set("serve.rejected.queue_full", counter("serve.rejected.queue_full"),
            "count");
  sheet.set("serve.rejected.deadline", counter("serve.rejected.deadline"),
            "count");
  sheet.set("serve.calibrate_s", median(calibrations), "s");
  sheet.set("serve.gen_lag_ms.max", 1e3 * lag, "ms");
  sheet.set("serve.goodput_frac",
            static_cast<double>(good) /
                static_cast<double>(std::max<std::size_t>(1, sent)),
            "fraction");
  sheet.set("trace.overhead_frac", median(tapped_p50) / median(p50) - 1.0,
            "fraction");
  return out;
}

}  // namespace perfbench
