#include "stage_tap.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

namespace perfbench {
namespace {

using mbd::parallel::EngineStage;
using mbd::parallel::Flow;
using mbd::parallel::GradReducer;
using mbd::parallel::StepContext;

class StageTap final : public EngineStage {
 public:
  StageTap(std::unique_ptr<EngineStage> inner, RankTrace* trace, bool first,
           bool full)
      : inner_(std::move(inner)),
        trace_(trace),
        first_(first),
        full_(full),
        pipe_(std::strcmp(inner_->name(), "pipe_recv") == 0 ||
              std::strcmp(inner_->name(), "pipe_send") == 0),
        redistribute_(std::strcmp(inner_->name(), "redistribute") == 0) {}

  const char* name() const override { return inner_->name(); }

  void begin_iteration(const StepContext& ctx) override {
    if (first_) {
      trace_->steps.emplace_back();
      trace_->steps.back().begin = Clock::now();
    }
    inner_->begin_iteration(ctx);
  }

  bool supports_microbatching() const override {
    return inner_->supports_microbatching();
  }

  Flow forward(Flow in, const StepContext& ctx) override {
    if (!full_) return inner_->forward(std::move(in), ctx);
    const auto t0 = Clock::now();
    Flow out = inner_->forward(std::move(in), ctx);
    const auto t1 = Clock::now();
    StepRec& s = step();
    s.fwd += account(s, t0, t1);
    return out;
  }

  Flow backward(Flow grad, const StepContext& ctx,
                GradReducer& red) override {
    if (!full_) return inner_->backward(std::move(grad), ctx, red);
    const auto t0 = Clock::now();
    Flow out = inner_->backward(std::move(grad), ctx, red);
    const auto t1 = Clock::now();
    StepRec& s = step();
    s.bwd += account(s, t0, t1);
    s.last_bwd_end = t1;
    return out;
  }

  void update(float lr, float momentum) override {
    if (!full_) {
      inner_->update(lr, momentum);
      return;
    }
    const auto t0 = Clock::now();
    inner_->update(lr, momentum);
    const auto t1 = Clock::now();
    StepRec& s = step();
    if (!s.has_update) {
      s.has_update = true;
      s.first_update_begin = t0;
    }
    s.update += account(s, t0, t1);
  }

  void collect_params(std::vector<float>& out) override {
    inner_->collect_params(out);
  }
  void save_state(std::vector<float>& out) override {
    inner_->save_state(out);
  }
  void restore_state(std::span<const float>& in) override {
    inner_->restore_state(in);
  }

 private:
  StepRec& step() {
    // A stage call before any begin_iteration cannot happen in the engine
    // or the session; keep a record anyway rather than index an empty list.
    if (trace_->steps.empty()) trace_->steps.emplace_back();
    return trace_->steps.back();
  }

  // Attribute [t0, t1) to the pipe/redistribute buckets, extend the step's
  // end, and return the span's length for the fwd/bwd/update bucket.
  double account(StepRec& s, Clock::time_point t0, Clock::time_point t1) {
    const double d = seconds_between(t0, t1);
    if (pipe_) s.pipe += d;
    if (redistribute_) s.redistribute += d;
    if (t1 > s.end) s.end = t1;
    return d;
  }

  std::unique_ptr<EngineStage> inner_;
  RankTrace* trace_;
  bool first_, full_, pipe_, redistribute_;
};

void wrap(mbd::parallel::EngineLayout& layout, RankTrace& trace, bool full) {
  auto& stages = layout.stages;
  const std::size_t n = full ? stages.size() : std::min<std::size_t>(1, stages.size());
  for (std::size_t i = 0; i < n; ++i)
    stages[i] = std::make_unique<StageTap>(std::move(stages[i]), &trace,
                                           /*first=*/i == 0, full);
}

}  // namespace

void tap_full(mbd::parallel::EngineLayout& layout, RankTrace& trace) {
  wrap(layout, trace, /*full=*/true);
}

void tap_clock(mbd::parallel::EngineLayout& layout, RankTrace& trace) {
  wrap(layout, trace, /*full=*/false);
}

}  // namespace perfbench
