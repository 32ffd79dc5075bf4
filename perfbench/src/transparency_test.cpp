// Decorator transparency: for every workload's trainer, a run with every
// stage wrapped in a StageTap and a run without it give bitwise-identical
// DistResult losses and params on every rank; for serve_open, identical
// logits from the inference session. The traced benchmark run therefore
// measures the same program as the untraced one. Exit 0 when all hold.
#include <cstdio>
#include <string>
#include <vector>

#include "mbd/comm/world.hpp"
#include "mbd/parallel/engine_layout.hpp"
#include "mbd/serve/inference.hpp"
#include "runs.hpp"
#include "stage_tap.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool same_training(const Workload& w) {
  constexpr std::size_t kSteps = 3;
  const StepsRun plain = run_steps(w, 5, kSteps, Tap::None);
  const StepsRun tapped = run_steps(w, 5, kSteps, Tap::Full);
  bool ok = true;
  for (std::size_t r = 0; r < plain.results.size(); ++r) {
    ok = ok && plain.results[r].losses.size() == kSteps &&
         plain.results[r].losses == tapped.results[r].losses &&
         plain.results[r].params == tapped.results[r].params;
  }
  // The tapped run really was tapped: every rank traced every step.
  for (const RankTrace& t : tapped.traces) ok = ok && t.steps.size() == kSteps;
  return ok;
}

std::vector<float> serve_logits(const Workload& w, bool tapped) {
  const mbd::nn::Dataset data = make_dataset(w, 5);
  const auto input = data.inputs.col_block(0, 5);
  std::vector<float> out;
  std::vector<RankTrace> traces(kRanks);
  mbd::comm::World world(kRanks);
  world.run([&](mbd::comm::Comm& c) {
    set_omp_threads(1);
    auto layout = w.trainer->layout(c, w.opts, w.specs, w.batch);
    if (tapped) tap_full(layout, traces[static_cast<std::size_t>(c.rank())]);
    mbd::serve::InferenceSession session(c, std::move(layout));
    const auto logits = session.forward(input);
    if (c.rank() == 0) out.assign(logits.span().begin(), logits.span().end());
  });
  if (tapped && traces[0].steps.size() != 1) out.clear();
  return out;
}

}  // namespace

int main() {
  int failures = 0;
  for (const char* name :
       {"train_alexnet", "train_rnn", "train_pipeline", "serve_open"}) {
    const auto w = make_workload(name, 3);
    bool ok = false;
    if (w->serving) {
      const auto plain = serve_logits(*w, false);
      ok = !plain.empty() && plain == serve_logits(*w, true);
    } else {
      ok = same_training(*w);
    }
    std::printf("%-16s %s\n", name, ok ? "identical" : "DIFFERS");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
