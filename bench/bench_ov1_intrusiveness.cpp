// OV1 — the paper's §V intrusiveness discussion, quantified.
//
// "Our frequent use of breakpoints introduces a slowdown in the application.
//  This is mainly due to the breakpoints related to data exchanges..."
// Option 1: disable the data-exchange breakpoints.
// Option 2 (framework cooperation, unimplemented in the paper, built here):
//  actor-specific data-exchange breakpoints only on the interfaces of
//  interest.
//
// Expected shape: native < detached < option2 < option1 < full debug, with
// the data-exchange breakpoints dominating the full-debug cost.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "dfdbg/obs/journal.hpp"

using namespace dfdbg;

namespace {

struct Mode {
  const char* name;
  bool attach;
  int option;  // 0=full, 1=data hooks off, 2=selective, -1=n/a
};

constexpr Mode kModes[] = {
    {"native (no debugger)", false, -1},
    {"full debug (all breakpoints)", true, 0},
    {"option 1 (data-exchange off)", true, 1},
    {"option 2 (cooperation, 2 ifaces)", true, 2},
};

double run_mode(const Mode& mode, const h264::H264AppConfig& cfg, std::uint64_t* hooks,
                bool* exact) {
  return benchutil::run_decoder_once(
      cfg, mode.attach,
      [&](dbg::Session& s) {
        if (mode.option == 1) {
          s.set_data_exchange_hooks(false);
        } else if (mode.option == 2) {
          DFDBG_CHECK(
              s.use_selective_data_hooks({"pipe::Red2PipeCbMB_in", "ipred::Pipe_in"}).ok());
        }
      },
      hooks, exact);
}

void BM_Intrusiveness(benchmark::State& state) {
  const Mode& mode = kModes[state.range(0)];
  h264::H264AppConfig cfg = benchutil::decoder_config(2, 2, 2);
  std::uint64_t hooks = 0;
  bool exact = false;
  for (auto _ : state) {
    double t = run_mode(mode, cfg, &hooks, &exact);
    benchmark::DoNotOptimize(t);
  }
  state.SetLabel(mode.name);
  state.counters["hook_invocations"] = static_cast<double>(hooks);
  state.counters["bit_exact"] = exact ? 1 : 0;
}
BENCHMARK(BM_Intrusiveness)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// The observability layer's own intrusiveness: the same native decode with
// the obs registry disabled (the default — every instrument is one
// predictable branch) vs enabled (counters, gauges, histograms live).
// Acceptance bar: disabled must be within noise of the pre-obs baseline.
void BM_MetricsOverhead(benchmark::State& state) {
  bool metrics_on = state.range(0) != 0;
  h264::H264AppConfig cfg = benchutil::decoder_config(2, 2, 2);
  obs::Registry::global().reset();
  obs::set_enabled(metrics_on);
  for (auto _ : state) {
    double t = benchutil::run_decoder_once(cfg, /*attach_debugger=*/false, nullptr);
    benchmark::DoNotOptimize(t);
  }
  obs::set_enabled(false);
  state.SetLabel(metrics_on ? "metrics enabled" : "metrics disabled (default)");
  auto& reg = obs::Registry::global();
  state.counters["sim_dispatch"] = static_cast<double>(reg.counter("sim.dispatch").value());
  state.counters["link_push"] = static_cast<double>(reg.counter("link.push").value());
  state.counters["hook_invocation"] =
      static_cast<double>(reg.counter("hook.invocation").value());
}
BENCHMARK(BM_MetricsOverhead)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);

// The flight recorder's intrusiveness on top of live metrics: both arms run
// with the registry enabled; arm 0 silences the journal (recording off, so a
// push costs the counters plus one branch), arm 1 records every push/pop/
// fire/dispatch into the ring (one fixed-size POD store each, no allocation).
// Acceptance bar (ISSUE PR3): journal-on token throughput within 2x of
// journal-off with metrics on.
void BM_JournalOverhead(benchmark::State& state) {
  bool journal_on = state.range(0) != 0;
  h264::H264AppConfig cfg = benchutil::decoder_config(2, 2, 2);
  obs::Registry::global().reset();
  obs::Journal& journal = obs::Journal::global();
  journal.set_capacity(obs::Journal::kDefaultCapacity);  // also clears the window
  obs::set_enabled(true);
  journal.set_recording(journal_on);
  double secs = 0.0;
  for (auto _ : state) {
    double t = benchutil::run_decoder_once(cfg, /*attach_debugger=*/false, nullptr);
    secs += t;
    benchmark::DoNotOptimize(t);
  }
  journal.set_recording(true);
  obs::set_enabled(false);
  state.SetLabel(journal_on ? "journal recording" : "journal off (metrics only)");
  auto& reg = obs::Registry::global();
  double tokens = static_cast<double>(reg.counter("link.push").value());
  state.counters["tokens"] = tokens;
  state.counters["tokens_per_sec"] = secs > 0 ? tokens / secs : 0;
  state.counters["journal_recorded"] =
      static_cast<double>(reg.counter("journal.recorded").value());
  state.counters["journal_dropped"] =
      static_cast<double>(reg.counter("journal.dropped").value());
}
BENCHMARK(BM_JournalOverhead)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== OV1: debugger intrusiveness on the H.264 decoder ===\n");
  // A bigger workload for the headline table (repeated for stability).
  h264::H264AppConfig cfg = benchutil::decoder_config(3, 2, 3);
  constexpr int kReps = 5;
  // Our in-process hooks cost nanoseconds, so the raw wall-clock barely
  // moves; the paper's debugger pays a real GDB breakpoint round-trip per
  // event. The modeled column charges each hook invocation the typical cost
  // of a conditional GDB breakpoint over its Python bindings (~100 us) on
  // top of the measured native time — reproducing the paper's shape with an
  // explicit, documented assumption (see EXPERIMENTS.md, OV1).
  constexpr double kGdbTrapSeconds = 100e-6;
  double base = 0;
  std::printf("%-36s %11s %9s %16s %15s %9s\n", "mode", "wall (ms)", "slowdown",
              "hook invocations", "modeled slowdown", "bit-exact");
  for (const Mode& mode : kModes) {
    double best = 1e9;
    std::uint64_t hooks = 0;
    bool exact = false;
    for (int r = 0; r < kReps; ++r) {
      double t = run_mode(mode, cfg, &hooks, &exact);
      if (t < best) best = t;
    }
    if (mode.option == -1) base = best;
    double modeled = (base + static_cast<double>(hooks) * kGdbTrapSeconds) / base;
    std::printf("%-36s %11.3f %8.2fx %16llu %14.1fx %9s\n", mode.name, best * 1e3, best / base,
                static_cast<unsigned long long>(hooks), modeled, exact ? "yes" : "NO");
  }
  std::printf(
      "\npaper claim: the slowdown is dominated by the data-exchange\n"
      "breakpoints; option 1 removes most of it, option 2 (framework\n"
      "cooperation) keeps selected visibility at near-option-1 cost.\n"
      "Debugging never alters the decoded output (deterministic kernel).\n\n");

  // Self-observability cost: native decode with the metrics registry off
  // (the default; every instrument is one predictable branch) vs on.
  std::printf("=== OV1b: observability-layer overhead (native decode) ===\n");
  double off_best = 1e9, on_best = 1e9;
  for (int r = 0; r < kReps; ++r) {
    obs::set_enabled(false);
    double t = benchutil::run_decoder_once(cfg, false, nullptr);
    if (t < off_best) off_best = t;
    obs::set_enabled(true);
    t = benchutil::run_decoder_once(cfg, false, nullptr);
    if (t < on_best) on_best = t;
    obs::set_enabled(false);
  }
  std::printf("%-36s %11.3f\n", "metrics disabled (ms)", off_best * 1e3);
  std::printf("%-36s %11.3f  (+%.2f%%)\n", "metrics enabled (ms)", on_best * 1e3,
              (on_best / off_best - 1.0) * 100.0);
  std::printf("target: disabled-mode overhead within noise (<2%%) of baseline\n\n");

  return benchutil::run_all_benchmarks(&argc, argv);
}
