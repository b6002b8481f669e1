// Shared helpers for the experiment benchmarks.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "dfdbg/debug/session.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/metrics.hpp"

// Seeded wide-synthetic-graph generator (N pipelines -> one sink), shared
// with the parallel-backend tests.
#include "wide_graph.hpp"

namespace dfdbg::benchutil {

inline h264::H264AppConfig decoder_config(int mbs_x = 2, int mbs_y = 2, int frames = 2) {
  h264::H264AppConfig cfg;
  cfg.params.width = 16 * mbs_x;
  cfg.params.height = 16 * mbs_y;
  cfg.params.frame_count = frames;
  cfg.params.qp = 20;
  return cfg;
}

/// Wall-clock seconds of a callable.
template <typename F>
double time_s(F&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Builds the decoder, optionally attaches a configured session, runs to
/// completion, and returns the wall time. `setup` may be null.
inline double run_decoder_once(const h264::H264AppConfig& cfg, bool attach_debugger,
                               const std::function<void(dbg::Session&)>& setup,
                               std::uint64_t* hook_invocations = nullptr,
                               bool* bit_exact = nullptr,
                               std::uint64_t* dispatches = nullptr) {
  auto built = h264::H264App::build(cfg);
  DFDBG_CHECK_MSG(built.ok(), built.status().message());
  auto& app = **built;
  std::unique_ptr<dbg::Session> session;
  if (attach_debugger) {
    session = std::make_unique<dbg::Session>(app.app());
    session->attach();
    if (setup) setup(*session);
  }
  app.start();
  double secs = time_s([&] {
    if (session != nullptr) {
      for (;;) {
        auto out = session->run();
        if (out.result != sim::RunResult::kStopped) break;
      }
    } else {
      app.kernel().run();
    }
  });
  if (hook_invocations != nullptr)
    *hook_invocations = app.kernel().instrument().hook_invocations();
  if (bit_exact != nullptr) *bit_exact = app.decoded_matches_golden();
  if (dispatches != nullptr) *dispatches = app.kernel().dispatch_count();
  return secs;
}

/// ConsoleReporter that additionally prints one machine-readable line per
/// run so scripts can scrape results without parsing the human table:
///
///   BENCH_JSON {"name":"BM_X","iterations":12,"ns_per_op":83.1,
///               "counters":{...},"metrics":{...}}
///
/// `counters` are the benchmark's own state.counters; `metrics` is a
/// snapshot of the obs registry's top-level counters (per-symbol and
/// per-command instruments are elided to keep the line bounded). With
/// --benchmark_repetitions the aggregate rows say which statistic they hold
/// ("aggregate":"mean|median|stddev|cv"); a "cv" row is a ratio, not a time,
/// so it carries "cv" (and ratio counters) in place of ns_per_op.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  // OO_Tabular (no OO_Color): a hand-constructed ConsoleReporter ignores
  // --benchmark_color and would otherwise emit ANSI resets that land at the
  // start of the following BENCH_JSON line, breaking anchored scrapers.
  JsonLineReporter() : benchmark::ConsoleReporter(OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::string line = "BENCH_JSON {\"name\":\"" + json_escape(run.benchmark_name()) + "\"";
      // The process-wide default backend; benchmarks that pin a kernel to a
      // specific backend additionally set a "backend_fibers" counter.
      line += std::string(",\"backend\":\"") + sim::to_string(sim::default_process_backend()) +
              "\"";
      line += ",\"iterations\":" + std::to_string(static_cast<long long>(run.iterations));
      if (run.run_type == Run::RT_Aggregate)
        line += ",\"aggregate\":\"" + json_escape(run.aggregate_name) + "\"";
      if (run.run_type == Run::RT_Aggregate && run.aggregate_unit == benchmark::kPercentage) {
        line += ",\"cv\":" + format_double(run.real_accumulated_time);
      } else {
        double ns_per_op =
            run.iterations > 0
                ? run.real_accumulated_time * 1e9 / static_cast<double>(run.iterations)
                : 0.0;
        line += ",\"ns_per_op\":" + format_double(ns_per_op);
      }
      line += ",\"counters\":{";
      bool first = true;
      for (const auto& [name, counter] : run.counters) {
        if (!first) line += ",";
        first = false;
        line += "\"" + json_escape(name) + "\":" + format_double(counter.value);
      }
      line += "},\"metrics\":{";
      first = true;
      for (const auto& [name, counter] : obs::Registry::global().counters()) {
        if (name.rfind("hook.sym.", 0) == 0 || name.rfind("cli.cmd.", 0) == 0) continue;
        if (!first) line += ",";
        first = false;
        line += "\"" + json_escape(name) + "\":" +
                std::to_string(static_cast<unsigned long long>(counter->value()));
      }
      line += "}}";
      std::fprintf(stdout, "%s\n", line.c_str());
    }
  }

 private:
  static std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  static std::string format_double(double v) {
    // JSON has no NaN or infinity: a cv of an all-zero counter is 0/0.
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
  }
};

/// Shared benchmark main body: parse flags, run everything through the
/// BENCH_JSON reporter. Call after registering benchmarks (and any
/// bench-specific setup) from main().
inline int run_all_benchmarks(int* argc, char** argv) {
  benchmark::Initialize(argc, argv);
  if (benchmark::ReportUnrecognizedArguments(*argc, argv)) return 1;
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace dfdbg::benchutil
