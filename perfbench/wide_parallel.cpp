// wide_parallel: the wide graph run to completion on the parallel backend
// with K=4 workers, no debugger, obs off. Each iteration builds a fresh world
// (set-up) and runs it (timed); the sink is checked against a host reference
// computed once, outside every timed region.
#include <memory>
#include <vector>

#include "bench.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "stats.hpp"
#include "wide_graph.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 4;

WideConfig wide_config(std::uint64_t seed) {
  WideConfig cfg;
  cfg.seed = static_cast<std::uint32_t>(seed * 0x9E3779B1u + 1u);
  return cfg;
}

/// One iteration: build a fresh world (set-up), run it to completion
/// (timed), check the sink against the host reference.
struct Iteration {
  std::unique_ptr<WideWorld> world;
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time during the run
  bool ok = false;
};

Iteration iterate(const WideConfig& cfg, const std::vector<std::vector<std::uint32_t>>& inputs,
                  std::uint64_t want_checksum, sim::ProcessBackend backend, int workers,
                  WorkloadRun& r, SpanRecorder* spans, const char* run_span) {
  Iteration it;
  const std::uint64_t op = spans != nullptr ? spans->new_op() : 0;
  const std::uint64_t ts = now_ns();
  {
    Scope span(spans, "setup", op);
    it.world = build_wide(cfg, inputs, backend, workers);
  }
  it.setup_s = seconds_since(ts);
  r.attempted++;
  if (it.world == nullptr) {
    r.fail("wide graph failed to elaborate");
    return it;
  }
  WideWorld& w = *it.world;
  w.app->start();
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  sim::RunResult res;
  {
    Scope span(spans, run_span, op);
    res = w.kernel->run();
  }
  it.run_s = seconds_since(t0);
  it.cpu_s = cpu_seconds() - cpu0;
  const std::size_t want_tokens = static_cast<std::size_t>(cfg.lanes) * cfg.tokens;
  std::uint64_t sum = 0;
  for (const pedf::Value& v : w.sink->received()) sum += v.as_u64();
  if (res != sim::RunResult::kDeadlock && res != sim::RunResult::kFinished) {
    r.fail(std::string("wide graph stopped: ") + sim::to_string(res));
  } else if (w.sink->received().size() != want_tokens || sum != want_checksum) {
    r.fail("sink got " + std::to_string(w.sink->received().size()) + " tokens, checksum " +
           std::to_string(sum) + "; want " + std::to_string(want_tokens) + ", " +
           std::to_string(want_checksum));
  } else {
    it.ok = true;
  }
  return it;
}

}  // namespace

WorkloadRun run_wide_parallel(const Options& opt, SpanRecorder* spans) {
  WorkloadRun r;
  const WideConfig cfg = wide_config(opt.seed);
  const auto inputs = wide_inputs(cfg);
  const std::uint64_t want = wide_reference_checksum(cfg);
  // Untraced: obs off, as the product runs without a debugger. The traced
  // pass needs obs on for the kernel's shard time attribution.
  obs::set_enabled(spans != nullptr);

  std::vector<double> setup_s;
  std::vector<double> run_us;
  std::uint64_t pushes = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t rounds = 0;
  std::uint64_t elided = 0;
  sim::Kernel::ShardTotals sum{};
  const std::uint64_t ctx0 = counter_value("sim.context_switch");
  obs::Registry::global().gauge("sim.barrier.boundary_hwm").reset();

  double cpu_s = 0.0;
  while (r.timed_wall_s < opt.seconds || setup_s.size() < 3) {
    Iteration it = iterate(cfg, inputs, want, sim::ProcessBackend::kParallel, kWorkers, r, spans,
                           "sim.kernel.run");
    setup_s.push_back(it.setup_s);
    if (it.world == nullptr) break;
    run_us.push_back(it.run_s * 1e6);
    r.timed_wall_s += it.run_s;
    cpu_s += it.cpu_s;
    const sim::Kernel& k = *it.world->kernel;
    pushes += link_pushes(*it.world->app);
    dispatches += k.dispatch_count();
    rounds += k.round_count();
    elided += k.elided_round_count();
    for (int p = 0; p < k.partition_count(); ++p) {
      const sim::Kernel::ShardTotals t = k.shard_totals(p);
      sum.stalled_rounds += t.stalled_rounds;
      sum.work_ns += t.work_ns;
      sum.barrier_wait_ns += t.barrier_wait_ns;
      sum.drain_ns += t.drain_ns;
      sum.idle_ns += t.idle_ns;
      sum.skipped_wakes += t.skipped_wakes;
      sum.eager_drained += t.eager_drained;
    }
  }

  const double wall = r.timed_wall_s > 0 ? r.timed_wall_s : 1e-9;
  const double rss_mib = peak_rss_mib();  // before the statistics copy samples
  const double tokens_per_s = static_cast<double>(pushes) / wall;
  const Tail run_tail = tail(run_us);
  r.work_units = static_cast<double>(pushes);
  r.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_per_s", tokens_per_s, "1/s"},
      {"wait_p50_us", median(run_us), "us"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
  r.table = {
      {"setup_s", median(setup_s), "s", setup_s.size(), ""},
      {"tokens_per_s", tokens_per_s, "tokens/s", run_us.size(), "runs"},
      {"run_p50_us", median(run_us), "us", run_us.size(), "graph run to completion"},
      {"run_tail_us", run_tail.value, "us", run_tail.count, percentile_label(run_tail)},
      {"peak_rss_mib", rss_mib, "MiB", 1, ""},
  };
  if (spans == nullptr) return r;

  // --- traced pass: layer metrics ------------------------------------------
  const double K = kWorkers;
  const auto sec = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  const std::uint64_t woken = rounds * kWorkers - sum.skipped_wakes;
  // Fibers references, obs off: the single-threaded baseline at the normal
  // spin, and the framework cost per token with no filter compute.
  obs::set_enabled(false);
  WideConfig zero = cfg;
  zero.iters = 0;
  const auto zero_inputs = wide_inputs(zero);
  const std::uint64_t zero_want = wide_reference_checksum(zero);
  std::vector<double> fib_tps;
  std::vector<double> zero_ns;
  for (int rep = 0; rep < 3; ++rep) {
    Iteration it = iterate(cfg, inputs, want, sim::ProcessBackend::kFibers, 0, r, spans,
                           "ref.fibers_run");
    if (it.ok) fib_tps.push_back(static_cast<double>(link_pushes(*it.world->app)) / it.run_s);
    it = iterate(zero, zero_inputs, zero_want, sim::ProcessBackend::kFibers, 0, r, spans,
                 "ref.fibers_run_spin0");
    if (it.ok) zero_ns.push_back(it.run_s * 1e9 / static_cast<double>(link_pushes(*it.world->app)));
  }
  obs::set_enabled(true);

  r.layers = {
      {"sim.dispatches", static_cast<double>(dispatches), "count"},
      {"sim.context_switches", static_cast<double>(counter_value("sim.context_switch") - ctx0), "count"},
      {"sim.framework_ns_per_token", median(zero_ns), "ns"},
      {"sim.fibers_tokens_per_s", median(fib_tps), "1/s"},
      {"sim.rounds", static_cast<double>(rounds), "count"},
      {"sim.elided_rounds", static_cast<double>(elided), "count"},
      {"sim.skipped_wakes", static_cast<double>(sum.skipped_wakes), "count"},
      {"sim.eager_drained", static_cast<double>(sum.eager_drained), "count"},
      {"sim.work_s", sec(sum.work_ns), "s"},
      {"sim.barrier_wait_s", sec(sum.barrier_wait_ns), "s"},
      {"sim.drain_s", sec(sum.drain_ns), "s"},
      {"sim.idle_s", sec(sum.idle_ns), "s"},
      {"sim.worker_utilization", sec(sum.work_ns) / (K * wall), "ratio"},
      {"sim.cpu_per_wall", cpu_s / wall, "ratio"},
      {"sim.stalled_ratio", woken > 0 ? static_cast<double>(sum.stalled_rounds) / static_cast<double>(woken) : 0.0, "ratio"},
      {"pedf.link_pushes", static_cast<double>(pushes), "count"},
      {"pedf.boundary_hwm", static_cast<double>(gauge_max("sim.barrier.boundary_hwm")), "count"},
  };
  // Each worker's wall splits into work, barrier wait, drain and idle; the
  // parts are their means over the K workers.
  r.parts = {
      {"sim worker work (mean over K)", sec(sum.work_ns) / K},
      {"sim barrier wait (mean over K)", sec(sum.barrier_wait_ns) / K},
      {"sim boundary drain (mean over K)", sec(sum.drain_ns) / K},
      {"sim idle between rounds (mean over K)", sec(sum.idle_ns) / K},
  };
  return r;
}

}  // namespace perfbench
