// perfbench: the repository benchmark. See DESIGN.md for the workloads and
// what each metric should move.
//
//   perfbench --workload <decode_debug|rpc_session|wide_parallel> --seed N
//             --seconds S --trace 0|1 [--trace-file F] [--commit C]
//
// Prints a RECORD line (host and build), a human table, and as its last line
// one JSON object: {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dfdbg/common/json.hpp"
#include "dfdbg/obs/metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* measured_on;
};

/// Every per-layer metric, in report order. A workload that does not exercise
/// a layer reports it as 0 and the report says where it is measured.
const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      {"sim.dispatches", "count", "decode_debug rpc_session wide_parallel"},
      {"sim.context_switches", "count", "decode_debug rpc_session wide_parallel"},
      {"sim.framework_ns_per_token", "ns", "wide_parallel"},
      {"sim.fibers_tokens_per_s", "1/s", "wide_parallel"},
      {"sim.hook_invocations", "count", "decode_debug rpc_session"},
      {"sim.hook_dispatch_s", "s", "decode_debug rpc_session"},
      {"sim.rounds", "count", "wide_parallel"},
      {"sim.elided_rounds", "count", "wide_parallel"},
      {"sim.skipped_wakes", "count", "wide_parallel"},
      {"sim.eager_drained", "count", "wide_parallel"},
      {"sim.work_s", "s", "wide_parallel"},
      {"sim.barrier_wait_s", "s", "wide_parallel"},
      {"sim.drain_s", "s", "wide_parallel"},
      {"sim.idle_s", "s", "wide_parallel"},
      {"sim.worker_utilization", "ratio", "wide_parallel"},
      {"sim.cpu_per_wall", "ratio", "wide_parallel"},
      {"sim.stalled_ratio", "ratio", "wide_parallel"},
      {"pedf.link_pushes", "count", "decode_debug wide_parallel"},
      {"pedf.boundary_hwm", "count", "wide_parallel"},
      {"h264.plain_run_s", "s", "decode_debug"},
      {"h264.slowdown", "ratio", "decode_debug"},
      {"debug.stops", "count", "decode_debug"},
      {"debug.stops_per_khook", "ratio", "decode_debug"},
      {"debug.catch_s", "s", "decode_debug"},
      {"debug.mirror_s", "s", "decode_debug"},
      {"debug.view_us", "us", "decode_debug rpc_session"},
      {"debug.mutate_us", "us", "rpc_session"},
      {"obs.overhead_s", "s", "decode_debug"},
      {"obs.journal_recorded", "count", "decode_debug rpc_session"},
      {"obs.journal_dropped", "count", "decode_debug rpc_session"},
      {"obs.journal_events_per_token", "ratio", "decode_debug"},
      {"dbgcli.query_us", "us", "decode_debug"},
      {"dbgcli.render_us", "us", "decode_debug"},
      {"server.handle_us.query", "us", "rpc_session"},
      {"server.handle_us.mutate", "us", "rpc_session"},
      {"server.socket_us", "us", "rpc_session"},
      {"server.service_s", "s", "rpc_session"},
      {"server.requests", "count", "rpc_session"},
      {"server.errors", "count", "rpc_session"},
      {"server.bytes_out_per_request", "bytes", "rpc_session"},
      {"server.sub.notifications", "count", "rpc_session"},
      {"server.sub.dropped", "count", "rpc_session"},
      {"server.sub.delivered_ratio", "ratio", "rpc_session"},
      {"common.json_parse_us", "us", "rpc_session"},
      {"common.json_encode_us", "us", "rpc_session"},
      {"attribution_coverage", "ratio", "decode_debug rpc_session wide_parallel"},
      {"trace_overhead", "ratio", "decode_debug rpc_session wide_parallel"},
  };
  return specs;
}

std::string host_record(const Options& opt, const std::string& commit, double calib_ms) {
  JsonWriter w;
  w.begin_object();
  w.kv("workload", opt.workload);
  w.kv("seed", static_cast<std::uint64_t>(opt.seed));
  w.kv("seconds", opt.seconds);
  w.kv("trace", opt.trace);
  w.kv("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("compiler", "gcc " __VERSION__);
  utsname u{};
  if (uname(&u) == 0) w.kv("kernel", std::string(u.release));
  w.kv("commit", commit);
  w.kv("calibration_ms", calib_ms);
  w.end_object();
  return w.take();
}

/// Share of all CPU time the hypervisor gave to other guests ("steal")
/// between two /proc/stat samples: the host-contention figure for the run.
std::vector<unsigned long long> cpu_ticks() {
  std::vector<unsigned long long> ticks;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    char label[16];
    if (std::fscanf(f, "%15s", label) == 1)
      for (unsigned long long t = 0; ticks.size() < 8 && std::fscanf(f, "%llu", &t) == 1;)
        ticks.push_back(t);
    std::fclose(f);
  }
  return ticks;
}

double steal_share(const std::vector<unsigned long long>& a, const std::vector<unsigned long long>& b) {
  if (a.size() < 8 || b.size() < 8) return 0.0;
  unsigned long long total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += b[i] - a[i];
  return total > 0 ? static_cast<double>(b[7] - a[7]) / static_cast<double>(total) : 0.0;
}

/// Printed after the workload: how contended the host was while it ran.
void print_host_after(const std::vector<unsigned long long>& ticks0) {
  std::printf("HOST {\"steal_share\":%.4f,\"calibration_ms_after\":%.6f}\n",
              steal_share(ticks0, cpu_ticks()), calibration_ms());
}

void print_table(const WorkloadRun& r) {
  std::printf("%-34s %16s  %-9s %9s  %s\n", "metric", "value", "unit", "samples", "note");
  for (const Row& row : r.table)
    std::printf("%-34s %16.6g  %-9s %9zu  %s\n", row.name.c_str(), row.value, row.unit.c_str(),
                row.samples, row.note.c_str());
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    if (i > 0) out += ',';
    out += json_quote(metrics[i].name) + ":{\"value\":" + num +
           ",\"unit\":" + json_quote(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

void print_errors(const WorkloadRun& r) {
  for (const std::string& e : r.errors) std::printf("FAILED: %s\n", e.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload decode_debug|rpc_session|wide_parallel --seed N "
               "--seconds S --trace 0|1 [--trace-file F] [--commit C]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string trace_file;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--trace-file") trace_file = v;
    else if (k == "--commit") commit = v;
    else return usage();
  }
  if (argc % 2 != 1 || opt.seconds <= 0) return usage();
  WorkloadRun (*run)(const Options&, SpanRecorder*) = nullptr;
  if (opt.workload == "decode_debug") run = run_decode_debug;
  else if (opt.workload == "rpc_session") run = run_rpc_session;
  else if (opt.workload == "wide_parallel") run = run_wide_parallel;
  else return usage();

  std::printf("RECORD %s\n", host_record(opt, commit, calibration_ms()).c_str());
  std::fflush(stdout);
  const std::vector<unsigned long long> ticks0 = cpu_ticks();

  if (!opt.trace) {
    WorkloadRun r = run(opt, nullptr);
    print_host_after(ticks0);
    print_table(r);
    print_errors(r);
    std::printf("%s\n", result_line(r.correct, r.attempted, r.failed, r.end_to_end).c_str());
    return r.correct ? 0 : 1;
  }

  // Traced run: a short untraced pass first, for the tracing overhead, then
  // the workload with obs and the span recorder on, then its layer metrics.
  obs::set_enabled(true);
  Options base = opt;
  base.seconds = std::max(1.0, opt.seconds / 4);
  WorkloadRun b = run(base, nullptr);
  obs::set_enabled(true);
  SpanRecorder spans;
  WorkloadRun r = run(opt, &spans);

  std::map<std::string, Metric> got;
  for (const Metric& m : r.layers) got[m.name] = m;
  const double per_unit_traced = r.work_units > 0 ? r.timed_wall_s / r.work_units : 0.0;
  const double per_unit_base = b.work_units > 0 ? b.timed_wall_s / b.work_units : 0.0;
  got["trace_overhead"] = {"trace_overhead", per_unit_base > 0 ? per_unit_traced / per_unit_base : 0.0, "ratio"};
  double parts_s = 0.0;
  for (const auto& [name, s] : r.parts) parts_s += s;
  const double coverage = r.timed_wall_s > 0 ? parts_s / r.timed_wall_s : 0.0;
  got["attribution_coverage"] = {"attribution_coverage", coverage, "ratio"};

  print_host_after(ticks0);
  std::printf("timed phase: %.6f s traced, %.6f s untraced baseline\n", r.timed_wall_s, b.timed_wall_s);
  std::printf("attribution of the timed phase (%.6f s):\n", r.timed_wall_s);
  for (const auto& [name, s] : r.parts)
    std::printf("  %-40s %12.6f s  %6.2f%%\n", name.c_str(), s,
                r.timed_wall_s > 0 ? 100.0 * s / r.timed_wall_s : 0.0);
  std::printf("  %-40s %12.6f s  %6.2f%%\n", "uncovered remainder", r.timed_wall_s - parts_s,
              r.timed_wall_s > 0 ? 100.0 * (r.timed_wall_s - parts_s) / r.timed_wall_s : 0.0);
  if (coverage < 0.9 || coverage > 1.1)
    std::printf("WARNING: attribution_coverage %.4f is outside 0.9-1.1\n", coverage);
  std::printf("spans (self time):\n");
  for (const auto& [name, t] : spans.totals())
    std::printf("  %-32s n=%-8llu total %12.6f s  self %12.6f s\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);

  std::vector<Metric> layers;
  bool bad = false;
  for (const LayerSpec& spec : layer_specs()) {
    auto it = got.find(spec.name);
    if (it == got.end()) {
      std::printf("absent on %s: %s (measured on %s)\n", opt.workload.c_str(), spec.name,
                  spec.measured_on);
      layers.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    if (it->second.unit != spec.unit) {
      std::printf("FAILED: layer metric %s has unit %s, declared %s\n", spec.name,
                  it->second.unit.c_str(), spec.unit);
      bad = true;
    }
    layers.push_back({spec.name, it->second.value, spec.unit});
    got.erase(it);
  }
  for (const auto& [name, m] : got) {
    std::printf("FAILED: layer metric %s is not declared\n", name.c_str());
    bad = true;
  }
  std::printf("%-34s %16s  %s\n", "layer metric", "value", "unit");
  for (const Metric& m : layers)
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());

  if (!trace_file.empty()) {
    if (spans.write_chrome_trace(trace_file)) {
      std::printf("span file: %s (%llu spans, the first %zu written)\n", trace_file.c_str(),
                  static_cast<unsigned long long>(spans.recorded()), SpanRecorder::kMaxStored);
    } else {
      std::printf("FAILED: cannot write span file %s\n", trace_file.c_str());
      bad = true;
    }
  }
  print_errors(b);
  print_errors(r);
  const bool correct = b.correct && r.correct && !bad;
  std::printf("%s\n", result_line(correct, b.attempted + r.attempted, b.failed + r.failed, layers).c_str());
  return correct ? 0 : 1;
}
