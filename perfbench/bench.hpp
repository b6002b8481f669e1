// Shared pieces of the benchmark: options, results, the span recorder and
// readers for the program's own instruments.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dfdbg {}

namespace perfbench {

using namespace ::dfdbg;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;
};

/// A contract metric: printed by name in the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A row of the human-readable table: the named metrics of DESIGN.md, with
/// their sample counts.
struct Row {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

/// What one pass of a workload produced.
struct WorkloadRun {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  double timed_wall_s = 0.0;        ///< wall time of the timed phase
  double work_units = 0.0;          ///< what one timed second buys (tokens, requests)
  std::vector<Metric> end_to_end;   ///< the gated metrics (untraced pass)
  std::vector<Row> table;           ///< named metrics for the human report
  std::vector<Metric> layers;       ///< per-layer metrics (traced pass)
  /// Layer parts of the timed phase, in seconds (traced pass): their sum
  /// over timed_wall_s is the attribution coverage.
  std::vector<std::pair<std::string, double>> parts;

  void fail(const std::string& what) {
    ++failed;
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// --- spans ---------------------------------------------------------------------

/// In-memory span recorder. Only benchmark code records spans, around its
/// calls into the program's layers; spans nest through a stack, and every
/// span of one command or request shares an op id. Per-name totals cover
/// every span; the first kMaxStored spans are kept for the Chrome
/// trace-event file written once, at exit.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxStored = 200000;

  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  ///< index into the stored spans, -1 for none
    std::uint64_t op = 0;
  };
  /// Per-name totals: count, summed duration and summed self time (the
  /// duration minus the time covered by direct children).
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  std::uint64_t new_op() { return ++last_op_; }

  void begin(std::string_view name, std::uint64_t op);
  void end();

  [[nodiscard]] const std::map<std::string, Totals>& totals() const { return totals_; }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Writes {"traceEvents":[...]} with one complete ("X") event per stored span.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    int stored = -1;
  };
  std::vector<Span> stored_;
  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
  std::uint64_t recorded_ = 0;
  std::uint64_t last_op_ = 0;
};

/// RAII span; a null recorder (untraced pass) records nothing and costs no
/// allocation.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::string_view name, std::uint64_t op) : rec_(rec) {
    if (rec_ != nullptr) rec_->begin(name, op);
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
};

// --- process and program instruments ----------------------------------------

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();
/// User + system CPU time of this process so far, in seconds.
double cpu_seconds();

/// Values of the program's obs registry instruments, read by name.
std::uint64_t counter_value(std::string_view name);
std::uint64_t histogram_sum(std::string_view name);
std::int64_t gauge_max(std::string_view name);

/// The calibration loop: the wide-graph generator's integer spin over a
/// fixed count, timed (median of five) before each workload. Lets a slow
/// host be told apart from a slow commit.
double calibration_ms();

// --- workloads -------------------------------------------------------------

WorkloadRun run_decode_debug(const Options& opt, SpanRecorder* spans);
WorkloadRun run_rpc_session(const Options& opt, SpanRecorder* spans);
WorkloadRun run_wide_parallel(const Options& opt, SpanRecorder* spans);

}  // namespace perfbench
