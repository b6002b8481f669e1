// Tests of the observability layer: the metrics registry (histogram
// bucketing, reset semantics, disabled-mode no-op), its per-thread cells
// (exact folds under concurrent writers, block adoption after thread exit,
// reset racing writers, fibers that change threads), the built-in
// instrumentation points, and the Chrome trace-event exporter (golden-file
// and structural nesting checks).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "dfdbg/dbgcli/cli.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/pedf/application.hpp"
#include "dfdbg/sim/context.hpp"
#include "dfdbg/trace/chrome_trace.hpp"
#include "dfdbg/trace/trace.hpp"

namespace dfdbg {
namespace {

/// Forces a known enabled-state for the duration of one test (the CLI
/// interpreter flips the global flag on construction, so tests must not
/// depend on run order).
struct EnabledGuard {
  explicit EnabledGuard(bool on) : prev_(obs::enabled()) { obs::set_enabled(on); }
  ~EnabledGuard() { obs::set_enabled(prev_); }

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketOfLog2Edges) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(7), 3u);
  EXPECT_EQ(H::bucket_of(8), 4u);
  EXPECT_EQ(H::bucket_of(1023), 10u);
  EXPECT_EQ(H::bucket_of(1024), 11u);
  EXPECT_EQ(H::bucket_of(UINT64_MAX), 64u);
  // Every bucket i >= 1 holds [2^(i-1), 2^i): its inclusive upper edge.
  EXPECT_EQ(H::bucket_edge(0), 0u);
  EXPECT_EQ(H::bucket_edge(1), 1u);
  EXPECT_EQ(H::bucket_edge(2), 3u);
  EXPECT_EQ(H::bucket_edge(10), 1023u);
  EXPECT_EQ(H::bucket_edge(64), UINT64_MAX);
}

TEST(ObsHistogram, ObserveAndStats) {
  EnabledGuard on(true);
  obs::Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 5.0);
  EXPECT_EQ(h.bucket(0), 1u);  // the 0
  EXPECT_EQ(h.bucket(1), 1u);  // the 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket(7), 1u);  // 100 in [64,128)
}

TEST(ObsHistogram, PercentileWalksBucketsClampedToMax) {
  EnabledGuard on(true);
  obs::Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(1);
  h.observe(1000);
  EXPECT_EQ(h.percentile(0.50), 1u);
  EXPECT_EQ(h.percentile(0.99), 1u);
  // The outlier lands in bucket [512,1024) whose edge is 1023; the result
  // is clamped to the observed max.
  EXPECT_EQ(h.percentile(1.0), 1000u);
  obs::Histogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0u);
}

TEST(ObsHistogram, ResetClearsEverything) {
  EnabledGuard on(true);
  obs::Histogram h;
  h.observe(5);
  h.observe(9);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  h.observe(2);  // usable after reset, min re-seeds
  EXPECT_EQ(h.min(), 2u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsHistogram, WeightedObserveCountsTheSampleNTimes) {
  EnabledGuard on(true);
  obs::Histogram h;
  h.observe(100, 64);  // one sample standing in for 64 events
  h.observe(3);
  EXPECT_EQ(h.count(), 65u);
  EXPECT_EQ(h.sum(), 6403u);
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_of(100)), 64u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 100u);
}

// ---------------------------------------------------------------------------
// Owned tallies
// ---------------------------------------------------------------------------

TEST(ObsTally, CounterFoldsLiveTalliesAndWhatRetiredOnesLeft) {
  EnabledGuard on(true);
  obs::Counter c;
  c.add(5);
  {
    obs::Tally a;
    obs::Tally b;
    a.attach(c);
    b.attach(c);
    a.add(3);
    b.add(4);
    EXPECT_EQ(c.value(), 12u);
    c.reset();  // a baseline over cells and tallies alike
    EXPECT_EQ(c.value(), 0u);
    a.add(2);
    EXPECT_EQ(c.value(), 2u);
  }
  EXPECT_EQ(c.value(), 2u) << "destroyed tallies keep their counts in the counter";
  obs::Tally d;
  d.attach(c);
  d.add();
  EXPECT_EQ(c.value(), 3u);
  obs::Tally unattached;
  unattached.add(100);
  EXPECT_EQ(c.value(), 3u);
}

// ---------------------------------------------------------------------------
// Disabled mode
// ---------------------------------------------------------------------------

TEST(ObsDisabled, InstrumentsIgnoreMutations) {
  EnabledGuard off(false);
  obs::Counter c;
  c.add(7);
  EXPECT_EQ(c.value(), 0u);
  obs::Gauge g;
  g.set(5);
  g.add(3);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  obs::Histogram h;
  h.observe(42);
  EXPECT_EQ(h.count(), 0u);
  {
    obs::ScopedTimer t(h);
  }
  EXPECT_EQ(h.count(), 0u);
  std::uint64_t fake_clock = 0;
  {
    obs::ScopedDelta d(h, [&] { return fake_clock; });
    fake_clock = 100;
  }
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsDisabled, ReenablingResumesCounting) {
  obs::Counter c;
  {
    EnabledGuard off(false);
    c.add();
  }
  {
    EnabledGuard on(true);
    c.add();
    c.add();
  }
  EXPECT_EQ(c.value(), 2u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, InterningIsStableAndIdempotent) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.a");
  // Force deque growth: addresses handed out earlier must stay valid.
  for (int i = 0; i < 1000; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(&a, &reg.counter("x.a"));
  EXPECT_EQ(reg.size(), 1001u);
  // Same name, different kinds: distinct instruments.
  reg.gauge("x.a");
  reg.histogram("x.a");
  EXPECT_EQ(reg.size(), 1003u);
}

TEST(ObsRegistry, ResetZeroesButKeepsNames) {
  EnabledGuard on(true);
  obs::Registry reg;
  obs::Counter& c = reg.counter("n");
  obs::Histogram& h = reg.histogram("hn");
  c.add(3);
  h.observe(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.size(), 2u);        // names survive a reset
  EXPECT_EQ(&c, &reg.counter("n"));  // and so do addresses
}

TEST(ObsRegistry, ViewsAreSortedByName) {
  obs::Registry reg;
  reg.counter("zz");
  reg.counter("aa");
  reg.counter("mm");
  auto view = reg.counters();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0].first, "aa");
  EXPECT_EQ(view[1].first, "mm");
  EXPECT_EQ(view[2].first, "zz");
}

// ---------------------------------------------------------------------------
// Per-thread cells: single-writer adds, folded on read
// ---------------------------------------------------------------------------

/// Releases waiting threads once `n` have arrived (std::barrier without the
/// completion step), so a test can read totals while its writers still live.
class Rendezvous {
 public:
  explicit Rendezvous(int n) : left_(n) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lk(mu_);
    if (--left_ == 0) cv_.notify_all();
    cv_.wait(lk, [&] { return left_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int left_;
};

TEST(ObsCells, ConcurrentWritersFoldExactlyWhileLiveAndAfterExit) {
  EnabledGuard on(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  obs::Counter c;
  obs::Histogram h;
  Rendezvous written(kThreads + 1);
  Rendezvous checked(kThreads + 1);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(i);
      }
      written.arrive_and_wait();
      checked.arrive_and_wait();  // stay alive until the live read is done
    });
  // Expected histogram of kThreads copies of 0..kPerThread-1.
  std::uint64_t want_buckets[obs::Histogram::kBuckets] = {};
  std::uint64_t want_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) {
    want_buckets[obs::Histogram::bucket_of(i)] += kThreads;
    want_sum += i * kThreads;
  }
  auto expect_exact = [&](const char* phase) {
    SCOPED_TRACE(phase);
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    EXPECT_EQ(h.sum(), want_sum);
    for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b)
      EXPECT_EQ(h.bucket(b), want_buckets[b]) << "bucket " << b;
    const obs::HistogramTotals t = h.totals();
    EXPECT_EQ(t.count, kThreads * kPerThread);
    EXPECT_EQ(t.sum, want_sum);
    EXPECT_EQ(t.min, 0u);
    EXPECT_EQ(t.max, kPerThread - 1);
  };
  written.arrive_and_wait();
  expect_exact("writers alive");
  checked.arrive_and_wait();
  for (auto& w : writers) w.join();
  expect_exact("writers exited");
}

TEST(ObsCells, ExitedThreadsBlockIsAdoptedWithItsTotals) {
  EnabledGuard on(true);
  obs::Counter c;
  std::thread([&] { c.add(5); }).join();
  const std::size_t blocks = obs::detail::cell_block_count();
  // Each later thread adopts a released block instead of making one; the
  // adopted block's earlier totals keep counting.
  for (int i = 0; i < 20; ++i) std::thread([&] { c.add(1); }).join();
  EXPECT_EQ(obs::detail::cell_block_count(), blocks);
  EXPECT_EQ(c.value(), 25u);
}

TEST(ObsCells, ResetUnderRacingWritersNeverResurrectsOldCounts) {
  EnabledGuard on(true);
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  obs::Counter c;
  obs::Histogram h;
  std::atomic<bool> stop{false};
  std::vector<std::atomic<std::uint64_t>> published(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.add(1);
        h.observe(3);
        published[t].store(++n, std::memory_order_release);
      }
    });
  auto total = [&] {
    std::uint64_t sum = 0;
    for (auto& p : published) sum += p.load(std::memory_order_acquire);
    return sum;
  };
  auto wait_for = [&](std::uint64_t n) {
    while (total() < n) std::this_thread::yield();
  };
  wait_for(1000 * kThreads);
  // A writer adds before it publishes, so its cells hold its published count
  // or one observation more. The baseline a reset takes therefore lies in
  // [before, after + kThreads], and a read between `lo` and `hi` folds cells
  // in [lo, hi]: no add counted by `before` may show after the reset, and
  // every add published by `lo` beyond `after` must.
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t before = total();
    c.reset();
    h.reset();
    const std::uint64_t after = total();
    wait_for(after + 100 * kThreads);
    const std::uint64_t lo = total();
    const std::uint64_t value = c.value();
    const std::uint64_t count = h.count();
    const std::uint64_t sum = h.sum();
    const std::uint64_t hi = total() + kThreads;
    EXPECT_LE(value, hi - before) << "round " << round;
    EXPECT_GE(value + after + kThreads, lo) << "round " << round;
    EXPECT_LE(count, hi - before) << "round " << round;
    EXPECT_GE(count + after + kThreads, lo) << "round " << round;
    EXPECT_LE(sum, 3 * (hi - before)) << "round " << round;
    EXPECT_GE(sum + 3 * (after + kThreads), 3 * lo) << "round " << round;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

/// Adds through a fiber that parks on one thread and is resumed on another,
/// while the first thread keeps adding to the same instruments: an update
/// that reused the first thread's block after the move would race that
/// thread's own single-writer adds and lose counts.
TEST(ObsCells, FiberResumedOnAnotherThreadWritesThatThreadsCells) {
  EnabledGuard on(true);
  constexpr std::uint64_t kFiberAdds = 50000;
  constexpr std::uint64_t kThreadAdds = 200000;
  obs::Counter c;
  obs::Histogram h;
  struct Rig {
    sim::FiberContext anchor;
    std::unique_ptr<sim::FiberContext> fiber;
    std::function<void()> body;
    static void entry(void* self) {
      auto* r = static_cast<Rig*>(self);
      r->body();
      for (;;) sim::FiberContext::switch_to(*r->fiber, r->anchor);
    }
  } rig;
  rig.body = [&] {
    for (std::uint64_t i = 0; i < kFiberAdds; ++i) {
      c.add(1);
      h.observe(1);
    }
    sim::FiberContext::switch_to(*rig.fiber, rig.anchor);  // park; resumed elsewhere
    for (std::uint64_t i = 0; i < kFiberAdds; ++i) {
      c.add(1);
      h.observe(1);
    }
  };
  rig.fiber = std::make_unique<sim::FiberContext>(64 * 1024, &Rig::entry, &rig);
  std::atomic<bool> parked{false};
  std::atomic<bool> resumed_done{false};
  std::thread a([&] {
    sim::FiberContext::switch_to(rig.anchor, *rig.fiber);  // runs the first half
    parked.store(true);
    for (std::uint64_t i = 0; i < kThreadAdds; ++i) {
      c.add(1);
      h.observe(1);
    }
    while (!resumed_done.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();
  std::thread b([&] { sim::FiberContext::switch_to(rig.anchor, *rig.fiber); });
  b.join();
  resumed_done.store(true);
  a.join();
  EXPECT_EQ(c.value(), 2 * kFiberAdds + kThreadAdds);
  EXPECT_EQ(h.count(), 2 * kFiberAdds + kThreadAdds);
  EXPECT_EQ(h.bucket(1), 2 * kFiberAdds + kThreadAdds);
}

// ---------------------------------------------------------------------------
// A minimal JSON syntax validator (for to_json and the Chrome exporter).
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    pos_++;  // {
    skip_ws();
    if (peek() == '}') return pos_++, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      pos_++;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { pos_++; continue; }
      if (peek() == '}') return pos_++, true;
      return false;
    }
  }
  bool array() {
    pos_++;  // [
    skip_ws();
    if (peek() == ']') return pos_++, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { pos_++; continue; }
      if (peek() == ']') return pos_++, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    pos_++;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') pos_++;
      pos_++;
    }
    if (pos_ >= s_.size()) return false;
    pos_++;
    return true;
  }
  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') pos_++;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      pos_++;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) pos_++;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ObsRegistry, ToJsonIsValidJson) {
  EnabledGuard on(true);
  obs::Registry reg;
  reg.counter("a\"b\\c").add(1);  // names needing escaping
  reg.gauge("g").set(-4);
  reg.histogram("h").observe(12);
  std::string json = reg.to_json();
  EXPECT_TRUE(JsonParser(json).valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(ObsRegistry, ToTextShowsEnabledState) {
  obs::Registry reg;
  reg.counter("c");
  {
    EnabledGuard off(false);
    EXPECT_NE(reg.to_text().find("DISABLED"), std::string::npos);
  }
  {
    EnabledGuard on(true);
    EXPECT_NE(reg.to_text().find("enabled"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Built-in instrumentation points
// ---------------------------------------------------------------------------

h264::H264AppConfig small_config() {
  h264::H264AppConfig cfg;
  cfg.params.width = 32;
  cfg.params.height = 32;
  cfg.params.frame_count = 1;
  return cfg;
}

TEST(ObsInstrumentation, SchedulerAndLinkCountersMoveDuringARun) {
  EnabledGuard on(true);
  auto& reg = obs::Registry::global();
  reg.reset();
  auto app = h264::H264App::build(small_config());
  ASSERT_TRUE(app.ok());
  (*app)->start();
  EXPECT_EQ((*app)->kernel().run(), sim::RunResult::kFinished);
  EXPECT_GT(reg.counter("sim.dispatch").value(), 0u);
  EXPECT_GT(reg.counter("sim.context_switch").value(), 0u);
  EXPECT_GT(reg.counter("sim.process_spawn").value(), 0u);
  EXPECT_GT(reg.counter("link.push").value(), 0u);
  EXPECT_EQ(reg.counter("link.push").value(), reg.counter("link.pop").value());
  EXPECT_GT(reg.histogram("sim.ready_depth").count(), 0u);
  EXPECT_GT(reg.gauge("link.occupancy_hwm").max(), 0);
}

TEST(ObsInstrumentation, HookCountersTrackPerSymbolDispatch) {
  EnabledGuard on(true);
  auto& reg = obs::Registry::global();
  reg.reset();
  auto app = h264::H264App::build(small_config());
  ASSERT_TRUE(app.ok());
  // A trace collector attaches hooks on the framework symbols.
  trace::TraceCollector tc((*app)->app(), 1 << 16);
  tc.attach();
  (*app)->start();
  (*app)->kernel().run();
  EXPECT_GT(reg.counter("hook.invocation").value(), 0u);
  EXPECT_GT(reg.counter("hook.enter").value(), 0u);
  EXPECT_GT(reg.histogram("hook.dispatch_ns").count(), 0u);
  EXPECT_GT(reg.counter("hook.sym.pedf__work_enter.enter").value(), 0u);
}

TEST(ObsInstrumentation, DisabledRunLeavesRegistryUntouched) {
  EnabledGuard off(false);
  auto& reg = obs::Registry::global();
  reg.reset();
  auto app = h264::H264App::build(small_config());
  ASSERT_TRUE(app.ok());
  (*app)->start();
  (*app)->kernel().run();
  EXPECT_EQ(reg.counter("sim.dispatch").value(), 0u);
  EXPECT_EQ(reg.counter("link.push").value(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace exporter
// ---------------------------------------------------------------------------

/// Doubles every input token (same fixture idiom as test_pedf_runtime).
class DoublerFilter : public pedf::Filter {
 public:
  explicit DoublerFilter(std::string name) : Filter(std::move(name)) {
    add_port("in", pedf::PortDir::kIn, pedf::TypeDesc());
    add_port("out", pedf::PortDir::kOut, pedf::TypeDesc());
  }
  void work(pedf::FilterContext& ctx) override {
    pedf::Value v = ctx.in("in").get();
    ctx.compute(5);
    ctx.out("out").put(pedf::Value::u32(static_cast<std::uint32_t>(v.as_u64() * 2)));
  }
};

class IncFilter : public pedf::Filter {
 public:
  explicit IncFilter(std::string name) : Filter(std::move(name)) {
    add_port("in", pedf::PortDir::kIn, pedf::TypeDesc());
    add_port("out", pedf::PortDir::kOut, pedf::TypeDesc());
  }
  void work(pedf::FilterContext& ctx) override {
    pedf::Value v = ctx.in("in").get();
    ctx.out("out").put(pedf::Value::u32(static_cast<std::uint32_t>(v.as_u64() + 1)));
  }
};

std::unique_ptr<pedf::Controller> all_fire_controller(std::string name, int steps) {
  return std::make_unique<pedf::FnController>(
      std::move(name), [steps](pedf::ControllerContext& ctx) {
        for (int s = 0; s < steps; ++s) {
          ctx.next_step();
          for (const auto& f : ctx.module().filters()) ctx.actor_start(f->name());
          ctx.wait_for_actor_init();
          for (const auto& f : ctx.module().filters()) ctx.actor_sync(f->name());
          ctx.wait_for_actor_sync();
        }
      });
}

/// The golden-file workload: a deterministic two-actor pipeline.
struct TwoActorRig {
  sim::Kernel kernel;
  sim::Platform platform;
  pedf::Application app;

  TwoActorRig() : platform(kernel, small()), app(platform, "two_actor") {
    auto mod = std::make_unique<pedf::Module>("m");
    mod->add_port("in", pedf::PortDir::kIn, pedf::TypeDesc());
    mod->add_port("out", pedf::PortDir::kOut, pedf::TypeDesc());
    mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
    mod->add_filter(std::make_unique<IncFilter>("inc"));
    mod->set_controller(all_fire_controller("controller", 3));
    mod->bind("this.in", "dbl.in");
    mod->bind("dbl.out", "inc.in");
    mod->bind("inc.out", "this.out");
    app.set_root(std::move(mod));
    app.add_host_source("src", "m.in",
                        {pedf::Value::u32(1), pedf::Value::u32(2), pedf::Value::u32(3)});
    app.add_host_sink("snk", "m.out", 3);
    EXPECT_TRUE(app.elaborate().ok());
  }

  static sim::PlatformConfig small() {
    sim::PlatformConfig c;
    c.clusters = 2;
    c.pes_per_cluster = 4;
    return c;
  }
};

std::string export_two_actor_trace() {
  TwoActorRig rig;
  trace::TraceCollector tc(rig.app, 1 << 12);
  tc.attach();
  rig.app.start();
  EXPECT_EQ(rig.kernel.run(), sim::RunResult::kFinished);
  return export_chrome_trace(tc, rig.app);
}

TEST(ChromeTrace, GoldenTwoActorExport) {
  // The golden encodes the sequential schedule's timestamps. A one-worker
  // parallel kernel reproduces it byte-for-byte; with several partitions
  // virtual timings legitimately shift (boundary tokens cross at barriers)
  // while per-link token order stays invariant — see docs/KERNEL.md.
  {
    sim::Kernel probe;
    if (probe.partition_count() > 1)
      GTEST_SKIP() << "trace timestamps diverge across parallel partitions by design";
  }
  std::string json = export_two_actor_trace();
  ASSERT_TRUE(JsonParser(json).valid());

  std::string golden_path = std::string(DFDBG_SOURCE_DIR) + "/tests/golden/chrome_trace_two_actor.json";
  if (std::getenv("DFDBG_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << json;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run with DFDBG_REGEN_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str())
      << "exporter output diverged from tests/golden/chrome_trace_two_actor.json; "
         "if intentional, regenerate with DFDBG_REGEN_GOLDEN=1";
}

TEST(ChromeTrace, ExportIsDeterministic) {
  EXPECT_EQ(export_two_actor_trace(), export_two_actor_trace());
}

/// Extracts `"key":<integer>` from a single traceEvents line.
long long field_i64(const std::string& line, const std::string& key, long long fallback) {
  auto pos = line.find("\"" + key + "\":");
  if (pos == std::string::npos) return fallback;
  return std::strtoll(line.c_str() + pos + key.size() + 3, nullptr, 10);
}

std::string field_str(const std::string& line, const std::string& key) {
  auto pos = line.find("\"" + key + "\":\"");
  if (pos == std::string::npos) return "";
  pos += key.size() + 4;
  return line.substr(pos, line.find('"', pos) - pos);
}

TEST(ChromeTrace, DurationEventsNestCorrectly) {
  std::string json = export_two_actor_trace();
  // Per-tid: depth never goes negative, timestamps never regress, and every
  // track ends balanced (each "B" has its "E").
  std::map<long long, int> depth;
  std::map<long long, long long> last_ts;
  int total_b = 0, total_e = 0;
  std::stringstream ss(json);
  std::string line;
  while (std::getline(ss, line)) {
    std::string ph = field_str(line, "ph");
    if (ph != "B" && ph != "E") continue;
    long long tid = field_i64(line, "tid", -1);
    ASSERT_GE(tid, 0) << line;
    long long ts = field_i64(line, "ts", -1);
    EXPECT_GE(ts, last_ts[tid]) << "timestamps regress on tid " << tid;
    last_ts[tid] = ts;
    if (ph == "B") {
      depth[tid]++;
      total_b++;
    } else {
      depth[tid]--;
      total_e++;
      EXPECT_GE(depth[tid], 0) << "orphan E on tid " << tid << ": " << line;
    }
  }
  EXPECT_GT(total_b, 0);
  EXPECT_EQ(total_b, total_e);
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "unbalanced tid " << tid;
}

TEST(ChromeTrace, EmitsExpectedTracksAndPhases) {
  std::string json = export_two_actor_trace();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // One named track per actor seen in the window.
  EXPECT_NE(json.find("\"name\":\"m.dbl\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"m.inc\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);   // ACTOR_START instants
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);   // link occupancy series
  EXPECT_NE(json.find("\"name\":\"WORK\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"STEP\""), std::string::npos);
}

TEST(ChromeTrace, OptionsSuppressInstantsAndCounters) {
  TwoActorRig rig;
  trace::TraceCollector tc(rig.app, 1 << 12);
  tc.attach();
  rig.app.start();
  rig.kernel.run();
  trace::ChromeTraceOptions opts;
  opts.link_counters = false;
  opts.schedule_instants = false;
  std::string json = export_chrome_trace(tc, rig.app, opts);
  EXPECT_TRUE(JsonParser(json).valid());
  EXPECT_EQ(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(ChromeTrace, TruncatedWindowStillNests) {
  // A tiny ring keeps only the tail of the run: orphan exits must be
  // dropped, so depth never goes negative and B/E still balance.
  TwoActorRig rig;
  trace::TraceCollector tc(rig.app, 16);
  tc.attach();
  rig.app.start();
  rig.kernel.run();
  EXPECT_GT(tc.dropped(), 0u);
  std::string json = export_chrome_trace(tc, rig.app);
  ASSERT_TRUE(JsonParser(json).valid());
  std::map<long long, int> depth;
  int total_b = 0, total_e = 0;
  std::stringstream ss(json);
  std::string line;
  while (std::getline(ss, line)) {
    std::string ph = field_str(line, "ph");
    if (ph == "B") {
      depth[field_i64(line, "tid", -1)]++;
      total_b++;
    } else if (ph == "E") {
      long long tid = field_i64(line, "tid", -1);
      depth[tid]--;
      total_e++;
      EXPECT_GE(depth[tid], 0);
    }
  }
  EXPECT_EQ(total_b, total_e);
}

// ---------------------------------------------------------------------------
// Trace collector summary (`trace stats`)
// ---------------------------------------------------------------------------

TEST(TraceStats, SummaryReportsKindsAndDrops) {
  TwoActorRig rig;
  trace::TraceCollector tc(rig.app, 16);
  tc.attach();
  rig.app.start();
  rig.kernel.run();
  EXPECT_EQ(tc.dropped(), tc.total_events() - tc.events().size());
  std::string s = tc.summary();
  EXPECT_NE(s.find("capacity=16"), std::string::npos);
  EXPECT_NE(s.find("dropped="), std::string::npos);
  EXPECT_NE(s.find("evicted"), std::string::npos);  // drop warning present
  std::uint64_t kind_total = 0;
  for (const auto& [kind, n] : tc.counts_by_kind()) kind_total += n;
  EXPECT_EQ(kind_total, tc.events().size());
}

// ---------------------------------------------------------------------------
// Folded counters and sampled hook timing on a live kernel
// ---------------------------------------------------------------------------

/// TwoActorRig with a chosen backend and a longer stream.
struct FlipRig {
  static constexpr int kSteps = 40;
  sim::Kernel kernel;
  sim::Platform platform;
  pedf::Application app;

  FlipRig(sim::ProcessBackend backend, int workers)
      : kernel(backend, workers), platform(kernel, TwoActorRig::small()), app(platform, "flip") {
    auto mod = std::make_unique<pedf::Module>("m");
    mod->add_port("in", pedf::PortDir::kIn, pedf::TypeDesc());
    mod->add_port("out", pedf::PortDir::kOut, pedf::TypeDesc());
    mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
    mod->add_filter(std::make_unique<IncFilter>("inc"));
    mod->set_controller(all_fire_controller("controller", kSteps));
    mod->bind("this.in", "dbl.in");
    mod->bind("dbl.out", "inc.in");
    mod->bind("inc.out", "this.out");
    app.set_root(std::move(mod));
    app.add_host_source("src", "m.in", std::vector<pedf::Value>(kSteps, pedf::Value::u32(1)));
    app.add_host_sink("snk", "m.out", kSteps);
    EXPECT_TRUE(app.elaborate().ok());
  }

  /// What the kernel, port and links count whether or not obs is on.
  struct Exact {
    std::uint64_t dispatches, switches, enters, invocations, pushes, pops, recorded;
  };
  Exact exact() {
    Exact e{kernel.dispatch_count(),
            kernel.context_switch_count(),
            kernel.instrument().enter_fired(),
            kernel.instrument().hook_invocations(),
            0,
            0,
            kernel.journal().total_recorded()};
    for (const auto& l : app.links()) {
      e.pushes += l->push_index();
      e.pops += l->pop_index();
    }
    return e;
  }
};

/// Runs a FlipRig with obs off for its first third (by simulated time), on
/// for the second, off again to the end, and checks that every counter the
/// registry folds from its owners counts exactly the middle span — also
/// once the owners are gone.
void check_flip_counts_enabled_span(sim::ProcessBackend backend, int workers) {
  sim::SimTime end = 0;
  {
    FlipRig probe(backend, workers);
    probe.app.start();
    ASSERT_EQ(probe.kernel.run(), sim::RunResult::kFinished);
    end = probe.kernel.now();
  }
  ASSERT_GT(end, 3u);
  obs::Journal::global().clear();  // room for the span's records (no drops)
  obs::Registry& reg = obs::Registry::global();
  EnabledGuard off(false);
  reg.reset();
  FlipRig::Exact before{};
  FlipRig::Exact after{};
  {
    auto rig = std::make_unique<FlipRig>(backend, workers);
    sim::InstrumentPort& port = rig->kernel.instrument();
    port.set_enabled(true);
    port.add_enter_hook(port.lookup("pedf__work_enter"), [](sim::Frame&) {});
    rig->app.start();
    ASSERT_EQ(rig->kernel.run(end / 3), sim::RunResult::kTimeLimit);
    before = rig->exact();
    obs::set_enabled(true);
    ASSERT_EQ(rig->kernel.run(2 * end / 3), sim::RunResult::kTimeLimit);
    obs::set_enabled(false);
    after = rig->exact();
    ASSERT_EQ(rig->kernel.run(), sim::RunResult::kFinished);
    ASSERT_GT(after.dispatches, before.dispatches);
    ASSERT_GT(after.invocations, before.invocations);
    ASSERT_GT(after.pushes, before.pushes);
  }
  const std::uint64_t works = reg.counter("hook.sym.pedf__work_enter.enter").value();
  for (int pass = 0; pass < 2; ++pass) {  // with the owners live, then destroyed
    SCOPED_TRACE(pass == 0 ? "owners live" : "owners destroyed");
    EXPECT_EQ(reg.counter("sim.dispatch").value(), after.dispatches - before.dispatches);
    EXPECT_EQ(reg.counter("sim.context_switch").value(), after.switches - before.switches);
    EXPECT_EQ(reg.counter("hook.enter").value(), after.enters - before.enters);
    EXPECT_EQ(reg.counter("hook.invocation").value(), after.invocations - before.invocations);
    EXPECT_EQ(works, after.invocations - before.invocations);  // the one hook
    EXPECT_EQ(reg.counter("link.push").value(), after.pushes - before.pushes);
    EXPECT_EQ(reg.counter("link.pop").value(), after.pops - before.pops);
    EXPECT_EQ(reg.counter("journal.recorded").value(), after.recorded - before.recorded);
    EXPECT_EQ(reg.counter("journal.dropped").value(), 0u);
  }
}

TEST(ObsInstrumentation, MidRunFlipCountsExactlyTheEnabledSpanOnFibers) {
  check_flip_counts_enabled_span(sim::ProcessBackend::kFibers, 1);
}

TEST(ObsInstrumentation, MidRunFlipCountsExactlyTheEnabledSpanOnParallel2) {
  check_flip_counts_enabled_span(sim::ProcessBackend::kParallel, 2);
}

// hook.dispatch_ns is the hooks' own cost: a stop taken inside a sampled
// fire parks the process there, and the time the user spends at that stop
// is left out of the sample.
TEST(ObsInstrumentation, DispatchTimeLeavesOutTimeParkedAtAStop) {
  EnabledGuard on(true);
  obs::Histogram& h = obs::Registry::global().histogram("hook.dispatch_ns");
  TwoActorRig rig;
  sim::InstrumentPort& port = rig.kernel.instrument();
  port.set_enabled(true);
  bool stopped = false;
  // The first fire of a symbol is always sampled: stop there.
  port.add_enter_hook(port.lookup("pedf__work_enter"), [&](sim::Frame& f) {
    if (stopped) return;
    stopped = true;
    f.kernel().debug_break();
  });
  rig.app.start();
  const std::uint64_t sum0 = h.sum();
  ASSERT_EQ(rig.kernel.run(), sim::RunResult::kStopped);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(rig.kernel.run(), sim::RunResult::kFinished);
  EXPECT_LT(h.sum() - sum0, 25'000'000u) << "the 50 ms parked at the stop were counted";
  EXPECT_GT(h.count(), 0u);
}

// ---------------------------------------------------------------------------
// CLI surface: stats / trace / profile export
// ---------------------------------------------------------------------------

struct CliRig {
  std::unique_ptr<h264::H264App> app;
  std::unique_ptr<dbg::Session> session;
  std::unique_ptr<cli::Interpreter> gdb;

  CliRig() {
    auto built = h264::H264App::build(small_config());
    EXPECT_TRUE(built.ok()) << built.status().message();
    app = std::move(*built);
    session = std::make_unique<dbg::Session>(app->app());
    session->attach();
    app->start();
    gdb = std::make_unique<cli::Interpreter>(*session);
  }

  std::string exec(const std::string& line) {
    gdb->execute(line);
    return gdb->console().take();
  }
};

TEST(CliObs, StatsReportsNonzeroCountersAfterARun) {
  CliRig rig;  // the interpreter enables metrics
  obs::Registry::global().reset();
  rig.exec("trace on");
  rig.exec("run");
  std::string out = rig.exec("stats");
  EXPECT_NE(out.find("metrics: enabled"), std::string::npos);
  EXPECT_NE(out.find("sim.dispatch"), std::string::npos);
  EXPECT_NE(out.find("hook.invocation"), std::string::npos);
  auto& reg = obs::Registry::global();
  EXPECT_GT(reg.counter("sim.dispatch").value(), 0u);
  EXPECT_GT(reg.counter("hook.invocation").value(), 0u);
  EXPECT_GT(reg.counter("cli.cmd").value(), 0u);
  EXPECT_GT(reg.histogram("cli.cmd_ns").count(), 0u);
  EXPECT_GT(reg.counter("dbg.run").value(), 0u);
}

TEST(CliObs, StatsResetZeroes) {
  CliRig rig;
  rig.exec("run");
  std::string out = rig.exec("stats reset");
  EXPECT_NE(out.find("reset"), std::string::npos);
  EXPECT_EQ(obs::Registry::global().counter("sim.dispatch").value(), 0u);
}

TEST(CliObs, StatsJsonIsValid) {
  CliRig rig;
  rig.exec("run");
  std::string out = rig.exec("stats json");
  EXPECT_TRUE(JsonParser(out).valid()) << out;
}

TEST(CliObs, TraceLifecycleAndStats) {
  CliRig rig;
  EXPECT_FALSE(rig.gdb->execute("trace stats").ok());  // nothing attached yet
  rig.gdb->console().take();
  EXPECT_TRUE(rig.gdb->execute("trace on 128").ok());
  EXPECT_NE(rig.gdb->console().take().find("capacity 128"), std::string::npos);
  EXPECT_FALSE(rig.gdb->execute("trace on").ok());  // double attach rejected
  rig.gdb->console().take();
  rig.exec("run");
  std::string stats = rig.exec("trace stats");
  EXPECT_NE(stats.find("attached"), std::string::npos);
  EXPECT_NE(stats.find("capacity=128"), std::string::npos);
  EXPECT_NE(stats.find("work-enter"), std::string::npos);
  EXPECT_TRUE(rig.gdb->execute("trace off").ok());
  rig.gdb->console().take();
  EXPECT_FALSE(rig.gdb->execute("trace off").ok());  // double detach rejected
}

TEST(CliObs, ProfileExportProducesValidChromeJson) {
  CliRig rig;
  EXPECT_FALSE(rig.gdb->execute("profile export /tmp/x.json").ok());  // no collector
  rig.gdb->console().take();
  rig.exec("trace on");
  rig.exec("run");
  std::string path = ::testing::TempDir() + "dfdbg_h264_profile.json";
  EXPECT_TRUE(rig.gdb->execute("profile export " + path).ok());
  EXPECT_NE(rig.gdb->console().take().find("Exported"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string json = buf.str();
  EXPECT_TRUE(JsonParser(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliObs, NewCommandsAreNotReplayable) {
  CliRig rig;
  rig.exec("trace on");
  rig.exec("stats");
  rig.exec("break ipred:221");
  ASSERT_EQ(rig.gdb->replayable().size(), 1u);
  EXPECT_EQ(rig.gdb->replayable()[0], "break ipred:221");
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

TEST(ObsPrometheus, ExpositionCoversAllInstrumentKinds) {
  EnabledGuard on(true);
  obs::Registry reg;
  reg.counter("sim.dispatch").add(7);
  reg.gauge("link.occupancy").set(3);
  reg.gauge("link.occupancy").set(1);  // max stays 3
  reg.histogram("server.request_ns").observe(5);
  std::string prom = reg.to_prometheus();
  // Names sanitized and prefixed; counters typed as counter.
  EXPECT_NE(prom.find("# TYPE dfdbg_sim_dispatch counter\ndfdbg_sim_dispatch 7\n"),
            std::string::npos)
      << prom;
  // Gauges carry a companion high-water series.
  EXPECT_NE(prom.find("dfdbg_link_occupancy 1\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("dfdbg_link_occupancy_max 3\n"), std::string::npos) << prom;
  // Histograms expose as summaries: quantiles + _sum/_count.
  EXPECT_NE(prom.find("# TYPE dfdbg_server_request_ns summary\n"), std::string::npos);
  EXPECT_NE(prom.find("dfdbg_server_request_ns{quantile=\"0.5\"} 5\n"), std::string::npos);
  EXPECT_NE(prom.find("dfdbg_server_request_ns{quantile=\"0.99\"} 5\n"), std::string::npos);
  EXPECT_NE(prom.find("dfdbg_server_request_ns_sum 5\n"), std::string::npos);
  EXPECT_NE(prom.find("dfdbg_server_request_ns_count 1\n"), std::string::npos);
  // Exposition is plain text, not JSON.
  EXPECT_FALSE(JsonParser(prom).valid());
}

TEST(CliObs, StatsPromRendersExposition) {
  CliRig rig;
  rig.exec("run");
  std::string out = rig.exec("stats prom");
  EXPECT_NE(out.find("# TYPE dfdbg_sim_dispatch counter"), std::string::npos) << out;
  EXPECT_NE(out.find("dfdbg_link_push "), std::string::npos);
}

// ---------------------------------------------------------------------------
// snapshot_delta edges
// ---------------------------------------------------------------------------

TEST(ObsSnapshotDelta, GaugeRevertingToReportedValueIsStillADelta) {
  EnabledGuard on(true);
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("g");
  obs::StatsSnapshot prev;
  std::size_t changed = 0;
  g.set(5);
  reg.snapshot_delta(prev, &changed);
  ASSERT_EQ(changed, 1u);
  g.set(9);
  reg.snapshot_delta(prev, &changed);
  ASSERT_EQ(changed, 1u);
  // Reverting to the previously-reported 5 must be reported again — the
  // reader's last-seen value is 9, and silence would freeze it there.
  g.set(5);
  std::string delta = reg.snapshot_delta(prev, &changed);
  EXPECT_EQ(changed, 1u) << delta;
  EXPECT_NE(delta.find("\"value\":5"), std::string::npos) << delta;
  EXPECT_NE(delta.find("\"max\":9"), std::string::npos) << delta;
  // And once reported, the revert is settled: no further delta.
  reg.snapshot_delta(prev, &changed);
  EXPECT_EQ(changed, 0u);
}

TEST(ObsSnapshotDelta, HistogramPercentileEdges) {
  EnabledGuard on(true);
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("h");
  obs::StatsSnapshot prev;
  std::size_t changed = 0;
  // Empty histogram: reported once (the reader has never seen it), all-zero
  // percentiles; then quiescent.
  std::string delta = reg.snapshot_delta(prev, &changed);
  EXPECT_EQ(changed, 1u);
  EXPECT_NE(delta.find("\"count\":0"), std::string::npos) << delta;
  EXPECT_NE(delta.find("\"p50\":0"), std::string::npos) << delta;
  reg.snapshot_delta(prev, &changed);
  EXPECT_EQ(changed, 0u);
  // Single sample: every percentile collapses to that sample (clamped to
  // the observed max, not the log2 bucket edge).
  h.observe(7);
  delta = reg.snapshot_delta(prev, &changed);
  EXPECT_EQ(changed, 1u);
  EXPECT_NE(delta.find("\"count\":1"), std::string::npos) << delta;
  EXPECT_NE(delta.find("\"p50\":7"), std::string::npos) << delta;
  EXPECT_NE(delta.find("\"p99\":7"), std::string::npos) << delta;
  EXPECT_NE(delta.find("\"min\":7"), std::string::npos) << delta;
  EXPECT_NE(delta.find("\"max\":7"), std::string::npos) << delta;
}

TEST(ObsSnapshotDelta, TwoIndependentReadersInterleaved) {
  EnabledGuard on(true);
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  obs::StatsSnapshot a, b;
  std::size_t changed = 0;
  c.add(1);
  // Reader A catches up at 1; B hasn't read yet.
  std::string da = reg.snapshot_delta(a, &changed);
  EXPECT_EQ(changed, 1u);
  EXPECT_NE(da.find("\"c\":1"), std::string::npos);
  c.add(1);
  // Reader B's first read reports the current value (2), not A's history.
  std::string db = reg.snapshot_delta(b, &changed);
  EXPECT_EQ(changed, 1u);
  EXPECT_NE(db.find("\"c\":2"), std::string::npos);
  // A still owes the 1 -> 2 step; B owes nothing.
  da = reg.snapshot_delta(a, &changed);
  EXPECT_EQ(changed, 1u);
  EXPECT_NE(da.find("\"c\":2"), std::string::npos);
  reg.snapshot_delta(b, &changed);
  EXPECT_EQ(changed, 0u);
  reg.snapshot_delta(a, &changed);
  EXPECT_EQ(changed, 0u);
}

TEST(CliObs, CompletionKnowsNewCommands) {
  CliRig rig;
  auto c = rig.gdb->complete("sta");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], "stats");
  c = rig.gdb->complete("prof");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], "profile");
}

}  // namespace
}  // namespace dfdbg
