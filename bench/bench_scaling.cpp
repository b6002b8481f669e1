// Scaling — how the debugger's costs grow with the application: graph
// reconstruction vs actor count, data-exchange observation vs token traffic,
// and stop dispatch vs number of armed catchpoints. The paper's approach
// must stay interactive for "applications composed of a significant number
// of actors" (§II); these curves substantiate that.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <thread>

#include "dfdbg/debug/session.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/mind/analyze.hpp"
#include "dfdbg/mind/instantiate.hpp"
#include "dfdbg/mind/parser.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/pedf/application.hpp"

// --- allocation observatory -------------------------------------------------
// Replacement global operator new/delete that counts heap allocations while
// `g_count_allocs` is set. Linked into this benchmark binary only; the token
// hot-path benches report `allocs_per_token` from it, pinning the headline
// claim (steady-state token transport never allocates) to a measured number.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

// GCC flags free() on new'ed pointers, but these replacements are matched:
// every operator new here mallocs, every operator delete frees.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using namespace dfdbg;

namespace {

/// RAII window over the allocation counter: resets it on entry, stops
/// counting on exit; `count()` reads the tally.
struct AllocWindow {
  AllocWindow() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~AllocWindow() { g_count_allocs.store(false, std::memory_order_relaxed); }
  [[nodiscard]] static std::uint64_t count() {
    return g_alloc_count.load(std::memory_order_relaxed);
  }
};

/// Layered architecture text: `layers` x `width` rate-1 stages.
std::string layered_adl(int layers, int width) {
  std::ostringstream adl;
  adl << "@Filter\nprimitive Stage {\n  input U32 as in;\n  output U32 as out;\n"
         "  source stage.c;\n}\n";
  adl << "@Module\ncomposite Net {\n  contains as controller { source ctl.c; }\n";
  for (int w = 0; w < width; ++w) {
    adl << "  input U32 as in" << w << ";\n  output U32 as out" << w << ";\n";
  }
  for (int l = 0; l < layers; ++l)
    for (int w = 0; w < width; ++w) adl << "  contains Stage as s" << l << "_" << w << ";\n";
  for (int w = 0; w < width; ++w) {
    adl << "  binds this.in" << w << " to s0_" << w << ".in;\n";
    for (int l = 1; l < layers; ++l)
      adl << "  binds s" << (l - 1) << "_" << w << ".out to s" << l << "_" << w << ".in;\n";
    adl << "  binds s" << (layers - 1) << "_" << w << ".out to this.out" << w << ";\n";
  }
  adl << "}\n";
  return adl.str();
}

struct World {
  std::unique_ptr<sim::Kernel> kernel;
  std::unique_ptr<sim::Platform> platform;
  std::unique_ptr<pedf::Application> app;
  std::vector<pedf::HostSink*> sinks;
};

std::unique_ptr<World> build_world(int layers, int width, int steps) {
  auto w = std::make_unique<World>();
  w->kernel = std::make_unique<sim::Kernel>();
  sim::PlatformConfig pc;
  pc.clusters = 4;
  pc.pes_per_cluster = 16;
  w->platform = std::make_unique<sim::Platform>(*w->kernel, pc);
  w->app = std::make_unique<pedf::Application>(*w->platform, "net");
  w->app->set_model_latencies(false);
  auto doc = mind::parse(layered_adl(layers, width));
  DFDBG_CHECK(doc.ok());
  mind::FilterRegistry registry;
  registry.set_default_steps(static_cast<std::uint64_t>(steps));
  auto root = mind::instantiate(*doc, "Net", "net", w->app->types(), registry);
  DFDBG_CHECK(root.ok());
  w->app->set_root(std::move(*root));
  for (int i = 0; i < width; ++i) {
    std::vector<pedf::Value> stream(static_cast<std::size_t>(steps), pedf::Value::u32(1));
    w->app->add_host_source("src" + std::to_string(i), "net.in" + std::to_string(i),
                            std::move(stream));
    w->sinks.push_back(&w->app->add_host_sink("snk" + std::to_string(i),
                                              "net.out" + std::to_string(i),
                                              static_cast<std::size_t>(steps)));
  }
  return w;
}

void BM_ReconstructionVsActors(benchmark::State& state) {
  int layers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto w = build_world(layers, 8, 1);
    dbg::Session session(*w->app);
    session.attach();
    DFDBG_CHECK(w->app->elaborate().ok());
    benchmark::DoNotOptimize(session.graph().actors().size());
    state.counters["actors"] = static_cast<double>(session.graph().actors().size());
    state.counters["links"] = static_cast<double>(session.graph().links().size());
  }
}
BENCHMARK(BM_ReconstructionVsActors)->Arg(2)->Arg(8)->Arg(32);

void BM_ObservedRunVsTraffic(benchmark::State& state) {
  int steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto w = build_world(4, 4, steps);
    dbg::Session session(*w->app);
    session.attach();
    DFDBG_CHECK(w->app->elaborate().ok());
    w->app->start();
    for (;;) {
      auto out = session.run();
      if (out.result != sim::RunResult::kStopped) break;
    }
    state.counters["tokens"] = static_cast<double>(session.graph().tokens_observed());
  }
}
BENCHMARK(BM_ObservedRunVsTraffic)->Arg(4)->Arg(16)->Arg(64);

void BM_StopsVsArmedCatchpoints(benchmark::State& state) {
  int armed = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto w = build_world(4, 4, 8);
    dbg::Session session(*w->app);
    session.attach();
    DFDBG_CHECK(w->app->elaborate().ok());
    int added = 0;
    for (const dbg::DActor& a : session.graph().actors()) {
      if (a.kind != dbg::DActorKind::kFilter || added >= armed) continue;
      DFDBG_CHECK(session.catch_work(a.name).ok());
      added++;
    }
    w->app->start();
    int stops = 0;
    for (;;) {
      auto out = session.run();
      if (out.result != sim::RunResult::kStopped) break;
      stops++;
    }
    state.counters["stops"] = stops;
  }
}
BENCHMARK(BM_StopsVsArmedCatchpoints)->Arg(0)->Arg(4)->Arg(16);

// Raw scheduler dispatch rate on the fibers backend. Each of `procs`
// processes yields `yields` times, so one run is ~procs*yields dispatches
// of pure scheduling with trivial process bodies — the cost under the
// microscope is the hand-over itself: two fiber switches plus the
// scheduler's own work around them. The yields are advance(0), which the
// kernel never resumes in place (only a lone timed wait is), so every
// dispatch here makes both switches and ns_per_context_switch stays half a
// dispatch.
void BM_DispatchRate(benchmark::State& state) {
  const int procs = 64;
  const int yields = 256;
  std::uint64_t dispatches = 0;
  double secs = 0.0;
  for (auto _ : state) {
    sim::Kernel k(sim::ProcessBackend::kFibers);
    for (int i = 0; i < procs; ++i)
      k.spawn("y" + std::to_string(i), [&k, yields] {
        for (int j = 0; j < yields; ++j) k.advance(0);
      });
    secs += benchutil::time_s([&] { DFDBG_CHECK(k.run() == sim::RunResult::kFinished); });
    dispatches += k.dispatch_count();
    DFDBG_CHECK(k.context_switch_count() == 2 * k.dispatch_count());
  }
  state.counters["dispatches"] = static_cast<double>(dispatches);
  state.counters["dispatches_per_sec"] = secs > 0 ? static_cast<double>(dispatches) / secs : 0;
  state.counters["ns_per_dispatch"] =
      dispatches > 0 ? secs * 1e9 / static_cast<double>(dispatches) : 0;
  state.counters["ns_per_context_switch"] =
      dispatches > 0 ? secs * 1e9 / (2.0 * static_cast<double>(dispatches)) : 0;
}
BENCHMARK(BM_DispatchRate)->Unit(benchmark::kMillisecond);

// The fiber switch alone, without the scheduler BM_DispatchRate wraps around
// it: a bare ping-pong between a scheduler anchor and one fiber. Each round
// trip is two FiberContext::switch_to calls.
void BM_FiberSwitch(benchmark::State& state) {
  struct PingPong {
    sim::FiberContext anchor;
    std::unique_ptr<sim::FiberContext> fiber;
    static void entry(void* self) {
      auto* pp = static_cast<PingPong*>(self);
      for (;;) sim::FiberContext::switch_to(*pp->fiber, pp->anchor);
    }
  } pp;
  // The fiber stays parked in its loop afterwards; its stack holds no
  // objects, so unmapping it while parked is safe.
  pp.fiber = std::make_unique<sim::FiberContext>(64 * 1024, &PingPong::entry, &pp);
  const int round_trips = 1 << 16;
  std::uint64_t switches = 0;
  double secs = 0.0;
  for (auto _ : state) {
    secs += benchutil::time_s([&] {
      for (int i = 0; i < round_trips; ++i) sim::FiberContext::switch_to(pp.anchor, *pp.fiber);
    });
    switches += 2 * round_trips;
  }
  state.counters["switches"] = static_cast<double>(switches);
  state.counters["ns_per_switch"] =
      switches > 0 ? secs * 1e9 / static_cast<double>(switches) : 0;
}
BENCHMARK(BM_FiberSwitch)->Unit(benchmark::kMillisecond);

// The same dispatch-rate probe but through the full PEDF stack: the layered
// pipeline of BM_ObservedRunVsTraffic, undebugged, on the fibers backend —
// dispatch cost under real token-pushing workloads, not just empty yields.
void BM_PipelineBackend(benchmark::State& state) {
  const auto saved = sim::default_process_backend();
  sim::set_default_process_backend(sim::ProcessBackend::kFibers);
  std::uint64_t dispatches = 0;
  double secs = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t tokens = 0;
  for (auto _ : state) {
    auto w = build_world(4, 4, 32);
    DFDBG_CHECK(w->app->elaborate().ok());
    w->app->start();
    {
      AllocWindow window;
      secs += benchutil::time_s([&] { w->kernel->run(); });
      allocs += AllocWindow::count();
    }
    dispatches += w->kernel->dispatch_count();
    // 4 lanes x 32 tokens, each crossing 5 links (4 stages + host edges).
    for (const auto* snk : w->sinks) tokens += snk->received().size() * 5;
  }
  sim::set_default_process_backend(saved);
  state.counters["dispatches"] = static_cast<double>(dispatches);
  state.counters["dispatches_per_sec"] = secs > 0 ? static_cast<double>(dispatches) / secs : 0;
  state.counters["ns_per_dispatch"] =
      dispatches > 0 ? secs * 1e9 / static_cast<double>(dispatches) : 0;
  state.counters["allocs_per_token"] =
      tokens > 0 ? static_cast<double>(allocs) / static_cast<double>(tokens) : 0;
}
BENCHMARK(BM_PipelineBackend)->Unit(benchmark::kMillisecond);

// --- token hot path ---------------------------------------------------------

/// The H.264 decoder's steady-state chroma token (3 fields, inline in the
/// small-buffer-optimized Value).
const pedf::StructType* chroma_type(pedf::TypeRegistry& reg) {
  const pedf::StructType* st = reg.find_struct("CbCrMB_t");
  if (st != nullptr) return st;
  return reg.define_struct("CbCrMB_t", {{"Addr", pedf::ScalarType::kU32, true},
                                        {"InterNotIntra", pedf::ScalarType::kU32, false},
                                        {"Izz", pedf::ScalarType::kU32, false}});
}

pedf::Value chroma_token(const pedf::StructType* st) {
  pedf::Value v = pedf::Value::make_struct(st);
  v.set_field("Addr", 0x145D);
  v.set_field("InterNotIntra", 1);
  v.set_field("Izz", 168460492);
  return v;
}

// The link layer alone: push/pop of struct-payload tokens on the contiguous
// {Value, uid} slot ring, no kernel, no instrumentation scopes. Arg = batch
// size: 1 uses push_raw/pop_raw, >1 the push_raw_n/pop_raw_n fast paths.
// The acceptance bar is allocs_per_token == 0 in steady state.
void BM_LinkRing(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  pedf::TypeRegistry reg;
  const pedf::StructType* st = chroma_type(reg);
  const pedf::Value proto = chroma_token(st);
  std::vector<pedf::Value> in(batch, proto);
  std::vector<pedf::Value> out(batch);
  pedf::Link link(pedf::LinkId(0), "bm", pedf::TypeDesc(st), nullptr, nullptr);
  for (std::size_t i = 0; i < 64; ++i) {  // warm the ring past growth
    link.push_raw(proto);
    link.pop_raw();
  }
  if (batch > 1) {  // grow the ring to the batch width before measuring
    link.push_raw_n(in.data(), batch);
    link.pop_raw_n(out.data(), batch);
  }
  std::uint64_t tokens = 0;
  AllocWindow window;
  for (auto _ : state) {
    if (batch == 1) {
      link.push_raw(proto);
      out[0] = link.pop_raw();
    } else {
      link.push_raw_n(in.data(), batch);
      link.pop_raw_n(out.data(), batch);
    }
    tokens += batch;
    benchmark::DoNotOptimize(out.data());
  }
  const std::uint64_t allocs = AllocWindow::count();
  state.counters["tokens_per_sec"] =
      benchmark::Counter(static_cast<double>(tokens), benchmark::Counter::kIsRate);
  state.counters["allocs_per_token"] =
      tokens > 0 ? static_cast<double>(allocs) / static_cast<double>(tokens) : 0;
}
BENCHMARK(BM_LinkRing)->Arg(1)->Arg(32);

/// The full framework stack on struct tokens: host source -> relay filter ->
/// host sink through the pedf__link_push/pop shims, latencies off so token
/// transport dominates. `batch` is every endpoint's firing batch: 1 is the
/// paper-faithful token-at-a-time hook stream, >1 opts into the batched
/// firing fast path (one blocking check and one coalesced notify per burst).
/// The kernel takes the default process backend.
struct RelayWorld {
  static constexpr std::size_t kTokens = 64 * 1024;  // multiple of every batch size

  sim::Kernel k;
  sim::Platform plat;
  pedf::Application app;

  explicit RelayWorld(std::size_t batch) : plat(k, platform_config()), app(plat, "bm") {
    app.set_model_latencies(false);
    const pedf::StructType* st = chroma_type(app.types());
    auto root = std::make_unique<pedf::Module>("top");
    auto* relay = new pedf::FnFilter(
        "relay", [buf = std::vector<pedf::Value>()](pedf::FilterContext& pedf) mutable {
          const std::size_t b = pedf.fire_batch();
          if (b > 1) {
            buf.resize(b);
            const std::size_t got = pedf.in("in").get_n(buf.data(), b);
            if (got > 0) pedf.out("out").put_n(buf.data(), got);
            if (got < b) pedf.stop();
          } else {
            auto v = pedf.in("in").get_opt();
            if (v.has_value()) pedf.out("out").put(*v);
          }
        });
    relay->add_port("in", pedf::PortDir::kIn, pedf::TypeDesc(st));
    relay->add_port("out", pedf::PortDir::kOut, pedf::TypeDesc(st));
    relay->set_free_running(true);
    relay->set_fire_batch(batch);
    root->add_filter(std::unique_ptr<pedf::Filter>(relay));
    root->add_port("min", pedf::PortDir::kIn, pedf::TypeDesc(st));
    root->add_port("mout", pedf::PortDir::kOut, pedf::TypeDesc(st));
    root->bind("this.min", "relay.in");
    root->bind("relay.out", "this.mout");
    std::vector<pedf::Value> stream(kTokens, chroma_token(st));
    app.set_root(std::move(root));
    app.add_host_source("src", "top.min", std::move(stream)).set_fire_batch(batch);
    app.add_host_sink("snk", "top.mout", kTokens).set_fire_batch(batch);
    DFDBG_CHECK(app.elaborate().ok());
  }

  static sim::PlatformConfig platform_config() {
    sim::PlatformConfig pc;
    pc.clusters = 1;
    pc.pes_per_cluster = 4;
    return pc;
  }
};

// RelayWorld on the fibers backend. Arg = firing batch.
void BM_TokenHotPath(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const auto saved = sim::default_process_backend();
  sim::set_default_process_backend(sim::ProcessBackend::kFibers);
  std::uint64_t tokens = 0;
  std::uint64_t allocs = 0;
  double secs = 0.0;
  for (auto _ : state) {
    RelayWorld w(batch);
    w.app.start();
    {
      AllocWindow window;
      secs += benchutil::time_s([&] { w.k.run(); });
      allocs += AllocWindow::count();
    }
    tokens += RelayWorld::kTokens * 2;  // each token crosses two links
  }
  sim::set_default_process_backend(saved);
  state.counters["fire_batch"] = static_cast<double>(batch);
  state.counters["tokens_per_sec"] = secs > 0 ? static_cast<double>(tokens) / secs : 0;
  state.counters["allocs_per_token"] =
      tokens > 0 ? static_cast<double>(allocs) / static_cast<double>(tokens) : 0;
}
BENCHMARK(BM_TokenHotPath)->Arg(1)->Arg(32)->Unit(benchmark::kMillisecond);

// RelayWorld (fibers, firing batch 1) under an attached debugger Session with
// nothing armed: every push and pop runs the mirror's data-exchange hooks and
// every firing the WORK entry/exit hooks, the paper's per-event intrusiveness.
// allocs_per_hook counts heap allocations per hook invocation over the run
// (bar: <= 0.01, checked by scripts/check_build.sh); ns_per_hook is the run's
// wall time per hook invocation, framework work included.
void BM_AttachedHotPath(benchmark::State& state) {
  const auto saved = sim::default_process_backend();
  sim::set_default_process_backend(sim::ProcessBackend::kFibers);
  std::uint64_t hooks = 0;
  std::uint64_t tokens = 0;
  std::uint64_t allocs = 0;
  double secs = 0.0;
  for (auto _ : state) {
    RelayWorld w(1);
    dbg::Session session(w.app);
    session.attach();
    w.app.start();
    {
      AllocWindow window;
      secs += benchutil::time_s([&] {
        while (session.run().result == sim::RunResult::kStopped) {
        }
      });
      allocs += AllocWindow::count();
    }
    hooks += w.k.instrument().hook_invocations();
    tokens += RelayWorld::kTokens;
  }
  sim::set_default_process_backend(saved);
  const double h = static_cast<double>(hooks);
  state.counters["hooks_per_token"] = tokens > 0 ? h / static_cast<double>(tokens) : 0;
  state.counters["allocs_per_hook"] = hooks > 0 ? static_cast<double>(allocs) / h : 0;
  state.counters["ns_per_hook"] = hooks > 0 ? secs * 1e9 / h : 0;
}
BENCHMARK(BM_AttachedHotPath)->Unit(benchmark::kMillisecond);

// What attaching a debugger adds to a whole decode: the seed-1 128x128x16
// H.264 stream (perfbench decode_debug's configuration), run plain (Arg 0)
// or under a Session with nothing armed (Arg 1), obs off; Arg 2 is Arg 1
// with obs on and the process-wide journal recording, the state every CLI
// session runs in, so /2 - /1 is the per-decode cost of the instruments and
// the journal. Only the run is timed: the encode and build, the attach and
// start, the checks and the teardown are paused out, so the difference is
// not buried under the ~0.3 s encode. allocs_per_push is heap allocations
// over the run per link push (scripts/check_build.sh fails if /2 exceeds /1
// by more than 0.001: turning obs on must add no allocation per event);
// wide_per_push is the share of pushes whose payload is wider than Value's
// inline words, each of which the mirror snapshots with one allocation.
// switches_per_dispatch and dispatches_per_push come from the kernel's exact
// counts (scripts/check_build.sh fails unless /0 resumes some timed waits in
// place, i.e. makes fewer than 2 switches per dispatch, and unless all three
// variants dispatch the same per push: attaching must not change the
// schedule).
void BM_AttachedDecode(benchmark::State& state) {
  const bool attach = state.range(0) != 0;
  const bool obs_on = state.range(0) == 2;
  h264::H264AppConfig cfg;
  cfg.params.width = 128;
  cfg.params.height = 128;
  cfg.params.frame_count = 16;
  cfg.seed = 1;
  std::uint64_t pushes = 0;
  std::uint64_t wide = 0;
  std::uint64_t allocs = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t switches = 0;
  const bool saved_obs = obs::enabled();
  obs::set_enabled(obs_on);
  obs::Journal::global().set_recording(true);
  for (auto _ : state) {
    state.PauseTiming();
    auto built = h264::H264App::build(cfg);
    DFDBG_CHECK_MSG(built.ok(), built.status().message());
    h264::H264App& app = **built;
    std::unique_ptr<dbg::Session> session;
    if (attach) {
      session = std::make_unique<dbg::Session>(app.app());
      session->attach();
    }
    app.start();
    state.ResumeTiming();
    {
      AllocWindow window;
      if (session != nullptr) {
        while (session->run().result == sim::RunResult::kStopped) {
        }
      } else {
        app.kernel().run();
      }
      allocs += AllocWindow::count();
    }
    state.PauseTiming();
    DFDBG_CHECK(app.decoded_matches_golden());
    dispatches += app.kernel().dispatch_count();
    switches += app.kernel().context_switch_count();
    for (const auto& l : app.app().links()) {
      pushes += l->push_index();
      const pedf::StructType* st = l->type().struct_type();
      if (st != nullptr && st->fields().size() > pedf::Value::kInlineFields)
        wide += l->push_index();
    }
    session.reset();
    built->reset();
    state.ResumeTiming();
  }
  obs::set_enabled(saved_obs);
  const double p = static_cast<double>(pushes);
  state.counters["attached"] = attach ? 1 : 0;
  state.counters["obs"] = obs_on ? 1 : 0;
  state.counters["pushes"] = p / static_cast<double>(state.iterations());
  state.counters["allocs_per_push"] = pushes > 0 ? static_cast<double>(allocs) / p : 0;
  state.counters["wide_per_push"] = pushes > 0 ? static_cast<double>(wide) / p : 0;
  state.counters["dispatches_per_push"] =
      pushes > 0 ? static_cast<double>(dispatches) / p : 0;
  state.counters["switches_per_dispatch"] =
      dispatches > 0 ? static_cast<double>(switches) / static_cast<double>(dispatches) : 0;
}
BENCHMARK(BM_AttachedDecode)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// One flight-recorder record against the bare store it performs. Arg 0 copies
// each 48-byte event into a plain array ring of the journal's capacity; Arg 1
// calls Journal::record with obs on, which gates, stores and adds to the
// journal's own recorded/dropped totals. Both rings are small enough to stay
// in cache and lap many times, so each variant measures its steady state:
// ns_per_record is wall time per event.
void BM_JournalRecord(benchmark::State& state) {
  constexpr std::size_t kCapacity = 4096;
  constexpr std::size_t kBurst = 1024;  // records per iteration
  const bool journal = state.range(0) != 0;
  const bool saved_obs = obs::enabled();
  obs::set_enabled(true);
  obs::Journal j(kCapacity);
  std::vector<obs::JournalEvent> bare(kCapacity);
  std::size_t pos = 0;
  obs::JournalEvent proto;
  proto.kind = obs::JournalKind::kTokenPush;
  proto.link = 3;
  proto.actor = 7;
  std::uint64_t records = 0;
  double secs = 0.0;
  for (auto _ : state) {
    secs += benchutil::time_s([&] {
      if (journal) {
        obs::JournalEvent ev = proto;
        for (std::size_t i = 0; i < kBurst; ++i) {
          ev.token = records + i;
          j.record(ev);
        }
      } else {
        // Field by field into the slot: copying a stack event whose token
        // was just stored would stall on store forwarding and inflate the
        // reference.
        for (std::size_t i = 0; i < kBurst; ++i) {
          obs::JournalEvent& e = bare[pos];
          e.time = proto.time;
          e.token = records + i;
          e.index = proto.index;
          e.firing = proto.firing;
          e.link = proto.link;
          e.actor = proto.actor;
          e.kind = proto.kind;
          if (++pos == kCapacity) pos = 0;
        }
      }
      benchmark::ClobberMemory();
    });
    records += kBurst;
  }
  obs::set_enabled(saved_obs);
  state.SetLabel(journal ? "Journal::record" : "bare ring store");
  state.counters["ns_per_record"] = records > 0 ? secs * 1e9 / static_cast<double>(records) : 0;
  state.counters["journal_retained"] = static_cast<double>(j.size());
}
BENCHMARK(BM_JournalRecord)->Arg(0)->Arg(1);

// --- parallel backend scaling -----------------------------------------------

// Token throughput of the wide synthetic graph (16 pipelines x 2 stages of
// spin-heavy work fanning into one sink) per backend: Arg(0) is the fibers
// baseline, Arg(K>0) the kParallel backend with K workers. The acceptance
// bar for the partitioned backend is >= 2x the fibers tokens_per_sec at 4
// workers — stage work dominates, each pipeline lives on its own cluster, so
// the cluster-modulo default map gives the barrier protocol its best case.
void BM_ParallelScaling(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  benchutil::WideGraphConfig cfg;
  cfg.pipelines = 16;
  cfg.stages = 2;
  cfg.tokens = 256;
  cfg.spin = 4000;
  std::uint64_t tokens = 0;
  std::uint64_t elided = 0;
  std::uint64_t eager = 0;
  double secs = 0.0;
  for (auto _ : state) {
    auto w = workers == 0
                 ? benchutil::build_wide_world(cfg, sim::ProcessBackend::kFibers)
                 : benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, workers);
    secs += benchutil::time_s([&] { benchutil::run_wide_world(*w); });
    DFDBG_CHECK_MSG(benchutil::sink_checksum(*w) == w->expected_checksum,
                    "wide graph checksum mismatch");
    tokens += w->expected_tokens;
    elided += w->kernel->elided_round_count();
    for (int i = 0; i < w->kernel->partition_count(); ++i)
      eager += w->kernel->shard_totals(i).eager_drained;
  }
  state.SetLabel(workers == 0 ? "fibers" : "parallel");
  state.counters["workers"] = workers;
  state.counters["tokens_per_sec"] = secs > 0 ? static_cast<double>(tokens) / secs : 0;
  // Relaxed-synchrony health: rounds that skipped the coordinator merge
  // entirely, and tokens that crossed partitions through a consumer-side
  // eager drain instead of waiting out a full barrier. Both are maintained
  // unconditionally, so they hold with obs off (this bench's default).
  state.counters["elided_rounds"] = static_cast<double>(elided);
  state.counters["eager_drained_tokens"] = static_cast<double>(eager);
  // Wall-clock speedup needs real cores under the workers; scrapers gate the
  // 2x-at-4-workers acceptance check on host_cpus >= 4 (a single-core host
  // time-slices the workers and can only show parity).
  state.counters["host_cpus"] = static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_ParallelScaling)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The relaxed-synchrony fast paths under latency modeling, where they earn
// their keep: timed transport latencies break the run into many small rounds,
// most of which are pure local compute between wakeups — exactly the rounds
// barrier elision skips and sparse wakes leave idle shards parked through.
// (BM_ParallelScaling's latency-free graph collapses into a handful of giant
// rounds that all carry boundary traffic, so its elided_rounds is 0 by
// design; this arm is the one the single-core acceptance gate reads.)
void BM_ParallelElision(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  benchutil::WideGraphConfig cfg;
  cfg.pipelines = 4;
  cfg.stages = 2;
  cfg.tokens = 64;
  cfg.spin = 256;
  std::uint64_t tokens = 0;
  std::uint64_t rounds = 0;
  std::uint64_t elided = 0;
  std::uint64_t eager = 0;
  std::uint64_t skipped = 0;
  double secs = 0.0;
  for (auto _ : state) {
    auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, workers);
    w->app->set_model_latencies(true);
    secs += benchutil::time_s([&] { benchutil::run_wide_world(*w); });
    DFDBG_CHECK_MSG(benchutil::sink_checksum(*w) == w->expected_checksum,
                    "wide graph checksum mismatch");
    tokens += w->expected_tokens;
    rounds += w->kernel->round_count();
    elided += w->kernel->elided_round_count();
    for (int i = 0; i < w->kernel->partition_count(); ++i) {
      eager += w->kernel->shard_totals(i).eager_drained;
      skipped += w->kernel->shard_totals(i).skipped_wakes;
    }
  }
  state.SetLabel("parallel+latency");
  state.counters["workers"] = workers;
  state.counters["tokens_per_sec"] = secs > 0 ? static_cast<double>(tokens) / secs : 0;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["elided_rounds"] = static_cast<double>(elided);
  state.counters["eager_drained_tokens"] = static_cast<double>(eager);
  state.counters["skipped_wakes"] = static_cast<double>(skipped);
  state.counters["host_cpus"] = static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_ParallelElision)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Wall cost of the shard time-attribution profiler: BM_ParallelScaling's
// 4-worker case with obs disabled (Arg 0, the zero-cost claim) vs enabled
// (Arg 1, clock reads + round records + histograms on every barrier round).
// The acceptance bar is enabled/disabled wall <= 1.10x.
void BM_ParallelAttribution(benchmark::State& state) {
  const bool attributed = state.range(0) != 0;
  const bool saved_obs = obs::enabled();
  obs::set_enabled(attributed);
  benchutil::WideGraphConfig cfg;
  cfg.pipelines = 16;
  cfg.stages = 2;
  cfg.tokens = 256;
  cfg.spin = 4000;
  std::uint64_t tokens = 0;
  std::uint64_t rounds = 0;
  std::uint64_t elided = 0;
  std::uint64_t eager = 0;
  double secs = 0.0;
  for (auto _ : state) {
    auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, 4);
    secs += benchutil::time_s([&] { benchutil::run_wide_world(*w); });
    DFDBG_CHECK_MSG(benchutil::sink_checksum(*w) == w->expected_checksum,
                    "wide graph checksum mismatch");
    tokens += w->expected_tokens;
    rounds += w->kernel->round_count();
    elided += w->kernel->elided_round_count();
    for (int i = 0; i < w->kernel->partition_count(); ++i)
      eager += w->kernel->shard_totals(i).eager_drained;
    // The zero-cost claim, checked in-band: no records accumulate while off.
    DFDBG_CHECK(attributed || w->kernel->round_records().empty());
  }
  obs::set_enabled(saved_obs);
  state.SetLabel(attributed ? "obs_on" : "obs_off");
  state.counters["attributed"] = attributed ? 1 : 0;
  state.counters["tokens_per_sec"] = secs > 0 ? static_cast<double>(tokens) / secs : 0;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["elided_rounds"] = static_cast<double>(elided);
  state.counters["eager_drained_tokens"] = static_cast<double>(eager);
  state.counters["host_cpus"] = static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_ParallelAttribution)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The adaptive partitioner on a deliberately skewed wide graph: lane p
// carries 1+p stages, so the cluster-modulo map (whole lane -> worker p%K)
// is load-imbalanced by construction (max worker load 12/36 stage-tokens vs
// the 9/36 ideal at K=4), while kAdaptive re-places individual stages by
// their recorded activations (LPT). Arg 0 = cluster-modulo baseline, Arg 1 =
// adaptive driven by a profile taken from one untimed modulo run. The
// acceptance bar is adaptive tokens_per_sec >= modulo tokens_per_sec.
void BM_AdaptivePartition(benchmark::State& state) {
  const bool adaptive = state.range(0) != 0;
  benchutil::WideGraphConfig cfg;
  cfg.pipelines = 8;
  cfg.stages = 1;
  cfg.stage_skew = 1;
  cfg.tokens = 128;
  cfg.spin = 4000;
  const int workers = 4;
  // Profiling run: cluster-modulo, untimed, both arms (so setup cost is
  // symmetric); its activation counts drive the adaptive arm.
  std::map<std::string, std::uint64_t> profile;
  {
    auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, workers);
    benchutil::run_wide_world(*w);
    profile = w->app->dispatch_profile();
  }
  std::uint64_t tokens = 0;
  double secs = 0.0;
  for (auto _ : state) {
    auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, workers);
    if (adaptive) {
      w->app->set_partition_policy(pedf::Application::PartitionPolicy::kAdaptive);
      w->app->set_partition_profile(profile);
    }
    secs += benchutil::time_s([&] { benchutil::run_wide_world(*w); });
    DFDBG_CHECK_MSG(benchutil::sink_checksum(*w) == w->expected_checksum,
                    "skewed wide graph checksum mismatch");
    tokens += w->expected_tokens;
  }
  state.SetLabel(adaptive ? "adaptive" : "cluster_modulo");
  state.counters["adaptive"] = adaptive ? 1 : 0;
  state.counters["tokens_per_sec"] = secs > 0 ? static_cast<double>(tokens) / secs : 0;
  state.counters["host_cpus"] = static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_AdaptivePartition)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dfdbg::benchutil::run_all_benchmarks(&argc, argv);
}
