// FIG3 — exercises the two-level debugging machinery the paper's Fig. 3
// depicts: the function/finish breakpoint engine between the framework and
// the debugger's internal representation.
//
// Measures: instrumentation fast-path cost when detached, enter/exit hook
// dispatch rates, and model-update throughput (token mirror).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "dfdbg/debug/model.hpp"
#include "dfdbg/sim/kernel.hpp"

using namespace dfdbg;
using sim::ArgValue;

static void BM_DetachedFastPath(benchmark::State& state) {
  // The framework's cost per API call when no debugger is attached: one
  // armed() check.
  sim::Kernel kernel;
  auto& port = kernel.instrument();
  sim::SymbolId s = port.intern("pedf__link_push");
  const ArgValue args[] = {ArgValue::of_u64("link", 1), ArgValue::of_u64("index", 2)};
  for (auto _ : state) {
    sim::InstrScope scope(kernel, s, args);
    benchmark::DoNotOptimize(&scope);
  }
}
BENCHMARK(BM_DetachedFastPath);

static void BM_ArmedEnterExit(benchmark::State& state) {
  // Full function+finish breakpoint dispatch with `n` hooks installed.
  sim::Kernel kernel;
  auto& port = kernel.instrument();
  port.set_enabled(true);
  sim::SymbolId s = port.intern("pedf__link_push");
  std::uint64_t sink = 0;
  for (int i = 0; i < state.range(0); ++i) {
    port.add_enter_hook(s, [&](sim::Frame& f) { sink += f.arg("link")->u64; });
    port.add_exit_hook(s, [&](sim::Frame& f) { sink += f.ret() ? f.ret()->u64 : 0; });
  }
  const ArgValue args[] = {ArgValue::of_u64("link", 1), ArgValue::of_u64("index", 2)};
  for (auto _ : state) {
    sim::InstrScope scope(kernel, s, args);
    scope.set_return(ArgValue::of_u64("index", 3));
  }
  benchmark::DoNotOptimize(sink);
  state.counters["hook_invocations"] = static_cast<double>(port.hook_invocations());
}
BENCHMARK(BM_ArmedEnterExit)->Arg(1)->Arg(4);

static void BM_DisabledHook(benchmark::State& state) {
  // Paper §V option 1: breakpoint present but disabled.
  sim::Kernel kernel;
  auto& port = kernel.instrument();
  port.set_enabled(true);
  sim::SymbolId s = port.intern("pedf__link_push");
  sim::HookId h = port.add_enter_hook(s, [](sim::Frame&) {});
  port.set_hook_enabled(h, false);
  const ArgValue args[] = {ArgValue::of_u64("link", 1)};
  for (auto _ : state) {
    sim::InstrScope scope(kernel, s, args);
    benchmark::DoNotOptimize(&scope);
  }
}
BENCHMARK(BM_DisabledHook);

static void BM_ModelTokenMirror(benchmark::State& state) {
  // Debugger-side cost per observed data exchange: token object creation,
  // link queue update, provenance, consumption.
  dbg::GraphModel model;
  model.on_register_actor(dbg::DActorKind::kFilter, "a", "m.a", "c0p0", "m", 0);
  model.on_register_actor(dbg::DActorKind::kFilter, "b", "m.b", "c0p1", "m", 1);
  model.on_register_port("m.a", "o", false, "U32");
  model.on_register_port("m.b", "i", true, "U32");
  model.on_register_link(0, "a::o -> b::i", "m.a", "o", "m.b", "i", "U32", "L1");
  model.on_graph_ready();
  model.set_token_history_limit(1 << 12);
  pedf::Value v = pedf::Value::u32(7);
  std::uint64_t idx = 0;
  for (auto _ : state) {
    model.on_push(0, idx++, v, /*actor=*/0, 1);
    model.on_pop(0, /*actor=*/1, 2);
  }
  state.counters["tokens_observed"] = static_cast<double>(model.tokens_observed());
}
BENCHMARK(BM_ModelTokenMirror);

static void BM_ModelMirrorStructTokens(benchmark::State& state) {
  dbg::GraphModel model;
  model.on_register_actor(dbg::DActorKind::kFilter, "a", "m.a", "c0p0", "m", 0);
  model.on_register_actor(dbg::DActorKind::kFilter, "b", "m.b", "c0p1", "m", 1);
  model.on_register_port("m.a", "o", false, "Blk_t");
  model.on_register_port("m.b", "i", true, "Blk_t");
  model.on_register_link(0, "a::o -> b::i", "m.a", "o", "m.b", "i", "Blk_t", "L1");
  model.on_graph_ready();
  model.set_token_history_limit(1 << 12);
  pedf::TypeRegistry types;
  std::vector<pedf::FieldDesc> fields;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
    fields.push_back(pedf::FieldDesc{"f" + std::to_string(i), pedf::ScalarType::kU32, false});
  const pedf::StructType* st = types.define_struct("Blk_t", std::move(fields));
  pedf::Value v = pedf::Value::make_struct(st);
  std::uint64_t idx = 0;
  for (auto _ : state) {
    model.on_push(0, idx++, v, /*actor=*/0, 1);
    model.on_pop(0, /*actor=*/1, 2);
  }
}
BENCHMARK(BM_ModelMirrorStructTokens)->Arg(3)->Arg(22);

int main(int argc, char** argv) {
  return dfdbg::benchutil::run_all_benchmarks(&argc, argv);
}
