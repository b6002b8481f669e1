// Tests of the PEDF runtime: binding resolution (including hierarchical
// module-port flattening), the controller step protocol, predicates, host
// I/O, blocking semantics, termination, mapping and debugger alteration
// entry points.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dfdbg/pedf/application.hpp"

namespace dfdbg::pedf {
namespace {

/// Doubles every input token.
class DoublerFilter : public Filter {
 public:
  explicit DoublerFilter(std::string name) : Filter(std::move(name)) {
    add_port("in", PortDir::kIn, TypeDesc());
    add_port("out", PortDir::kOut, TypeDesc());
  }
  void work(FilterContext& pedf) override {
    Value v = pedf.in("in").get();
    pedf.compute(5);
    pedf.out("out").put(Value::u32(static_cast<std::uint32_t>(v.as_u64() * 2)));
  }
};

/// Adds +1 to every input token.
class IncFilter : public Filter {
 public:
  explicit IncFilter(std::string name) : Filter(std::move(name)) {
    add_port("in", PortDir::kIn, TypeDesc());
    add_port("out", PortDir::kOut, TypeDesc());
  }
  void work(FilterContext& pedf) override {
    Value v = pedf.in("in").get();
    pedf.out("out").put(Value::u32(static_cast<std::uint32_t>(v.as_u64() + 1)));
  }
};

/// Fires all child filters once per step, `steps` times.
std::unique_ptr<Controller> all_fire_controller(std::string name, int steps) {
  return std::make_unique<FnController>(std::move(name), [steps](ControllerContext& ctx) {
    for (int s = 0; s < steps; ++s) {
      ctx.next_step();
      for (const auto& f : ctx.module().filters()) ctx.actor_start(f->name());
      ctx.wait_for_actor_init();
      for (const auto& f : ctx.module().filters()) ctx.actor_sync(f->name());
      ctx.wait_for_actor_sync();
    }
  });
}

struct Fixture {
  sim::Kernel kernel;
  sim::Platform platform;
  Application app;
  Fixture() : platform(kernel, small()), app(platform, "test") {}
  static sim::PlatformConfig small() {
    sim::PlatformConfig c;
    c.clusters = 2;
    c.pes_per_cluster = 4;
    return c;
  }
};

TEST(PedfRuntime, LinearPipelineComputes) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_port("out", PortDir::kOut, TypeDesc());
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  mod->add_filter(std::make_unique<IncFilter>("inc"));
  mod->set_controller(all_fire_controller("controller", 3));
  mod->bind("this.in", "dbl.in");
  mod->bind("dbl.out", "inc.in");
  mod->bind("inc.out", "this.out");
  fx.app.set_root(std::move(mod));
  fx.app.add_host_source("src", "m.in", {Value::u32(1), Value::u32(2), Value::u32(3)});
  auto& sink = fx.app.add_host_sink("snk", "m.out", 3);
  ASSERT_TRUE(fx.app.elaborate().ok());
  fx.app.start();
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kFinished);
  ASSERT_EQ(sink.received().size(), 3u);
  EXPECT_EQ(sink.received()[0].as_u64(), 3u);  // 1*2+1
  EXPECT_EQ(sink.received()[1].as_u64(), 5u);
  EXPECT_EQ(sink.received()[2].as_u64(), 7u);
}

TEST(PedfRuntime, HierarchicalModulePortsFlatten) {
  Fixture fx;
  auto inner = std::make_unique<Module>("inner");
  inner->add_port("i", PortDir::kIn, TypeDesc());
  inner->add_port("o", PortDir::kOut, TypeDesc());
  inner->add_filter(std::make_unique<DoublerFilter>("dbl"));
  inner->set_controller(all_fire_controller("inner_ctl", 2));
  inner->bind("this.i", "dbl.in");
  inner->bind("dbl.out", "this.o");

  auto outer = std::make_unique<Module>("outer");
  outer->add_port("in", PortDir::kIn, TypeDesc());
  outer->add_port("out", PortDir::kOut, TypeDesc());
  outer->add_module(std::move(inner));
  outer->bind("this.in", "inner.i");
  outer->bind("inner.o", "this.out");

  fx.app.set_root(std::move(outer));
  fx.app.add_host_source("src", "outer.in", {Value::u32(5), Value::u32(6)});
  auto& sink = fx.app.add_host_sink("snk", "outer.out", 2);
  ASSERT_TRUE(fx.app.elaborate().ok());
  // Flattening produced direct filter links despite two boundary crossings.
  Link* l = fx.app.link_by_iface("dbl::in");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->src()->owner().name(), "src");
  fx.app.start();
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kFinished);
  ASSERT_EQ(sink.received().size(), 2u);
  EXPECT_EQ(sink.received()[0].as_u64(), 10u);
  EXPECT_EQ(sink.received()[1].as_u64(), 12u);
}

TEST(PedfRuntime, UnboundInputRejected) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  // dbl.in and dbl.out never bound.
  fx.app.set_root(std::move(mod));
  Status s = fx.app.elaborate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unbound"), std::string::npos);
}

TEST(PedfRuntime, TypeMismatchRejected) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  auto f = std::make_unique<FnFilter>("f", [](FilterContext&) {});
  f->add_port("o", PortDir::kOut, TypeDesc(ScalarType::kU16));
  auto g = std::make_unique<FnFilter>("g", [](FilterContext&) {});
  g->add_port("i", PortDir::kIn, TypeDesc(ScalarType::kU32));
  mod->add_filter(std::move(f));
  mod->add_filter(std::move(g));
  mod->bind("f.o", "g.i");
  fx.app.set_root(std::move(mod));
  Status s = fx.app.elaborate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("type mismatch"), std::string::npos);
}

TEST(PedfRuntime, DuplicateFilterNamesRejected) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  auto a = std::make_unique<Module>("a");
  a->add_filter(std::make_unique<FnFilter>("same", [](FilterContext&) {}));
  auto b = std::make_unique<Module>("b");
  b->add_filter(std::make_unique<FnFilter>("same", [](FilterContext&) {}));
  mod->add_module(std::move(a));
  mod->add_module(std::move(b));
  fx.app.set_root(std::move(mod));
  Status s = fx.app.elaborate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate filter name"), std::string::npos);
}

TEST(PedfRuntime, StepProtocolStates) {
  // Observe scheduled/running/done transitions through a controller that
  // pauses between primitives.
  Fixture fx;
  std::vector<StepState> observed;
  auto mod = std::make_unique<Module>("m");
  Filter* f = &mod->add_filter(std::make_unique<FnFilter>("f", [](FilterContext& ctx) {
    ctx.compute(10);
  }));
  mod->set_controller(std::make_unique<FnController>("ctl", [&, f](ControllerContext& ctx) {
    ctx.next_step();
    observed.push_back(f->step_state());  // before start: idle
    ctx.actor_start("f");
    observed.push_back(f->step_state());  // scheduled
    ctx.wait_for_actor_init();
    observed.push_back(f->step_state());  // running (or done if instant)
    ctx.actor_sync("f");
    ctx.wait_for_actor_sync();
    observed.push_back(f->step_state());  // idle again after sync
  }));
  fx.app.set_root(std::move(mod));
  ASSERT_TRUE(fx.app.elaborate().ok());
  fx.app.start();
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kFinished);
  ASSERT_EQ(observed.size(), 4u);
  EXPECT_EQ(observed[0], StepState::kIdle);
  EXPECT_EQ(observed[1], StepState::kScheduled);
  EXPECT_TRUE(observed[2] == StepState::kRunning || observed[2] == StepState::kDone);
  EXPECT_EQ(observed[3], StepState::kIdle);
}

TEST(PedfRuntime, PredicatesEvaluate) {
  Fixture fx;
  int fired = 0;
  auto mod = std::make_unique<Module>("m");
  mod->add_filter(std::make_unique<FnFilter>("f", [&](FilterContext&) { fired++; }));
  mod->define_predicate("keep_going", [](Module& m) { return m.step() < 4; });
  mod->set_controller(std::make_unique<FnController>("ctl", [](ControllerContext& ctx) {
    ctx.next_step();
    while (ctx.predicate("keep_going")) {
      ctx.actor_fire("f");
      ctx.wait_for_actor_sync();
      ctx.next_step();
    }
  }));
  fx.app.set_root(std::move(mod));
  ASSERT_TRUE(fx.app.elaborate().ok());
  fx.app.start();
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kFinished);
  EXPECT_EQ(fired, 3);  // steps 1..3 fire; predicate false at step 4
}

TEST(PedfRuntime, FilterBlocksOnEmptyInput) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_port("out", PortDir::kOut, TypeDesc());
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  mod->set_controller(all_fire_controller("ctl", 2));
  mod->bind("this.in", "dbl.in");
  mod->bind("dbl.out", "this.out");
  fx.app.set_root(std::move(mod));
  // Source supplies only ONE token but the controller wants two steps.
  fx.app.add_host_source("src", "m.in", {Value::u32(1)});
  fx.app.add_host_sink("snk", "m.out", 2);
  ASSERT_TRUE(fx.app.elaborate().ok());
  fx.app.start();
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kDeadlock);
  Actor* dbl = fx.app.actor_by_name("dbl");
  EXPECT_EQ(dbl->blocked().kind, BlockInfo::Kind::kLinkEmpty);
}

TEST(PedfRuntime, BoundedLinkBlocksProducer) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc());
  // A consumer that never fires: producer must block on the full link.
  auto sinkless = std::make_unique<FnFilter>("lazy", [](FilterContext&) {});
  sinkless->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_filter(std::move(sinkless));
  auto pump = std::make_unique<FnFilter>("pump", [](FilterContext& ctx) {
    for (int i = 0; i < 10; ++i) ctx.out("out").put(Value::u32(static_cast<std::uint32_t>(i)));
  });
  pump->add_port("out", PortDir::kOut, TypeDesc());
  pump->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_filter(std::move(pump));
  mod->set_controller(std::make_unique<FnController>("ctl", [](ControllerContext& ctx) {
    ctx.next_step();
    ctx.actor_fire("pump");
    ctx.wait_for_actor_sync();
  }));
  mod->bind("this.in", "pump.in");
  mod->bind("pump.out", "lazy.in");
  fx.app.set_root(std::move(mod));
  fx.app.add_host_source("src", "m.in", {Value::u32(0)});
  ASSERT_TRUE(fx.app.elaborate().ok());
  fx.app.link_by_iface("lazy::in")->set_capacity(4);
  fx.app.start();
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kDeadlock);
  Actor* pump_a = fx.app.actor_by_name("pump");
  EXPECT_EQ(pump_a->blocked().kind, BlockInfo::Kind::kLinkFull);
  EXPECT_EQ(fx.app.link_by_iface("lazy::in")->occupancy(), 4u);
}

TEST(PedfRuntime, FinishIoUnblocksSinks) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_port("out", PortDir::kOut, TypeDesc());
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  mod->set_controller(all_fire_controller("ctl", 2));
  mod->bind("this.in", "dbl.in");
  mod->bind("dbl.out", "this.out");
  fx.app.set_root(std::move(mod));
  fx.app.add_host_source("src", "m.in", {Value::u32(1), Value::u32(2)});
  // Sink expects MORE tokens than the graph will produce.
  auto& sink = fx.app.add_host_sink("snk", "m.out", 100);
  ASSERT_TRUE(fx.app.elaborate().ok());
  fx.app.start();
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kDeadlock);
  fx.app.finish_io();
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kFinished);
  EXPECT_EQ(sink.received().size(), 2u);
}

TEST(PedfRuntime, ExplicitMappingHonored) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_port("out", PortDir::kOut, TypeDesc());
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  mod->set_controller(all_fire_controller("ctl", 1));
  mod->bind("this.in", "dbl.in");
  mod->bind("dbl.out", "this.out");
  fx.app.set_root(std::move(mod));
  fx.app.add_host_source("src", "m.in", {Value::u32(1)});
  fx.app.add_host_sink("snk", "m.out", 1);
  fx.app.map_actor("m.dbl", "c1p3");
  ASSERT_TRUE(fx.app.elaborate().ok());
  EXPECT_EQ(fx.app.actor_by_name("dbl")->pe()->name(), "c1p3");
  // Host I/O maps on host cores.
  EXPECT_EQ(fx.app.actor_by_name("src")->pe()->kind(), sim::PeKind::kHost);
}

TEST(PedfRuntime, LinkTransportFollowsMapping) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_port("out", PortDir::kOut, TypeDesc());
  mod->add_filter(std::make_unique<DoublerFilter>("a"));
  mod->add_filter(std::make_unique<IncFilter>("b"));
  mod->set_controller(all_fire_controller("ctl", 1));
  mod->bind("this.in", "a.in");
  mod->bind("a.out", "b.in");
  mod->bind("b.out", "this.out");
  fx.app.set_root(std::move(mod));
  fx.app.add_host_source("src", "m.in", {Value::u32(1)});
  fx.app.add_host_sink("snk", "m.out", 1);
  fx.app.map_actor("m.a", "c0p0");
  fx.app.map_actor("m.b", "c1p0");  // cross-cluster
  ASSERT_TRUE(fx.app.elaborate().ok());
  EXPECT_EQ(fx.app.link_by_iface("b::in")->transport(), LinkTransport::kInterCluster);
  EXPECT_EQ(fx.app.link_by_iface("a::in")->transport(), LinkTransport::kHostDma);
}

TEST(PedfRuntime, DebugInjectRemoveReplace) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_port("out", PortDir::kOut, TypeDesc());
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  mod->set_controller(all_fire_controller("ctl", 1));
  mod->bind("this.in", "dbl.in");
  mod->bind("dbl.out", "this.out");
  fx.app.set_root(std::move(mod));
  fx.app.add_host_source("src", "m.in", {Value::u32(1)});
  fx.app.add_host_sink("snk", "m.out", 1);
  ASSERT_TRUE(fx.app.elaborate().ok());
  Link* l = fx.app.link_by_iface("dbl::in");
  ASSERT_NE(l, nullptr);
  fx.app.debug_inject(*l, Value::u32(7));
  fx.app.debug_inject(*l, Value::u32(8));
  EXPECT_EQ(l->occupancy(), 2u);
  fx.app.debug_replace(*l, 1, Value::u32(9));
  EXPECT_EQ(l->peek(1).as_u64(), 9u);
  Value gone = fx.app.debug_remove(*l, 0);
  EXPECT_EQ(gone.as_u64(), 7u);
  EXPECT_EQ(l->occupancy(), 1u);
}

TEST(PedfRuntime, UnresolvableHostBindingRejected) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc());
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  mod->set_controller(all_fire_controller("ctl", 1));
  mod->bind("this.in", "dbl.in");
  fx.app.set_root(std::move(mod));
  fx.app.add_host_source("src", "m.nonexistent_port", {Value::u32(1)});
  Status s = fx.app.elaborate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("cannot resolve target"), std::string::npos);
}

TEST(PedfRuntime, MalformedBindingEndpointRejected) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  mod->bind("no_dot_here", "dbl.in");
  fx.app.set_root(std::move(mod));
  Status s = fx.app.elaborate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("malformed endpoint"), std::string::npos);
}

TEST(PedfRuntime, BindingToUnknownChildRejected) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
  mod->bind("ghost.out", "dbl.in");
  fx.app.set_root(std::move(mod));
  Status s = fx.app.elaborate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no child 'ghost'"), std::string::npos);
}

TEST(PedfRuntime, FanOutRejected) {
  Fixture fx;
  auto mod = std::make_unique<Module>("m");
  auto a = std::make_unique<FnFilter>("a", [](FilterContext&) {});
  a->add_port("o", PortDir::kOut, TypeDesc());
  auto b = std::make_unique<FnFilter>("b", [](FilterContext&) {});
  b->add_port("i", PortDir::kIn, TypeDesc());
  auto c = std::make_unique<FnFilter>("c", [](FilterContext&) {});
  c->add_port("i", PortDir::kIn, TypeDesc());
  mod->add_filter(std::move(a));
  mod->add_filter(std::move(b));
  mod->add_filter(std::move(c));
  mod->bind("a.o", "b.i");
  mod->bind("a.o", "c.i");  // dataflow arcs are point-to-point
  fx.app.set_root(std::move(mod));
  Status s = fx.app.elaborate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("bound twice"), std::string::npos);
}

TEST(PedfRuntime, WorkloadScalesWithSteps) {
  // Property sweep: N steps through the doubler move exactly N tokens.
  for (int steps : {1, 4, 16, 64}) {
    Fixture fx;
    auto mod = std::make_unique<Module>("m");
    mod->add_port("in", PortDir::kIn, TypeDesc());
    mod->add_port("out", PortDir::kOut, TypeDesc());
    mod->add_filter(std::make_unique<DoublerFilter>("dbl"));
    mod->set_controller(all_fire_controller("ctl", steps));
    mod->bind("this.in", "dbl.in");
    mod->bind("dbl.out", "this.out");
    fx.app.set_root(std::move(mod));
    std::vector<Value> stream;
    for (int i = 0; i < steps; ++i) stream.push_back(Value::u32(static_cast<std::uint32_t>(i)));
    fx.app.set_model_latencies(false);
    fx.app.add_host_source("src", "m.in", std::move(stream));
    auto& sink = fx.app.add_host_sink("snk", "m.out", static_cast<std::size_t>(steps));
    ASSERT_TRUE(fx.app.elaborate().ok());
    fx.app.start();
    EXPECT_EQ(fx.kernel.run(), sim::RunResult::kFinished);
    ASSERT_EQ(sink.received().size(), static_cast<std::size_t>(steps));
    for (int i = 0; i < steps; ++i)
      EXPECT_EQ(sink.received()[static_cast<std::size_t>(i)].as_u64(),
                static_cast<std::uint64_t>(2 * i));
  }
}

/// Swaps the X and Y fields of every Pt token through the handles its bind()
/// resolved, alternating with the lookups by name on every other firing, and
/// checks on each firing that both name the same port, slot and field.
class BoundSwapFilter : public Filter {
 public:
  BoundSwapFilter(std::string name, const StructType* pt) : Filter(std::move(name)) {
    add_port("in", PortDir::kIn, TypeDesc(pt));
    add_port("out", PortDir::kOut, TypeDesc(pt));
    declare_data("swapped", Value::u32(0));
    declare_attribute("last_x", Value::u32(0));
  }

  void bind(FilterContext& pedf) override {
    binds++;
    in_ = pedf.in("in");
    out_ = pedf.out("out");
    swapped_ = &pedf.data("swapped");
    last_x_ = &pedf.attr("last_x");
    const StructType* st = in_.port()->type().struct_type();
    x_ = static_cast<std::size_t>(st->field_index("X"));
    y_ = static_cast<std::size_t>(st->field_index("Y"));
  }

  void work(FilterContext& pedf) override {
    EXPECT_EQ(in_.port(), pedf.in("in").port());
    EXPECT_EQ(out_.port(), pedf.out("out").port());
    EXPECT_EQ(swapped_, &pedf.data("swapped"));
    EXPECT_EQ(last_x_, &pedf.attr("last_x"));
    const bool by_handle = swapped_->as_u64() % 2 == 0;
    Value v = by_handle ? in_.get() : pedf.in("in").get();
    EXPECT_EQ(v.field_u64_at(x_), v.field_u64("X"));
    EXPECT_EQ(v.field_u64_at(y_), v.field_u64("Y"));
    Value w = Value::make_struct(v.type().struct_type());
    if (by_handle) {
      w.set_field_at(x_, v.field_u64_at(y_));
      w.set_field_at(y_, v.field_u64_at(x_));
      out_.put(w);
    } else {
      w.set_field("X", v.field_u64("Y"));
      w.set_field("Y", v.field_u64("X"));
      pedf.out("out").put(w);
    }
    swapped_->set_scalar_u64(swapped_->as_u64() + 1);
    Value& last_x = by_handle ? *last_x_ : pedf.attr("last_x");
    last_x.set_scalar_u64(w.field_u64_at(x_));
  }

  int binds = 0;

 private:
  FilterContext::In in_;
  FilterContext::Out out_;
  Value* swapped_ = nullptr;
  Value* last_x_ = nullptr;
  std::size_t x_ = 0;
  std::size_t y_ = 0;
};

TEST(PedfRuntime, HandlesResolvedOnceMatchTheLookupsByName) {
  Fixture fx;
  const StructType* pt = fx.app.types().define_struct(
      "Pt", {{"X", ScalarType::kU32, false}, {"Y", ScalarType::kU32, false}});
  constexpr int kSteps = 6;
  auto mod = std::make_unique<Module>("m");
  mod->add_port("in", PortDir::kIn, TypeDesc(pt));
  mod->add_port("out", PortDir::kOut, TypeDesc(pt));
  auto swap = std::make_unique<BoundSwapFilter>("swap", pt);
  BoundSwapFilter* f = swap.get();
  mod->add_filter(std::move(swap));
  mod->set_controller(all_fire_controller("ctl", kSteps));
  mod->bind("this.in", "swap.in");
  mod->bind("swap.out", "this.out");
  fx.app.set_root(std::move(mod));
  std::vector<Value> stream;
  for (int i = 0; i < kSteps; ++i) {
    Value v = Value::make_struct(pt);
    v.set_field("X", static_cast<std::uint64_t>(i));
    v.set_field("Y", static_cast<std::uint64_t>(100 + i));
    stream.push_back(v);
  }
  fx.app.add_host_source("src", "m.in", std::move(stream));
  auto& sink = fx.app.add_host_sink("snk", "m.out", kSteps);
  ASSERT_TRUE(fx.app.elaborate().ok());
  EXPECT_EQ(f->binds, 0);
  fx.app.start();
  EXPECT_EQ(f->binds, 1);  // at spawn, before the first token
  EXPECT_EQ(fx.kernel.run(), sim::RunResult::kFinished);
  EXPECT_EQ(f->binds, 1);
  ASSERT_EQ(sink.received().size(), static_cast<std::size_t>(kSteps));
  for (int i = 0; i < kSteps; ++i) {
    const Value& v = sink.received()[static_cast<std::size_t>(i)];
    EXPECT_EQ(v.field_u64("X"), static_cast<std::uint64_t>(100 + i));
    EXPECT_EQ(v.field_u64("Y"), static_cast<std::uint64_t>(i));
  }
  // The slots written through the handles are the ones the names find.
  EXPECT_EQ(f->data("swapped")->as_u64(), static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(f->attribute("last_x")->as_u64(), static_cast<std::uint64_t>(100 + kSteps - 1));
}

}  // namespace
}  // namespace dfdbg::pedf
