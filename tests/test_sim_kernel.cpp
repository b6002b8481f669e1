// Tests of the deterministic cooperative kernel: scheduling, events, time,
// debug_break resumability, deadlock detection, instrumentation port.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::sim {
namespace {

TEST(Kernel, RunsToCompletion) {
  Kernel k;
  int ran = 0;
  k.spawn("p", [&] { ran = 1; });
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(k.live_process_count(), 0u);
}

TEST(Kernel, FifoDeterminism) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    k.spawn("p" + std::to_string(i), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, AdvanceOrdersByTime) {
  Kernel k;
  std::vector<int> order;
  k.spawn("late", [&] {
    k.advance(100);
    order.push_back(2);
  });
  k.spawn("early", [&] {
    k.advance(10);
    order.push_back(1);
  });
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(k.now(), 100u);
}

TEST(Kernel, SameTimeWakeupsAreFifo) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    k.spawn("p" + std::to_string(i), [&k, &order, i] {
      k.advance(50);
      order.push_back(i);
    });
  }
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Kernel, WaitNotify) {
  Kernel k;
  Event ev("go");
  std::vector<std::string> order;
  k.spawn("waiter", [&] {
    order.push_back("wait");
    k.wait(ev);
    order.push_back("woken");
  });
  k.spawn("notifier", [&] {
    order.push_back("notify");
    k.notify(ev);
  });
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(order, (std::vector<std::string>{"wait", "notify", "woken"}));
  EXPECT_EQ(ev.notify_count(), 1u);
}

TEST(Kernel, NotifyWakesAllWaitersInOrder) {
  Kernel k;
  Event ev("go");
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    k.spawn("w" + std::to_string(i), [&, i] {
      k.wait(ev);
      order.push_back(i);
    });
  }
  k.spawn("n", [&] { k.notify(ev); });
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Kernel, DeadlockDetected) {
  Kernel k;
  Event never("never");
  k.spawn("stuck", [&] { k.wait(never); });
  EXPECT_EQ(k.run(), RunResult::kDeadlock);
  EXPECT_EQ(k.live_process_count(), 1u);
}

TEST(Kernel, NotifyFromOutsideUntiesDeadlock) {
  Kernel k;
  Event ev("ev");
  bool done = false;
  k.spawn("stuck", [&] {
    k.wait(ev);
    done = true;
  });
  EXPECT_EQ(k.run(), RunResult::kDeadlock);
  k.notify(ev);  // the debugger's deadlock-untie path
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_TRUE(done);
}

TEST(Kernel, DebugBreakSuspendsAndResumes) {
  Kernel k;
  std::vector<int> trail;
  k.spawn("p", [&] {
    trail.push_back(1);
    k.debug_break();
    trail.push_back(2);
    k.debug_break();
    trail.push_back(3);
  });
  EXPECT_EQ(k.run(), RunResult::kStopped);
  EXPECT_EQ(trail, (std::vector<int>{1}));
  EXPECT_EQ(k.run(), RunResult::kStopped);
  EXPECT_EQ(trail, (std::vector<int>{1, 2}));
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(trail, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, BrokenProcessResumesFirst) {
  Kernel k;
  std::vector<std::string> trail;
  k.spawn("a", [&] {
    trail.push_back("a1");
    k.debug_break();
    trail.push_back("a2");
  });
  k.spawn("b", [&] {
    k.advance(0);  // yield once so `a` runs first
    trail.push_back("b");
  });
  EXPECT_EQ(k.run(), RunResult::kStopped);
  EXPECT_EQ(k.run(), RunResult::kFinished);
  // After the break, `a` must resume before `b` finishes its turn again.
  ASSERT_EQ(trail.size(), 3u);
  EXPECT_EQ(trail[0], "a1");
  EXPECT_EQ(trail[1], "a2");
}

TEST(Kernel, TimeLimitIsResumable) {
  Kernel k;
  int steps = 0;
  k.spawn("ticker", [&] {
    for (int i = 0; i < 10; ++i) {
      k.advance(10);
      steps++;
    }
  });
  EXPECT_EQ(k.run(35), RunResult::kTimeLimit);
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(steps, 10);
  EXPECT_EQ(k.now(), 100u);
}

// --- the clock bound and timed waits resumed in place -----------------------
//
// On the fibers backend a timed wait that nothing can precede resumes in
// place (docs/KERNEL.md, "Scheduler hot path"); a one-partition parallel
// kernel never does, so each case runs on both and must read the same.

constexpr ProcessBackend kBackends[] = {ProcessBackend::kFibers, ProcessBackend::kParallel};

TEST(Kernel, RunBelowTheClockLeavesItWhereItIs) {
  for (ProcessBackend b : kBackends) {
    SCOPED_TRACE(to_string(b));
    Kernel k(b, 1);
    std::vector<SimTime> woke;
    k.spawn("ticker", [&] {
      for (int i = 0; i < 3; ++i) {
        k.advance(100);
        woke.push_back(k.now());
      }
    });
    EXPECT_EQ(k.run(150), RunResult::kTimeLimit);
    EXPECT_EQ(k.now(), 150u);
    EXPECT_EQ(k.run(50), RunResult::kTimeLimit);
    EXPECT_EQ(k.now(), 150u);
    EXPECT_EQ(woke, (std::vector<SimTime>{100}));
    EXPECT_EQ(k.run(), RunResult::kFinished);
    EXPECT_EQ(woke, (std::vector<SimTime>{100, 200, 300}));
  }
}

TEST(Kernel, LoneTimedWaitResumesInPlace) {
  std::uint64_t dispatches[2] = {};
  std::uint64_t switches[2] = {};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(to_string(kBackends[i]));
    Kernel k(kBackends[i], 1);
    ProcessId id = k.spawn("ticker", [&k] {
      for (int j = 0; j < 10; ++j) k.advance(7);
    });
    EXPECT_EQ(k.run(), RunResult::kFinished);
    EXPECT_EQ(k.now(), 70u);
    EXPECT_EQ(k.process(id)->activation_count(), 11u);
    dispatches[i] = k.dispatch_count();
    switches[i] = k.context_switch_count();
  }
  EXPECT_EQ(dispatches[0], 11u);
  EXPECT_EQ(dispatches[1], 11u);
  EXPECT_EQ(switches[0], 2u);  // the first dispatch; every wakeup resumed in place
  EXPECT_EQ(switches[1], 22u);
}

TEST(Kernel, WakeupTiedWithAnEarlierWaiterIsNotResumedInPlace) {
  for (ProcessBackend b : kBackends) {
    SCOPED_TRACE(to_string(b));
    Kernel k(b, 1);
    std::vector<std::string> log;
    k.spawn("a", [&] {
      k.advance(10);
      log.push_back("a@" + std::to_string(k.now()));
    });
    k.spawn("b", [&] {
      k.advance(5);  // alone before a's wakeup
      log.push_back("b@" + std::to_string(k.now()));
      k.advance(5);  // ties with a's wakeup, which was queued first
      log.push_back("b@" + std::to_string(k.now()));
    });
    EXPECT_EQ(k.run(), RunResult::kFinished);
    EXPECT_EQ(log, (std::vector<std::string>{"b@5", "a@10", "b@10"}));
    EXPECT_EQ(k.dispatch_count(), 5u);
    // Fibers resume only b's first wakeup in place.
    EXPECT_EQ(k.context_switch_count(), b == ProcessBackend::kFibers ? 8u : 10u);
  }
}

TEST(Kernel, AdvancePastTheBoundWaitsForTheNextRun) {
  for (ProcessBackend b : kBackends) {
    SCOPED_TRACE(to_string(b));
    Kernel k(b, 1);
    std::vector<SimTime> woke;
    k.spawn("p", [&] {
      k.advance(10);   // within the bound
      woke.push_back(k.now());
      k.advance(100);  // crosses it
      woke.push_back(k.now());
    });
    EXPECT_EQ(k.run(50), RunResult::kTimeLimit);
    EXPECT_EQ(k.now(), 50u);
    EXPECT_EQ(woke, (std::vector<SimTime>{10}));
    EXPECT_EQ(k.run(), RunResult::kFinished);
    EXPECT_EQ(woke, (std::vector<SimTime>{10, 110}));
    EXPECT_EQ(k.now(), 110u);
    EXPECT_EQ(k.dispatch_count(), 3u);
  }
}

TEST(Kernel, SpawnFromProcess) {
  Kernel k;
  std::vector<int> order;
  k.spawn("parent", [&] {
    order.push_back(1);
    k.spawn("child", [&] { order.push_back(2); });
  });
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, ProcessLookup) {
  Kernel k;
  ProcessId id = k.spawn("named", [] {});
  EXPECT_NE(k.process(id), nullptr);
  EXPECT_EQ(k.process(id)->name(), "named");
  EXPECT_EQ(k.process_by_name("named"), k.process(id));
  EXPECT_EQ(k.process_by_name("ghost"), nullptr);
}

TEST(Kernel, ProcessLookupFirstSpawnWinsOnDuplicateName) {
  Kernel k;
  ProcessId first = k.spawn("dup", [] {});
  k.spawn("dup", [] {});
  EXPECT_EQ(k.process_by_name("dup"), k.process(first));
  // string_view lookups hit the same index.
  std::string_view sv("dup");
  EXPECT_EQ(k.process_by_name(sv), k.process(first));
}

TEST(Kernel, LiveCountMaintainedAcrossLifecycle) {
  Kernel k;
  Event ev("ev");
  EXPECT_EQ(k.live_process_count(), 0u);
  k.spawn("a", [&] { k.wait(ev); });
  k.spawn("b", [] {});
  EXPECT_EQ(k.live_process_count(), 2u);
  EXPECT_EQ(k.run(), RunResult::kDeadlock);
  EXPECT_EQ(k.live_process_count(), 1u);  // b terminated, a still blocked
  k.notify(ev);
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(k.live_process_count(), 0u);
}

TEST(Kernel, ConsumedTimeTracked) {
  Kernel k;
  ProcessId id = k.spawn("t", [&] {
    k.advance(30);
    k.advance(12);
  });
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(k.process(id)->consumed_time(), 42u);
}

TEST(Kernel, TeardownWithBlockedProcesses) {
  // Destroying a kernel with parked processes must not hang or crash.
  auto k = std::make_unique<Kernel>();
  Event ev("ev");
  k->spawn("stuck1", [&] { k->wait(ev); });
  k->spawn("stuck2", [&] { k->wait(ev); });
  EXPECT_EQ(k->run(), RunResult::kDeadlock);
  k.reset();  // must join cleanly
}

TEST(Kernel, TeardownWithNeverRunProcess) {
  auto k = std::make_unique<Kernel>();
  k->spawn("never-ran", [] {});
  k.reset();
}

TEST(Kernel, LifoPolicyReversesDispatchOfFreshSpawns) {
  Kernel k;
  k.set_ready_policy(ReadyPolicy::kLifo);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i)
    k.spawn("p" + std::to_string(i), [&order, i] { order.push_back(i); });
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Kernel, LifoStillDeterministic) {
  auto run_once = [] {
    Kernel k;
    k.set_ready_policy(ReadyPolicy::kLifo);
    Event ev("e");
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
      k.spawn("w" + std::to_string(i), [&, i] {
        k.wait(ev);
        order.push_back(i);
      });
    }
    k.spawn("n", [&] { k.notify(ev); });
    k.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Kernel, DebugBreakResumesFirstUnderLifo) {
  // debug_break must pin the broken process to the queue front regardless
  // of policy — resuming elsewhere would corrupt the stop semantics.
  Kernel k;
  k.set_ready_policy(ReadyPolicy::kLifo);
  std::vector<std::string> trail;
  k.spawn("a", [&] {
    trail.push_back("a1");
    k.debug_break();
    trail.push_back("a2");
  });
  k.spawn("b", [&] { trail.push_back("b"); });
  EXPECT_EQ(k.run(), RunResult::kStopped);
  EXPECT_EQ(k.run(), RunResult::kFinished);
  ASSERT_GE(trail.size(), 2u);
  // a2 directly follows a1: the broken process resumed first.
  auto it = std::find(trail.begin(), trail.end(), "a1");
  ASSERT_NE(it, trail.end());
  EXPECT_EQ(*(it + 1), "a2");
}

// --- instrumentation port ---------------------------------------------------

TEST(Instrument, DisabledByDefault) {
  Kernel k;
  auto& port = k.instrument();
  SymbolId s = port.intern("fn");
  EXPECT_FALSE(port.armed(s));
  port.add_enter_hook(s, [](Frame&) {});
  EXPECT_FALSE(port.armed(s));  // master switch still off
  port.set_enabled(true);
  EXPECT_TRUE(port.armed(s));
}

TEST(Instrument, InternIsIdempotent) {
  Kernel k;
  auto& port = k.instrument();
  SymbolId a = port.intern("x");
  SymbolId b = port.intern("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(port.symbol_name(a), "x");
  EXPECT_EQ(port.lookup("x"), a);
  EXPECT_FALSE(port.lookup("y").valid());
}

TEST(Instrument, EnterAndExitHooksFire) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  std::vector<std::string> log;
  port.add_enter_hook(s, [&](Frame& f) {
    log.push_back("enter " + std::string(f.symbol_name()));
    EXPECT_EQ(f.arg("x")->i64, 5);
    EXPECT_EQ(f.ret(), nullptr);
  });
  port.add_exit_hook(s, [&](Frame& f) {
    log.push_back("exit");
    ASSERT_NE(f.ret(), nullptr);
    EXPECT_EQ(f.ret()->u64, 99u);
  });
  {
    const ArgValue args[] = {ArgValue::of_i64("x", 5)};
    InstrScope scope(k, s, args);
    scope.set_return(ArgValue::of_u64("r", 99));
  }
  EXPECT_EQ(log, (std::vector<std::string>{"enter fn", "exit"}));
  EXPECT_EQ(port.symbol_hits(s), 2u);
}

TEST(Instrument, RemoveAndDisableHooks) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  int calls = 0;
  HookId h = port.add_enter_hook(s, [&](Frame&) { calls++; });
  port.fire_enter(k, s, {});
  EXPECT_EQ(calls, 1);
  port.set_hook_enabled(h, false);
  port.fire_enter(k, s, {});
  EXPECT_EQ(calls, 1);
  port.set_hook_enabled(h, true);
  port.remove_hook(h);
  EXPECT_FALSE(port.armed(s));
  port.fire_enter(k, s, {});
  EXPECT_EQ(calls, 1);
}

TEST(Instrument, InstanceSymbolsFireIndependently) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId generic = port.intern("push");
  SymbolId inst = port.intern("push@linkA");
  int generic_calls = 0, inst_calls = 0;
  port.add_enter_hook(generic, [&](Frame&) { generic_calls++; });
  port.add_enter_hook(inst, [&](Frame&) { inst_calls++; });
  port.fire_enter(k, generic, {}, inst);
  EXPECT_EQ(generic_calls, 1);
  EXPECT_EQ(inst_calls, 1);
  port.fire_enter(k, generic, {});
  EXPECT_EQ(generic_calls, 2);
  EXPECT_EQ(inst_calls, 1);
}

TEST(Instrument, HookCanDebugBreak) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  port.add_enter_hook(s, [&k](Frame&) { k.debug_break(); });
  int after = 0;
  k.spawn("p", [&] {
    const ArgValue args[] = {ArgValue::of_i64("x", 1)};
    InstrScope scope(k, s, args);
    after = 1;
  });
  EXPECT_EQ(k.run(), RunResult::kStopped);
  EXPECT_EQ(after, 0);  // frozen mid-call
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(after, 1);
}

TEST(Instrument, ParkedHookOutlivesRemovalAndRegistration) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  SymbolId other = port.intern("other");
  // Sets a flag when the hook's closure, which owns the only copy, dies.
  struct Sentinel {
    explicit Sentinel(bool* destroyed) : destroyed_(destroyed) {}
    ~Sentinel() { *destroyed_ = true; }
    bool* destroyed_;
  };
  bool destroyed = false;
  int resumed_with = 0;
  auto sentinel = std::make_shared<Sentinel>(&destroyed);
  HookId h = port.add_enter_hook(s, [&k, &resumed_with, sentinel, tag = 42](Frame&) {
    k.debug_break();
    resumed_with = tag;  // reads the closure's own state after the park
  });
  sentinel.reset();
  k.spawn("p", [&] {
    const ArgValue args[] = {ArgValue::of_i64("x", 1)};
    InstrScope scope(k, s, args);
  });
  ASSERT_EQ(k.run(), RunResult::kStopped);
  // While stopped: unregister the hook, and register enough hooks to move
  // the hook table.
  port.remove_hook(h);
  for (int i = 0; i < 64; ++i) port.add_enter_hook(other, [](Frame&) {});
  // Sequential backends park inside the hook, so its closure must still be
  // alive. The parallel backend defers the break until the hook returned.
  if (!k.parallel()) {
    EXPECT_FALSE(destroyed);
  }
  EXPECT_EQ(k.run(), RunResult::kFinished);
  EXPECT_EQ(resumed_with, 42);
  EXPECT_TRUE(destroyed);  // released when its invocation returned
}

TEST(Instrument, HookAddedDuringFireDoesNotBreakIteration) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  int calls = 0;
  port.add_enter_hook(s, [&](Frame& f) {
    calls++;
    if (calls == 1) f.kernel().instrument().add_enter_hook(s, [&](Frame&) { calls += 100; });
  });
  port.fire_enter(k, s, {});
  EXPECT_EQ(calls, 1);  // snapshot semantics: new hook not fired this round
  port.fire_enter(k, s, {});
  EXPECT_EQ(calls, 102);
}

// fire_list walks the live hook list instead of a copy; these pin down what
// a hook may do to that list while it runs.

TEST(Instrument, HookRemovedMidFireDoesNotRun) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  std::vector<std::string> log;
  HookId a = port.add_enter_hook(s, [&](Frame&) { log.push_back("a"); });
  HookId c;
  port.add_enter_hook(s, [&](Frame&) {
    log.push_back("b");
    port.remove_hook(a);  // already ran: the walk must not skip or repeat
    port.remove_hook(c);  // not yet run: must not run
  });
  c = port.add_enter_hook(s, [&](Frame&) { log.push_back("c"); });
  port.add_enter_hook(s, [&](Frame&) { log.push_back("d"); });
  port.fire_enter(k, s, {});
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "d"}));
  log.clear();
  port.fire_enter(k, s, {});
  EXPECT_EQ(log, (std::vector<std::string>{"b", "d"}));
}

TEST(Instrument, HookInterningSymbolsMidFireKeepsTheWalk) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  std::vector<std::string> log;
  port.add_enter_hook(s, [&](Frame&) {
    log.push_back("first");
    // Grows the symbol table, moving every symbol's hook list.
    for (int i = 0; i < 64; ++i) port.intern("grown" + std::to_string(i));
  });
  port.add_enter_hook(s, [&](Frame&) { log.push_back("second"); });
  port.add_enter_hook(s, [&](Frame&) { log.push_back("third"); });
  port.fire_enter(k, s, {});
  EXPECT_EQ(log, (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_EQ(port.hook_invocations(), 3u);
}

TEST(Instrument, HookReplacingItselfMidFireRunsReplacementNextFire) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  std::vector<std::string> log;
  HookId self;
  self = port.add_enter_hook(s, [&](Frame&) {
    log.push_back("original");
    port.remove_hook(self);
    port.add_enter_hook(s, [&](Frame&) { log.push_back("replacement"); });
  });
  port.add_enter_hook(s, [&](Frame&) { log.push_back("other"); });
  port.fire_enter(k, s, {});
  EXPECT_EQ(log, (std::vector<std::string>{"original", "other"}));
  log.clear();
  port.fire_enter(k, s, {});
  EXPECT_EQ(log, (std::vector<std::string>{"other", "replacement"}));
}

TEST(Instrument, RemovingAnIdleHookFreesItsCallable) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn");
  auto owned = std::make_shared<int>(7);
  std::weak_ptr<int> watch = owned;
  HookId h = port.add_enter_hook(s, [owned](Frame&) {});
  owned.reset();
  port.fire_enter(k, s, {});
  EXPECT_FALSE(watch.expired());  // the port owns the only copy
  port.remove_hook(h);
  EXPECT_TRUE(watch.expired());  // not running: freed at once
}

TEST(Instrument, ArgumentsResolvedByDeclaredLayout) {
  Kernel k;
  auto& port = k.instrument();
  port.set_enabled(true);
  SymbolId s = port.intern("fn", {"x", "y"});
  EXPECT_EQ(port.intern("fn"), s);  // re-interning keeps the layout
  ASSERT_EQ(port.params(s), (std::vector<std::string>{"x", "y"}));
  const ArgPos y = port.param(s, "y");
  EXPECT_EQ(y.index, 1u);
  std::int64_t seen = 0;
  port.add_enter_hook(s, [&, y](Frame& f) { seen = f.arg(y).i64; });
  const ArgValue args[] = {ArgValue::of_i64("x", 1), ArgValue::of_i64("y", 2)};
  port.fire_enter(k, s, args);
  EXPECT_EQ(seen, 2);
  EXPECT_TRUE(port.params(port.intern("bare")).empty());
  // An instance symbol reports its base's arguments.
  EXPECT_EQ(port.params(port.intern_instance("fn@a", s)), port.params(s));
}

}  // namespace
}  // namespace dfdbg::sim
