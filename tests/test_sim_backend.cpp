// Backend equivalence: the fibers backend and a single-partition parallel
// kernel must be observationally identical — same dispatch/activation
// sequences, same teardown-by-unwind behaviour, byte-identical trace output —
// so that every golden file and replay recording is valid under either. Plus
// backend selection, the fiber backend's guard-page stack-overflow detection
// and the fiber switch itself: what it must preserve per context, the ABI
// alignment of a fresh fiber's first frame, unwinding on fiber stacks and
// resumption on another thread.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dfdbg/common/prng.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/sim/kernel.hpp"
#include "dfdbg/trace/trace.hpp"

namespace dfdbg::sim {
namespace {

/// One side of the determinism contract: a backend and its partition count.
struct Subject {
  ProcessBackend backend;
  int workers;
};
constexpr Subject kFibers{ProcessBackend::kFibers, 1};
constexpr Subject kParallelOne{ProcessBackend::kParallel, 1};
constexpr Subject kBoth[] = {kFibers, kParallelOne};

/// One run of the mixed workload: its full observational transcript, its
/// dispatches, and the fiber switches it made (the one count the backends
/// may disagree on).
struct MixedRun {
  std::vector<std::string> log;
  std::uint64_t dispatches = 0;
  std::uint64_t switches = 0;
};

/// A seeded workload exercising every scheduling primitive: yields, timed
/// waits, event wait/notify, spawn-from-process and debug_break.
MixedRun run_mixed_workload(Subject subject, std::uint64_t seed,
                            ReadyPolicy policy = ReadyPolicy::kFifo) {
  Kernel k(subject.backend, subject.workers);
  k.set_ready_policy(policy);
  MixedRun run;
  std::vector<std::string>& log = run.log;
  Event ping("ping");
  Event pong("pong");
  for (int i = 0; i < 6; ++i) {
    k.spawn("w" + std::to_string(i), [&k, &log, &ping, &pong, i, seed] {
      Prng rng(seed + static_cast<std::uint64_t>(i));
      for (int step = 0; step < 20; ++step) {
        log.push_back("w" + std::to_string(i) + ":" + std::to_string(step));
        switch (rng.next_below(5)) {
          case 0: k.advance(0); break;
          case 1: k.advance(1 + rng.next_below(7)); break;
          case 2:
            k.notify(i % 2 == 0 ? ping : pong);
            k.advance(0);
            break;
          case 3:
            if (i % 2 == 0) k.wait(pong);
            else k.wait(ping);
            break;
          case 4:
            if (step == 7) k.debug_break();
            else k.advance(2);
            break;
        }
      }
      if (i == 2) {
        k.spawn("late", [&k, &log] {
          log.push_back("late:run");
          k.advance(3);
          log.push_back("late:done");
        });
      }
      log.push_back("w" + std::to_string(i) + ":end");
    });
  }
  for (int round = 0;; ++round) {
    RunResult r = k.run();
    log.push_back("run:" + std::string(to_string(r)) + "@" + std::to_string(k.now()));
    if (r != RunResult::kStopped) {
      // Untie any event deadlock once, then give up (deterministically).
      if (r == RunResult::kDeadlock && round < 50) {
        k.notify(ping);
        k.notify(pong);
        continue;
      }
      break;
    }
  }
  log.push_back("dispatches:" + std::to_string(k.dispatch_count()));
  log.push_back("live:" + std::to_string(k.live_process_count()));
  for (const auto& p : k.processes())
    log.push_back(p->name() + ":acts=" + std::to_string(p->activation_count()) +
                  ",state=" + to_string(p->state()));
  run.dispatches = k.dispatch_count();
  run.switches = k.context_switch_count();
  return run;
}

/// Fibers resume a lone timed wait in place (no switches); the parallel
/// backend never does. Checks both sides of that on one pair of runs.
void expect_in_place_resumes(const MixedRun& fibers, const MixedRun& parallel) {
  EXPECT_LT(fibers.switches, 2 * fibers.dispatches) << "no wait was resumed in place";
  EXPECT_EQ(parallel.switches, 2 * parallel.dispatches);
}

TEST(BackendEquivalence, MixedWorkloadTranscriptsIdentical) {
  for (ReadyPolicy policy : {ReadyPolicy::kFifo, ReadyPolicy::kLifo}) {
    for (std::uint64_t seed : {1u, 42u, 1337u}) {
      SCOPED_TRACE(policy == ReadyPolicy::kFifo ? "fifo" : "lifo");
      auto fibers = run_mixed_workload(kFibers, seed, policy);
      auto parallel = run_mixed_workload(kParallelOne, seed, policy);
      EXPECT_EQ(fibers.log, parallel.log) << "seed " << seed;
      expect_in_place_resumes(fibers, parallel);
    }
  }
}

/// A wait resumed in place is still a dispatch to everything that observes
/// one: with obs on, the registry and the journal see on fibers what they
/// see on a one-partition parallel kernel, except sim.context_switch, which
/// counts the switches actually made. With obs off the schedule is the same.
TEST(BackendEquivalence, InPlaceResumesObservedLikeDispatches) {
  struct Observed {
    MixedRun run;
    std::uint64_t dispatch = 0, context_switch = 0, timed_wakeup = 0, ready_depth = 0;
    std::string journal;
  };
  obs::Registry& reg = obs::Registry::global();
  obs::Journal& journal = obs::Journal::global();
  auto observe = [&](Subject subject, std::uint64_t seed) {
    reg.reset();
    journal.clear();
    Observed o;
    o.run = run_mixed_workload(subject, seed);
    o.dispatch = reg.counter("sim.dispatch").value();
    o.context_switch = reg.counter("sim.context_switch").value();
    o.timed_wakeup = reg.counter("sim.timed_wakeup").value();
    o.ready_depth = reg.histogram("sim.ready_depth").count();
    o.journal = journal.format_last(journal.size());
    return o;
  };
  const bool saved = obs::enabled();
  for (std::uint64_t seed : {1u, 42u}) {
    SCOPED_TRACE(seed);
    obs::set_enabled(false);
    const MixedRun off = run_mixed_workload(kFibers, seed);
    obs::set_enabled(true);
    const Observed fibers = observe(kFibers, seed);
    const Observed parallel = observe(kParallelOne, seed);
    obs::set_enabled(false);
    EXPECT_EQ(off.log, fibers.run.log);
    EXPECT_EQ(off.switches, fibers.run.switches);
    EXPECT_EQ(fibers.run.log, parallel.run.log);
    expect_in_place_resumes(fibers.run, parallel.run);
    for (const Observed* o : {&fibers, &parallel}) {
      EXPECT_EQ(o->dispatch, o->run.dispatches);
      EXPECT_EQ(o->context_switch, o->run.switches);
      EXPECT_EQ(o->ready_depth, o->run.dispatches);
    }
    EXPECT_EQ(fibers.timed_wakeup, parallel.timed_wakeup);
    EXPECT_GT(fibers.timed_wakeup, 0u);
    EXPECT_FALSE(fibers.journal.empty());
    EXPECT_EQ(fibers.journal, parallel.journal);
  }
  obs::set_enabled(saved);
  journal.clear();
}

TEST(BackendEquivalence, LifoPolicyIdentical) {
  auto run_once = [](Subject subject) {
    Kernel k(subject.backend, subject.workers);
    k.set_ready_policy(ReadyPolicy::kLifo);
    Event ev("e");
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
      k.spawn("w" + std::to_string(i), [&, i] {
        k.wait(ev);
        order.push_back(i);
      });
    }
    k.spawn("n", [&] { k.notify(ev); });
    k.run();
    return order;
  };
  // The notifier runs first: its notify finds no waiters and is lost on
  // both, so no waiter ever wakes.
  const auto fibers = run_once(kFibers);
  EXPECT_TRUE(fibers.empty());
  EXPECT_EQ(fibers, run_once(kParallelOne));
}

/// Teardown-by-unwind: killing suspended processes must run their RAII
/// destructors, in spawn order, on both sides.
TEST(BackendEquivalence, TeardownUnwindRunsDestructorsInOrder) {
  for (Subject subject : kBoth) {
    std::vector<std::string> unwound;
    struct Sentinel {
      std::vector<std::string>* log;
      std::string name;
      ~Sentinel() { log->push_back(name); }
    };
    {
      Kernel k(subject.backend, subject.workers);
      Event never("never");
      for (int i = 0; i < 3; ++i) {
        k.spawn("s" + std::to_string(i), [&k, &never, &unwound, i] {
          Sentinel s{&unwound, "s" + std::to_string(i)};
          k.wait(never);
        });
      }
      EXPECT_EQ(k.run(), RunResult::kDeadlock);
      EXPECT_EQ(k.live_process_count(), 3u);
    }
    EXPECT_EQ(unwound, (std::vector<std::string>{"s0", "s1", "s2"}))
        << to_string(subject.backend);
  }
}

/// The full stack: H.264 decode under the offline trace collector must give
/// a byte-identical CSV trace and a bit-exact decode on both sides. H264App
/// builds its own kernel, so the default backend and the
/// DFDBG_PARALLEL_WORKERS environment variable steer it.
TEST(BackendEquivalence, H264TraceByteIdentical) {
  auto run_traced = [](Subject subject, std::string* csv, std::uint64_t* dispatches,
                       std::uint64_t* switches) {
    set_default_process_backend(subject.backend);
    h264::H264AppConfig cfg;
    cfg.params.width = 32;
    cfg.params.height = 32;
    cfg.params.frame_count = 1;
    auto app = h264::H264App::build(cfg);
    ASSERT_TRUE(app.ok());
    ASSERT_EQ((*app)->kernel().backend(), subject.backend);
    ASSERT_EQ((*app)->kernel().partition_count(), subject.workers);
    trace::TraceCollector tc((*app)->app(), 1 << 16);
    tc.attach();
    (*app)->start();
    EXPECT_EQ((*app)->kernel().run(), sim::RunResult::kFinished);
    EXPECT_TRUE((*app)->decoded_matches_golden());
    *csv = tc.to_csv();
    *dispatches = (*app)->kernel().dispatch_count();
    *switches = (*app)->kernel().context_switch_count();
  };
  const auto saved = default_process_backend();
  const char* saved_workers = std::getenv("DFDBG_PARALLEL_WORKERS");
  const std::string saved_workers_value = saved_workers != nullptr ? saved_workers : "";
  ::setenv("DFDBG_PARALLEL_WORKERS", "1", 1);
  std::string csv_fibers, csv_parallel;
  std::uint64_t disp_fibers = 0, disp_parallel = 0;
  std::uint64_t sw_fibers = 0, sw_parallel = 0;
  run_traced(kFibers, &csv_fibers, &disp_fibers, &sw_fibers);
  run_traced(kParallelOne, &csv_parallel, &disp_parallel, &sw_parallel);
  set_default_process_backend(saved);
  if (saved_workers != nullptr)
    ::setenv("DFDBG_PARALLEL_WORKERS", saved_workers_value.c_str(), 1);
  else
    ::unsetenv("DFDBG_PARALLEL_WORKERS");
  EXPECT_GT(disp_fibers, 0u);
  EXPECT_EQ(disp_fibers, disp_parallel);
  // The decode's timed waits were resumed in place on fibers, so the
  // equality above covers that path.
  EXPECT_LT(sw_fibers, 2 * disp_fibers);
  EXPECT_EQ(sw_parallel, 2 * disp_parallel);
  EXPECT_FALSE(csv_fibers.empty());
  EXPECT_EQ(csv_fibers, csv_parallel);
}

// --- backend selection -------------------------------------------------------

TEST(BackendSelection, ExplicitConstructorArgWins) {
  Kernel parallel(ProcessBackend::kParallel);
  Kernel fibers(ProcessBackend::kFibers);
  EXPECT_EQ(parallel.backend(), ProcessBackend::kParallel);
  EXPECT_EQ(fibers.backend(), ProcessBackend::kFibers);
}

TEST(BackendSelection, EnvVarSteersDefault) {
  const auto saved = default_process_backend();
  // An explicit override beats the environment...
  set_default_process_backend(ProcessBackend::kParallel);
  ::setenv("DFDBG_PROCESS_BACKEND", "fibers", 1);
  EXPECT_EQ(default_process_backend(), ProcessBackend::kParallel);
  // ...and the override is what kernels pick up by default.
  EXPECT_EQ(Kernel{}.backend(), ProcessBackend::kParallel);
  set_default_process_backend(saved);
  ::unsetenv("DFDBG_PROCESS_BACKEND");
}

/// `threads` is not a backend: naming it is an error that lists the
/// accepted values. (The death test's child re-runs only this test, so no
/// earlier override hides the environment.)
TEST(BackendSelection, ThreadsValueRejectedDeathTest) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ::setenv("DFDBG_PROCESS_BACKEND", "threads", 1);
        (void)default_process_backend();
      },
      "DFDBG_PROCESS_BACKEND='threads' \\(expected 'fibers' or 'parallel'\\)");
}

// --- fiber stacks ------------------------------------------------------------

TEST(FiberStacks, DefaultStackSizeIsSane) {
  EXPECT_GE(FiberContext::default_stack_bytes(), 64u * 1024);
}

volatile int g_sink = 0;

// Non-tail recursion with a per-frame footprint the optimizer cannot elide.
int deep_recursion(int depth) {  // NOLINT(misc-no-recursion)
  volatile char pad[512];
  pad[0] = static_cast<char>(depth);
  g_sink += pad[0];
  return deep_recursion(depth + 1) + pad[0];
}

/// Blowing a fiber's stack must hit the PROT_NONE guard page and die with a
/// signal — never silently corrupt a neighbouring mapping.
TEST(FiberStacks, GuardPageCatchesOverflowDeathTest) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Kernel k(ProcessBackend::kFibers);
        k.spawn("runaway", [] { g_sink = deep_recursion(0); });
        k.run();
      },
      "");
}

// --- fiber switch ------------------------------------------------------------

/// One fiber against a scheduler anchor, without a kernel: resume() runs the
/// body until it yields or finishes. The entry never returns, so a finished
/// body parks in a yield loop; its stack then holds no live objects.
struct FiberRig {
  FiberContext anchor;
  std::unique_ptr<FiberContext> fiber;
  std::function<void(FiberRig&)> body;
  bool done = false;

  explicit FiberRig(std::function<void(FiberRig&)> b) : body(std::move(b)) {
    fiber = std::make_unique<FiberContext>(64 * 1024, &FiberRig::entry, this);
  }
  static void entry(void* self) {
    auto* rig = static_cast<FiberRig*>(self);
    rig->body(*rig);
    rig->done = true;
    for (;;) rig->yield();
  }
  void yield() { FiberContext::switch_to(*fiber, anchor); }
  void resume() { FiberContext::switch_to(anchor, *fiber); }
};

/// 1/3 in the current SSE rounding mode (volatile operands: evaluated here,
/// at run time, not folded at compile time).
double sse_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

/// The rounding mode lives in the x87 control word and MXCSR, which the ABI
/// makes callee-saved: each context keeps its own across switches.
TEST(FiberSwitch, FloatingPointControlStateIsPerContext) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = sse_third();
  double fiber_upward = 0.0;
  int fiber_mode_after_resume = -1;
  double fiber_third_after_resume = 0.0;
  FiberRig rig([&](FiberRig& r) {
    std::fesetround(FE_UPWARD);
    fiber_upward = sse_third();
    r.yield();
    fiber_mode_after_resume = std::fegetround();
    fiber_third_after_resume = sse_third();
    std::fesetround(FE_TONEAREST);
  });
  rig.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // x87 control word
  EXPECT_EQ(sse_third(), nearest);             // MXCSR
  EXPECT_NE(fiber_upward, nearest);
  rig.resume();
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(fiber_mode_after_resume, FE_UPWARD);
  EXPECT_EQ(fiber_third_after_resume, fiber_upward);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

/// Six live 64-bit values per side force the compiler to keep state in every
/// callee-saved register across each switch; a register the switch forgot
/// would leak one side's values into the other's.
std::uint64_t mix_steps(std::uint64_t seed, int steps, const std::function<void()>& between) {
  std::uint64_t a = seed, b = seed * 3, c = seed * 5, d = seed * 7, e = seed * 11, f = seed * 13;
  for (int i = 0; i < steps; ++i) {
    a += b;
    b ^= c << 1;
    c += d * 3;
    d ^= e >> 2;
    e += f;
    f += a * 7;
    between();
  }
  return a ^ b ^ c ^ d ^ e ^ f;
}

TEST(FiberSwitch, CalleeSavedStateSurvivesSwitchesOnBothSides) {
  const std::uint64_t want_fiber = mix_steps(2, 1000, [] {});
  const std::uint64_t want_sched = mix_steps(1, 1000, [] {});
  std::uint64_t got_fiber = 0;
  FiberRig rig([&](FiberRig& r) { got_fiber = mix_steps(2, 1000, [&r] { r.yield(); }); });
  const std::uint64_t got_sched = mix_steps(1, 1000, [&rig] { rig.resume(); });
  rig.resume();
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(got_fiber, want_fiber);
  EXPECT_EQ(got_sched, want_sched);
}

/// Address of an over-aligned local. Kept out of line: a frame holding one
/// is realigned by the compiler, which would hide a misaligned caller.
__attribute__((noinline)) std::uintptr_t overaligned_local_address() {
  alignas(32) volatile unsigned char v32[32] = {};
  return reinterpret_cast<std::uintptr_t>(&v32[0]);
}

/// A fresh fiber's first frame must follow the ABI (rsp 16-byte aligned at
/// each call); every deeper frame inherits that alignment. An alignas(16)
/// local sits at a fixed offset from the incoming stack pointer, so it shows
/// a misaligned entry directly; a varargs double goes through aligned vector
/// spills (movaps), which fault on a misaligned stack.
TEST(FiberSwitch, FirstFrameIsAbiAligned) {
  std::uintptr_t addr16 = 1;
  std::uintptr_t addr32 = 1;
  std::string formatted;
  FiberRig rig([&](FiberRig&) {
    alignas(16) volatile unsigned char v16[16] = {};
    addr16 = reinterpret_cast<std::uintptr_t>(&v16[0]);
    volatile double x = 2.0 / 3.0;
    formatted = strformat("%.3f", x);
    addr32 = overaligned_local_address();
  });
  rig.resume();
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(addr16 % 16, 0u);
  EXPECT_EQ(addr32 % 32, 0u);
  EXPECT_EQ(formatted, "0.667");
}

struct DtorCounter {
  int* count;
  ~DtorCounter() { ++*count; }
};

void yield_then_throw(FiberRig& r, int depth, int* dtors) {  // NOLINT(misc-no-recursion)
  DtorCounter guard{dtors};
  r.yield();
  if (depth == 0) throw std::runtime_error("thrown after switching");
  yield_then_throw(r, depth - 1, dtors);
}

/// Frames that were parked and resumed several times unwind normally: the
/// handler in the same fiber catches, and every frame's destructor runs.
TEST(FiberSwitch, ExceptionAfterSeveralSwitchesIsCaughtInTheFiber) {
  std::string caught;
  int dtors = 0;
  FiberRig rig([&](FiberRig& r) {
    try {
      yield_then_throw(r, 4, &dtors);
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
  });
  int resumes = 0;
  while (!rig.done) {
    rig.resume();
    ++resumes;
  }
  EXPECT_EQ(resumes, 6);  // five yields, then the run that throws and finishes
  EXPECT_EQ(caught, "thrown after switching");
  EXPECT_EQ(dtors, 5);
}

/// The calling thread's id, read afresh on every call. pthread_self() is
/// declared const, so two inline reads in one function may be merged across
/// a switch that moved the fiber to another thread.
__attribute__((noipa)) std::thread::id current_thread_id() { return std::this_thread::get_id(); }

/// A parked fiber can be resumed from a different OS thread than the one it
/// started on (parallel workers, ~Kernel teardown).
TEST(FiberSwitch, FiberStartedOnOneThreadFinishesOnAnother) {
  std::thread::id seen_first;
  std::thread::id seen_second;
  FiberRig rig([&](FiberRig& r) {
    seen_first = current_thread_id();
    r.yield();
    seen_second = current_thread_id();
  });
  std::thread::id starter;
  std::thread t([&] {
    starter = std::this_thread::get_id();
    rig.resume();
  });
  t.join();
  ASSERT_FALSE(rig.done);
  rig.resume();
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(seen_first, starter);
  EXPECT_EQ(seen_second, std::this_thread::get_id());
  EXPECT_NE(seen_first, seen_second);
}

}  // namespace
}  // namespace dfdbg::sim
