#include "dfdbg/sim/kernel.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"

namespace dfdbg::sim {

namespace {
/// Thrown inside parked processes at kernel teardown to unwind their stacks
/// cleanly through RAII frames.
struct ProcessKilled {};

/// Monotonic wall clock for shard time attribution. Never feeds back into
/// scheduling decisions, so measurement cannot perturb determinism.
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Parallel backend: identifies the worker thread (and hence partition) the
/// calling code runs on, plus the deferred-break bookkeeping for hooks that
/// request a stop while the instrumentation dispatch mutex is held.
struct WorkerTls {
  Kernel* kernel = nullptr;
  int shard = -1;
  int hook_depth = 0;
  bool pending_break = false;
};
thread_local WorkerTls t_worker;

}  // namespace

/// Scheduler instruments, interned once (stable addresses by construction).
/// sim.dispatch and sim.context_switch are fed by each scheduler's tallies.
struct Kernel::SchedMetrics {
  obs::Counter& dispatches;
  obs::Counter& context_switches;
  obs::Counter& spawns;
  obs::Counter& timed_wakeups;
  obs::Counter& breaks;
  obs::Counter& rounds;
  obs::Counter& elided;            ///< sim.barrier.elided_rounds
  obs::Histogram& ready_depth;
  obs::Histogram& round_wall_ns;   ///< sim.barrier.round_wall_ns
  obs::Histogram& round_drain_ns;  ///< sim.barrier.drain_ns
  obs::Gauge& boundary_hwm;        ///< sim.barrier.boundary_hwm
  static SchedMetrics make() {
    auto& r = obs::Registry::global();
    return {r.counter("sim.dispatch"),      r.counter("sim.context_switch"),
            r.counter("sim.process_spawn"), r.counter("sim.timed_wakeup"),
            r.counter("sim.debug_break"),   r.counter("sim.barrier.round"),
            r.counter("sim.barrier.elided_rounds"),
            r.histogram("sim.ready_depth"),
            r.histogram("sim.barrier.round_wall_ns"),
            r.histogram("sim.barrier.drain_ns"),
            r.gauge("sim.barrier.boundary_hwm")};
  }
};

const Kernel::SchedMetrics& Kernel::sched(SchedObs& o) {
  if (o.m == nullptr) [[unlikely]] {
    static const SchedMetrics m = SchedMetrics::make();
    o.m = &m;
    o.dispatches.attach(m.dispatches);
    o.switches.attach(m.context_switches);
  }
  return *o.m;
}

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

const char* to_string(ProcessState s) {
  switch (s) {
    case ProcessState::kReady: return "ready";
    case ProcessState::kRunning: return "running";
    case ProcessState::kWaitingEvent: return "waiting-event";
    case ProcessState::kWaitingTime: return "waiting-time";
    case ProcessState::kTerminated: return "terminated";
  }
  return "?";
}

Process::Process(Kernel* kernel, ProcessId id, std::string name, std::function<void()> body)
    : kernel_(kernel),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      fiber_(std::make_unique<FiberContext>(FiberContext::default_stack_bytes(),
                                            &Process::fiber_entry, this)),
      resume_anchor_(&kernel_->sched_ctx_) {}

void Process::fiber_entry(void* self) { static_cast<Process*>(self)->fiber_main(); }

void Process::fiber_main() {
  try {
    body_();
  } catch (const ProcessKilled&) {
    // Teardown: unwound through RAII frames; fall through to the final swap.
  } catch (const std::exception& e) {
    panic(__FILE__, __LINE__,
          strformat("uncaught exception in simulated process '%s': %s", name_.c_str(), e.what()));
  }
  kernel_->mark_terminated(this);
  // Permanent handoff: the scheduler (blocked in dispatch() — per-shard in
  // parallel mode — or in ~Kernel during teardown) resumes and never
  // re-enters this fiber.
  FiberContext::switch_to(*fiber_, *resume_anchor_);
  DFDBG_UNREACHABLE("terminated fiber was resumed");
}

void Process::park() {
  FiberContext::switch_to(*fiber_, *resume_anchor_);
  if (kernel_->shutting_down_) throw ProcessKilled{};
}

// ---------------------------------------------------------------------------
// Kernel — construction, spawning, shared plumbing
// ---------------------------------------------------------------------------

const char* to_string(RunResult r) {
  switch (r) {
    case RunResult::kFinished: return "finished";
    case RunResult::kStopped: return "stopped";
    case RunResult::kDeadlock: return "deadlock";
    case RunResult::kTimeLimit: return "time-limit";
  }
  return "?";
}

Kernel::Kernel(ProcessBackend backend, int workers) : backend_(backend) {
  // Capture the journal visible at construction time (thread override if a
  // hosted session installed one, else the process-wide base): parallel
  // shard journals delegate token-id allocation to it and merge back into
  // it, so a kernel built under a per-session journal stays confined to that
  // session.
  journal_base_ = &obs::Journal::global();
  parallel_ = backend_ == ProcessBackend::kParallel;
  if (!parallel_) return;
  int k = workers > 0 ? workers : default_parallel_workers();
  obs::Journal& base = *journal_base_;
  for (int i = 0; i < k; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    sh->journal = std::make_unique<obs::Journal>(base.capacity());
    // Partition 0 of a single-partition kernel delegates token-id allocation
    // to the process-wide journal (uid base 0): ids — and therefore `whence`
    // output — stay byte-identical to the fibers backend. Multi-
    // partition kernels give each shard a disjoint 48-bit-offset range.
    std::uint64_t uid_base = k == 1 ? 0 : (static_cast<std::uint64_t>(i) + 1) << 48;
    sh->journal->configure_shard(&base, uid_base);
    obs::Registry& reg = obs::Registry::global();
    sh->m_dispatches = &reg.counter(strformat("sim.worker.%d.dispatch", i));
    sh->m_work_ns = &reg.counter(strformat("sim.worker.%d.work_ns", i));
    sh->m_wait_ns = &reg.counter(strformat("sim.worker.%d.barrier_wait_ns", i));
    sh->m_drain_ns = &reg.counter(strformat("sim.worker.%d.drain_ns", i));
    sh->m_idle_ns = &reg.counter(strformat("sim.worker.%d.idle_ns", i));
    sh->m_stalls = &reg.counter(strformat("sim.worker.%d.stalled_rounds", i));
    sh->m_skipped = &reg.counter(strformat("sim.worker.%d.skipped_wakes", i));
    sh->m_eager = &reg.counter(strformat("sim.worker.%d.eager_drained", i));
    sh->h_round_work = &reg.histogram(strformat("sim.worker.%d.round_work_ns", i));
    shards_.push_back(std::move(sh));
  }
  obs::Registry::global().gauge("sim.worker.count").set(k);
}

Kernel::~Kernel() {
  stop_workers();
  shutting_down_ = true;
  instrument_.set_teardown(true);
  for (auto& p : processes_) {
    if (p->state_ == ProcessState::kTerminated) continue;
    if (!p->fiber_started_) {
      // Body never began: nothing on the fiber stack to unwind.
      mark_terminated(p.get());
      continue;
    }
    // Resume the suspended fiber on this (the main) thread, one process at a
    // time; park() throws ProcessKilled, the stack unwinds through its RAII
    // frames, and fiber_main swaps back here.
    p->resume_anchor_ = &sched_ctx_;
    FiberContext::switch_to(sched_ctx_, *p->fiber_);
    DFDBG_DCHECK(p->state_ == ProcessState::kTerminated);
  }
}

ProcessId Kernel::spawn(std::string name, std::function<void()> body) {
  int partition = 0;
  if (parallel_ && t_worker.kernel == this) partition = t_worker.shard;
  return spawn_in(partition, std::move(name), std::move(body));
}

ProcessId Kernel::spawn_in(int partition, std::string name, std::function<void()> body) {
  DFDBG_CHECK_MSG(!shutting_down_, "spawn during teardown");
  if (parallel_) {
    DFDBG_CHECK_MSG(partition >= 0 && partition < partition_count(),
                    "spawn_in: partition out of range");
    // A worker may only spawn into its own partition: another shard's ready
    // queue is in concurrent use during a round.
    DFDBG_CHECK_MSG(t_worker.kernel != this || t_worker.shard == partition,
                    "spawn_in: cross-partition spawn from a worker");
  } else {
    DFDBG_CHECK_MSG(partition == 0, "spawn_in: the fibers backend has one partition");
  }
  // Serialize the process table: workers of distinct shards may spawn
  // concurrently mid-round. (Lookups race only with mid-run spawns, which
  // the pedf runtime never performs.)
  std::unique_lock<std::mutex> lk(spawn_mu_, std::defer_lock);
  if (parallel_) lk.lock();
  auto id = ProcessId(static_cast<std::uint32_t>(processes_.size()));
  // Private constructor: cannot use make_unique.
  processes_.emplace_back(
      std::unique_ptr<Process>(new Process(this, id, std::move(name), std::move(body))));
  Process* p = processes_.back().get();
  p->shard_ = partition;
  p->jname_ = journal_base_->intern_name(p->name());
  name_index_.emplace(p->name(), id);  // keeps the first binding on collision
  live_count_.fetch_add(1, std::memory_order_relaxed);
  make_ready(p);
  // A worker spawns under spawn_mu_, so the coordinator's state is safe here.
  if (obs::enabled()) sched(obs_).spawns.add();
  return id;
}

Process* Kernel::process(ProcessId id) const {
  if (!id.valid() || id.value() >= processes_.size()) return nullptr;
  return processes_[id.value()].get();
}

Process* Kernel::process_by_name(std::string_view name) const {
  auto it = name_index_.find(name);
  return it == name_index_.end() ? nullptr : processes_[it->second.value()].get();
}

void Kernel::mark_terminated(Process* p) {
  DFDBG_DCHECK(p->state_ != ProcessState::kTerminated);
  p->state_ = ProcessState::kTerminated;
  DFDBG_DCHECK(live_count_.load(std::memory_order_relaxed) > 0);
  live_count_.fetch_sub(1, std::memory_order_relaxed);
}

void Kernel::make_ready(Process* p) {
  p->state_ = ProcessState::kReady;
  std::deque<Process*>& q = parallel_ ? shards_[p->shard_]->ready : ready_;
  if (policy_ == ReadyPolicy::kLifo)
    q.push_front(p);
  else
    q.push_back(p);
}

std::uint64_t Kernel::dispatch_count() const {
  if (!parallel_) return dispatches_;
  std::uint64_t n = dispatches_;
  for (const auto& sh : shards_) n += sh->dispatches;
  return n;
}

std::uint64_t Kernel::context_switch_count() const {
  // A shard never resumes a wait in place: each of its dispatches is two.
  return parallel_ ? 2 * dispatch_count() : switches_;
}

int Kernel::current_partition() const {
  if (!parallel_ || t_worker.kernel != this) return -1;
  return t_worker.shard;
}

void Kernel::add_barrier_task(std::function<bool()> task) {
  DFDBG_CHECK_MSG(parallel_, "add_barrier_task: parallel backend only");
  barrier_tasks_.push_back(std::move(task));
}

void Kernel::hook_dispatch_enter() {
  if (!parallel_) return;
  if (t_worker.kernel == this) t_worker.hook_depth++;
}

void Kernel::hook_dispatch_exit() {
  if (!parallel_) return;
  WorkerTls& t = t_worker;
  if (t.kernel != this || t.hook_depth == 0) return;
  if (--t.hook_depth == 0 && t.pending_break) {
    // A hook asked for debug_break() while the dispatch mutex was held;
    // take the stop now that the mutex is released (parking while holding
    // it would deadlock this shard's scheduler).
    t.pending_break = false;
    debug_break_parallel();
  }
}

// ---------------------------------------------------------------------------
// Kernel — fibers backend
// ---------------------------------------------------------------------------

void Kernel::count_dispatch(Process* p, std::uint64_t switches) {
  p->state_ = ProcessState::kRunning;
  p->activations_++;
  dispatches_++;
  switches_ += switches;
  if (obs::enabled()) {
    const SchedMetrics& m = sched(obs_);
    obs_.dispatches.add();
    obs_.switches.add(switches);
    // Depth observed when the process left the queue, i.e. the backlog it
    // waited behind.
    m.ready_depth.observe(ready_.size());
    obs::Journal& j = *journal_base_;
    if (j.recording()) {
      obs::JournalEvent ev;
      ev.time = now_;
      ev.kind = obs::JournalKind::kDispatch;
      ev.actor = p->jname_;
      ev.index = p->activations_;
      j.append(ev);
    }
  }
}

void Kernel::dispatch(Process* p) {
  DFDBG_DCHECK(p->state_ == ProcessState::kReady);
  // Two control transfers: one FiberContext::switch_to into the process, one
  // back to the scheduler when it yields.
  count_dispatch(p, 2);
  current_ = p;
  // No per-fire wall-time accumulation here: the time profile only ever
  // feeds the parallel backend's partitioner, and two clock reads per
  // dispatch would tax every observed sequential run for data nothing
  // consumes (dispatch_parallel pays them instead, amortized by its
  // heavier handshake).
  p->fiber_started_ = true;
  FiberContext::switch_to(sched_ctx_, *p->fiber_);  // until it yields/terminates
  current_ = nullptr;
}

RunResult Kernel::run(SimTime until) {
  if (parallel_) return run_parallel(until);
  DFDBG_CHECK_MSG(current_ == nullptr, "Kernel::run called from process context");
  if (until < now_) return RunResult::kTimeLimit;  // the clock never runs backwards
  stop_requested_ = false;
  run_until_ = until;
  while (true) {
    if (stop_requested_) {
      stop_requested_ = false;
      return RunResult::kStopped;
    }
    if (ready_.empty()) {
      if (timed_.empty()) {
        return live_count_.load(std::memory_order_relaxed) == 0 ? RunResult::kFinished
                                                                : RunResult::kDeadlock;
      }
      SimTime t = timed_.top().when;
      if (t > until) {
        now_ = until;
        return RunResult::kTimeLimit;
      }
      now_ = t;
      while (!timed_.empty() && timed_.top().when == now_) {
        Process* p = timed_.top().process;
        timed_.pop();
        make_ready(p);
        if (obs::enabled()) sched(obs_).timed_wakeups.add();
      }
      continue;
    }
    Process* p = ready_.front();
    ready_.pop_front();
    if (p->state_ == ProcessState::kTerminated) continue;
    dispatch(p);
  }
}

void Kernel::wait(Event& e) {
  if (parallel_) {
    wait_parallel(e);
    return;
  }
  Process* p = current_;
  DFDBG_CHECK_MSG(p != nullptr, "wait() outside process context");
  p->state_ = ProcessState::kWaitingEvent;
  e.waiters_.push_back(p);
  p->park();
}

void Kernel::advance(SimTime dt) {
  if (parallel_) {
    advance_parallel(dt);
    return;
  }
  Process* p = current_;
  DFDBG_CHECK_MSG(p != nullptr, "advance() outside process context");
  if (dt == 0) {
    // Plain yield: re-enqueue per the active policy.
    make_ready(p);
    p->park();
    return;
  }
  const SimTime wake = now_ + dt;
  p->wake_time_ = wake;
  p->consumed_time_ += dt;
  if (ready_.empty() && !stop_requested_ && !shutting_down_ && wake <= run_until_ &&
      (timed_.empty() || timed_.top().when > wake)) {
    // Nothing can run before this wakeup: run() would pop this entry alone,
    // advance the clock to it and dispatch this process next. Make that
    // dispatch here, minus the two switches and the timed-heap round trip.
    now_ = wake;
    if (obs::enabled()) sched(obs_).timed_wakeups.add();
    count_dispatch(p, 0);
    return;
  }
  p->state_ = ProcessState::kWaitingTime;
  timed_.push(TimedEntry{wake, wait_seq_counter_++, p});
  p->park();
}

void Kernel::debug_break() {
  if (parallel_) {
    debug_break_parallel();
    return;
  }
  Process* p = current_;
  DFDBG_CHECK_MSG(p != nullptr, "debug_break() outside process context");
  p->state_ = ProcessState::kReady;
  ready_.push_front(p);  // resume exactly here on the next run()
  stop_requested_ = true;
  if (obs::enabled()) sched(obs_).breaks.add();
  if (!instrument_.timing()) {
    p->park();
    return;
  }
  // Stopped inside a hooked fire whose dispatch time is being sampled: the
  // time parked here is the user's, not the hooks'.
  const std::uint64_t t0 = mono_ns();
  p->park();
  instrument_.add_parked_ns(mono_ns() - t0);
}

void Kernel::notify(Event& e) {
  if (parallel_) {
    notify_parallel(e);
    return;
  }
  e.notify_count_++;
  for (Process* p : e.waiters_) {
    DFDBG_DCHECK(p->state_ == ProcessState::kWaitingEvent);
    make_ready(p);
  }
  e.waiters_.clear();
}

// ---------------------------------------------------------------------------
// Kernel — parallel backend
//
// Execution model: every partition ("shard") is a sub-kernel — its own ready
// queue, timed queue and scheduler anchor — drained to quiescence by a
// dedicated worker thread. The coordinator (the thread that called run())
// alternates rounds with (mostly elided) barriers:
//
//   round:   the coordinator wakes only the shards that can progress — a
//            non-empty ready queue, or published boundary backlog their
//            eager drain can deliver (sparse wakes; the rest stay parked
//            and count a skipped_wake). Workers drain their shards,
//            interleaving eager drains of their inbound boundary channels
//            (tokens below the coordinator's published limit, in link
//            order); processes that wait/advance park as usual; notifies to
//            events owned by another partition are *deferred* (recorded,
//            not delivered).
//   barrier: only when the round produced cross-partition effects —
//            boundary traffic, deferred notifies, or a debug stop — does
//            the coordinator merge journal shards, deliver the deferred
//            notifies in partition order, and publish the boundary channels
//            (snapshot send indices, reclaim consumed slots, wake blocked
//            producers). Effect-free rounds skip all of it
//            (sim.barrier.elided_rounds); their journal records wait in the
//            bounded shard rings for the next real barrier, time advance or
//            run exit. Virtual-time advance (which merges journals first),
//            the registered full boundary drains (barrier tasks) and debug
//            stops still take a full barrier at global quiescence.
//
// Determinism: each shard's drain order is a function of its own queue
// contents; eager-drain eligibility is bounded by the coordinator's
// *snapshots*, not live producer indices, so the delivered set per round is
// timing-independent; the coordinator's work happens in fixed (partition,
// link registration) order; time advances only at global quiescence. Hence
// the whole schedule — dispatches, token movements, journal merge order — is
// a pure function of the program and the partition map. With one partition
// it is the *same* function the fibers backend computes (a single partition
// has no boundary channels, and delivers every notify at once).
// ---------------------------------------------------------------------------

Process* Kernel::current_parallel() const {
  if (t_worker.kernel != this) return nullptr;
  return shards_[t_worker.shard]->current;
}

obs::Journal& Kernel::shard_journal() const {
  if (t_worker.kernel != this) return *journal_base_;
  return *shards_[t_worker.shard]->journal;
}

void Kernel::ensure_workers_started() {
  if (workers_started_) return;
  workers_started_ = true;
  for (auto& sh : shards_) {
    int idx = sh->index;
    sh->thread = std::thread([this, idx] { worker_main(idx); });
  }
}

void Kernel::stop_workers() {
  if (!workers_started_) return;
  {
    std::lock_guard<std::mutex> lk(round_mu_);
    workers_exit_ = true;
  }
  for (auto& sh : shards_) sh->cv.notify_one();
  for (auto& sh : shards_)
    if (sh->thread.joinable()) sh->thread.join();
  workers_started_ = false;
}

void Kernel::worker_main(int shard) {
  Shard& s = *shards_[shard];
  t_worker.kernel = this;
  t_worker.shard = shard;
  // All journal traffic from this thread (dispatch records, link push/pop
  // records, token-id allocation) lands in the shard's private buffer.
  obs::Journal::set_thread_journal(s.journal.get());
  while (true) {
    {
      std::unique_lock<std::mutex> lk(round_mu_);
      s.cv.wait(lk, [&] { return workers_exit_ || s.wake; });
      if (workers_exit_) break;
      s.wake = false;
    }
    // Attribution: the worker times its own drain (clock reads obs-gated; the
    // scratch stores are unconditional and ordered before the coordinator's
    // read by the round_mu_ handshake below).
    const std::uint64_t dispatches_before = s.dispatches;
    const bool prof = obs::enabled();
    const std::uint64_t w0 = prof ? mono_ns() : 0;
    std::uint64_t eager = 0;
    drain_shard(s);
    if (boundary_hooks_.eager_drain) {
      // Eagerly deliver published cross-partition tokens and run whatever
      // they wake, until neither makes progress. Eligibility is bounded by
      // the coordinator's snapshot, so this fixpoint — like the drain order
      // itself — is a pure function of the round's starting state.
      while (!s.stop_round) {
        const std::size_t got = boundary_hooks_.eager_drain(s.index);
        if (got == 0) break;
        eager += got;
        drain_shard(s);
      }
    }
    s.round_eager = eager;
    s.eager_total += eager;
    s.round_work_ns = prof ? mono_ns() - w0 : 0;
    s.round_dispatches = s.dispatches - dispatches_before;
    {
      std::lock_guard<std::mutex> lk(round_mu_);
      if (--workers_running_ == 0) done_cv_.notify_one();
    }
  }
  obs::Journal::set_thread_journal(nullptr);
}

void Kernel::run_round() {
  rounds_++;
  if (obs::enabled()) sched(obs_).rounds.add();
  std::unique_lock<std::mutex> lk(round_mu_);
  int participants = 0;
  for (auto& sh : shards_) {
    if (!sh->participant) continue;
    sh->wake = true;
    participants++;
  }
  workers_running_ = participants;
  for (auto& sh : shards_)
    if (sh->participant) sh->cv.notify_one();
  done_cv_.wait(lk, [&] { return workers_running_ == 0; });
}

void Kernel::drain_shard(Shard& s) {
  while (!s.ready.empty() && !s.stop_round) {
    Process* p = s.ready.front();
    s.ready.pop_front();
    if (p->state_ == ProcessState::kTerminated) continue;
    dispatch_shard(s, p);
  }
}

void Kernel::dispatch_shard(Shard& s, Process* p) {
  DFDBG_DCHECK(p->state_ == ProcessState::kReady);
  p->state_ = ProcessState::kRunning;
  p->activations_++;
  s.dispatches++;
  const bool prof = obs::enabled();
  if (prof) {
    const SchedMetrics& m = sched(s.obs);
    s.obs.dispatches.add();
    s.obs.switches.add(2);
    m.ready_depth.observe(s.ready.size());
    s.m_dispatches->add();
    obs::Journal& j = *s.journal;
    if (j.recording()) {
      obs::JournalEvent ev;
      ev.time = now_;
      ev.kind = obs::JournalKind::kDispatch;
      ev.actor = p->jname_;
      ev.index = p->activations_;
      j.append(ev);
    }
  }
  s.current = p;
  const std::uint64_t f0 = prof ? mono_ns() : 0;
  p->fiber_started_ = true;
  p->resume_anchor_ = &s.sched_ctx;
  FiberContext::switch_to(s.sched_ctx, *p->fiber_);
  if (prof) p->consumed_wall_ns_ += mono_ns() - f0;
  s.current = nullptr;
}

void Kernel::wait_parallel(Event& e) {
  DFDBG_CHECK_MSG(t_worker.kernel == this, "wait() outside process context");
  Shard& s = *shards_[t_worker.shard];
  Process* p = s.current;
  DFDBG_CHECK_MSG(p != nullptr, "wait() outside process context");
  int expected = -1;
  if (!e.partition_.compare_exchange_strong(expected, s.index, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    DFDBG_CHECK_MSG(expected == s.index,
                    strformat("event '%s' waited from partitions %d and %d — an event's "
                              "waiters must share one partition (see docs/KERNEL.md)",
                              e.name().c_str(), expected, s.index));
  }
  p->state_ = ProcessState::kWaitingEvent;
  e.waiters_.push_back(p);
  p->park();
}

void Kernel::advance_parallel(SimTime dt) {
  DFDBG_CHECK_MSG(t_worker.kernel == this, "advance() outside process context");
  Shard& s = *shards_[t_worker.shard];
  Process* p = s.current;
  DFDBG_CHECK_MSG(p != nullptr, "advance() outside process context");
  if (dt == 0) {
    make_ready(p);
    p->park();
    return;
  }
  p->state_ = ProcessState::kWaitingTime;
  p->wake_time_ = now_ + dt;
  p->consumed_time_ += dt;
  s.timed.push(TimedEntry{now_ + dt, s.wait_seq++, p});
  p->park();
}

void Kernel::debug_break_parallel() {
  WorkerTls& t = t_worker;
  DFDBG_CHECK_MSG(t.kernel == this, "debug_break() outside process context");
  if (t.hook_depth > 0) {
    // Called from inside an instrumentation hook: the dispatch mutex is
    // held. Defer; hook_dispatch_exit() parks once the hooks finish.
    t.pending_break = true;
    return;
  }
  Shard& s = *shards_[t.shard];
  Process* p = s.current;
  DFDBG_CHECK_MSG(p != nullptr, "debug_break() outside process context");
  p->state_ = ProcessState::kReady;
  s.ready.push_front(p);  // resume exactly here on the next run()
  s.stop_round = true;    // this shard ends its round; others drain naturally
  stop_flag_.store(true, std::memory_order_release);
  if (obs::enabled()) sched(s.obs).breaks.add();
  p->park();
}

void Kernel::notify_deliver(Event& e) {
  e.notify_count_++;
  for (Process* p : e.waiters_) {
    DFDBG_DCHECK(p->state_ == ProcessState::kWaitingEvent);
    make_ready(p);
  }
  e.waiters_.clear();
}

bool Kernel::owns_event(const Event& e, int shard) const {
  const int owner = e.partition_.load(std::memory_order_acquire);
  // With one partition an unclaimed event can only ever be claimed by it.
  return owner == shard || (owner == -1 && shards_.size() == 1);
}

void Kernel::notify_parallel(Event& e) {
  WorkerTls& t = t_worker;
  if (t.kernel == this) {
    if (owns_event(e, t.shard)) {
      notify_deliver(e);  // same-partition: immediate, exactly like fibers
      return;
    }
    // Cross-partition (or unclaimed): defer to the barrier. Dedupe so one
    // event is delivered once per barrier no matter how many notifies hit it.
    if (!e.deferred_pending_.exchange(true, std::memory_order_acq_rel))
      shards_[t.shard]->deferred_notifies.push_back(&e);
    return;
  }
  // Coordinator/main thread: the simulation is stopped or at a barrier, so
  // the delivery is race-free — this is how the debugger unties deadlocks.
  notify_deliver(e);
}

bool Kernel::notify_if_waiting_parallel(Event& e) {
  WorkerTls& t = t_worker;
  if (t.kernel == this) {
    if (owns_event(e, t.shard)) {
      if (e.waiters_.empty()) {
        e.coalesced_count_++;
        return false;
      }
      notify_deliver(e);
      return true;
    }
    // Cross-partition: waiters_ cannot be read here; defer the edge.
    if (!e.deferred_pending_.exchange(true, std::memory_order_acq_rel))
      shards_[t.shard]->deferred_notifies.push_back(&e);
    return true;
  }
  if (e.waiters_.empty()) {
    e.coalesced_count_++;
    return false;
  }
  notify_deliver(e);
  return true;
}

void Kernel::record_round(std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
                          std::uint64_t boundary_hwm, bool elided) {
  const std::uint64_t wall = t2 - t0;
  const std::uint64_t drain = t2 - t1;
  const std::uint64_t span = t1 - t0;  // workers woken -> workers quiescent
  BarrierRoundRecord rec;
  rec.round = rounds_;
  rec.vtime = now_;
  rec.wall_ns = wall;
  rec.drain_ns = drain;
  rec.boundary_hwm = boundary_hwm;
  rec.elided = elided;
  rec.partitions.reserve(shards_.size());
  for (auto& sh : shards_) {
    BarrierRoundRecord::PartitionDelta d;
    // A skipped shard stayed parked: its round scratch (round_dispatches,
    // round_work_ns, round_eager) is stale from an earlier round and must
    // not be read. It did nothing and waited out the whole span.
    d.skipped = !sh->participant;
    d.dispatches = d.skipped ? 0 : sh->round_dispatches;
    d.eager = d.skipped ? 0 : sh->round_eager;
    // Worker and coordinator read the same steady clock from different
    // threads; clamp so work never exceeds the span the coordinator saw.
    d.work_ns = d.skipped ? 0 : std::min(sh->round_work_ns, span);
    d.wait_ns = span - d.work_ns;
    d.stalled = !d.skipped && sh->round_dispatches == 0;
    sh->work_ns_total += d.work_ns;
    sh->wait_ns_total += d.wait_ns;
    sh->drain_ns_total += drain;
    sh->m_work_ns->add(d.work_ns);
    sh->m_wait_ns->add(d.wait_ns);
    sh->m_drain_ns->add(drain);
    if (d.stalled) {
      sh->stalled_rounds++;
      sh->m_stalls->add();
    }
    if (d.skipped) sh->m_skipped->add();
    if (d.eager != 0) sh->m_eager->add(d.eager);
    sh->h_round_work->observe(d.work_ns);
    rec.partitions.push_back(d);
  }
  const SchedMetrics& m = sched(obs_);
  m.round_wall_ns.observe(wall);
  m.round_drain_ns.observe(drain);
  if (elided) m.elided.add();
  if (boundary_hwm > 0) m.boundary_hwm.set(static_cast<std::int64_t>(boundary_hwm));
  round_records_.push_back(std::move(rec));
  while (round_records_.size() > round_record_capacity_) round_records_.pop_front();
}

std::vector<BarrierRoundRecord> Kernel::round_records_after(std::uint64_t after,
                                                            std::size_t max_n) const {
  std::vector<BarrierRoundRecord> out;
  for (const BarrierRoundRecord& r : round_records_) {
    if (r.round <= after) continue;
    if (out.size() >= max_n) break;
    out.push_back(r);
  }
  return out;
}

void Kernel::set_round_record_capacity(std::size_t n) {
  round_record_capacity_ = n == 0 ? 1 : n;
  while (round_records_.size() > round_record_capacity_) round_records_.pop_front();
}

Kernel::ShardTotals Kernel::shard_totals(int partition) const {
  ShardTotals t;
  if (!parallel_ || partition < 0 || partition >= partition_count()) return t;
  const Shard& s = *shards_[partition];
  t.dispatches = s.dispatches;
  t.stalled_rounds = s.stalled_rounds;
  t.work_ns = s.work_ns_total;
  t.barrier_wait_ns = s.wait_ns_total;
  t.drain_ns = s.drain_ns_total;
  t.idle_ns = s.idle_ns_total;
  t.skipped_wakes = s.skipped_wakes;
  t.eager_drained = s.eager_total;
  return t;
}

void Kernel::merge_shard_journals() {
  for (auto& sh : shards_) journal_base_->merge_from(*sh->journal);
}

bool Kernel::flush_deferred() {
  bool progress = false;
  // Partition order: waking a blocked consumer may let a boundary drain
  // (eager or full) deliver straight into its link.
  for (auto& sh : shards_) {
    for (Event* e : sh->deferred_notifies) {
      e->deferred_pending_.store(false, std::memory_order_relaxed);
      if (!e->waiters_.empty()) progress = true;
      notify_deliver(*e);
    }
    sh->deferred_notifies.clear();
  }
  return progress;
}

bool Kernel::flush_barrier() {
  bool progress = flush_deferred();
  // Full boundary drains (registration order == link creation order).
  for (auto& task : barrier_tasks_)
    if (task()) progress = true;
  return progress;
}

RunResult Kernel::run_parallel(SimTime until) {
  DFDBG_CHECK_MSG(t_worker.kernel == nullptr && current() == nullptr,
                  "Kernel::run called from process context");
  if (until < now_) return RunResult::kTimeLimit;  // the clock never runs backwards
  ensure_workers_started();
  // Refreshed here, not only at construction: observers typically flip
  // obs::enabled() after the kernel exists, and a gated set would be lost.
  if (obs::enabled())
    obs::Registry::global().gauge("sim.worker.count").set(partition_count());
  stop_flag_.store(false, std::memory_order_relaxed);
  for (auto& sh : shards_) sh->stop_round = false;
  last_barrier_end_ns_ = 0;  // time stopped in the debugger is not idle
  // Re-publish the boundary snapshots: the debugger may have drained or
  // altered links while stopped, and a fresh run's first eligibility mask
  // must see current channel state.
  if (boundary_hooks_.publish) boundary_hooks_.publish();
  std::vector<std::uint8_t> boundary_pending(shards_.size(), 0);
  while (true) {
    // Pick the round's participants: shards with local ready work, plus
    // shards whose inbound boundary channels can deliver a published token
    // (their eager drain is then guaranteed at least one delivery, so a
    // woken shard always produces effects — no wake can spin forever).
    // Recomputed from live link/channel state every iteration; everything
    // else stays parked and counts a skipped wake.
    if (boundary_hooks_.pending) {
      std::fill(boundary_pending.begin(), boundary_pending.end(), 0);
      boundary_hooks_.pending(boundary_pending);
    }
    bool any_ready = false;
    for (auto& sh : shards_) {
      sh->participant =
          !sh->ready.empty() || boundary_pending[static_cast<std::size_t>(sh->index)] != 0;
      any_ready |= sh->participant;
    }
    if (any_ready) {
      for (auto& sh : shards_)
        if (!sh->participant) sh->skipped_wakes++;
      // Shard time attribution: t0..t1 is the workers' span (work +
      // barrier-wait), t1..t2 the coordinator's barrier (drain bucket), and
      // the gap since the previous barrier end is idle. All clock reads are
      // gated on obs::enabled(); disabled runs take none.
      const bool prof = obs::enabled();
      const std::uint64_t t0 = prof ? mono_ns() : 0;
      if (prof && last_barrier_end_ns_ != 0 && t0 > last_barrier_end_ns_) {
        const std::uint64_t idle = t0 - last_barrier_end_ns_;
        for (auto& sh : shards_) {
          sh->idle_ns_total += idle;
          sh->m_idle_ns->add(idle);
        }
      }
      run_round();
      const std::uint64_t t1 = prof ? mono_ns() : 0;
      // The probe samples every round — elided ones included — so the
      // boundary high-water mark cannot under-report across skipped
      // barriers.
      const std::uint64_t hwm = prof && boundary_probe_ ? boundary_probe_() : 0;
      const bool stop = stop_flag_.load(std::memory_order_acquire);
      // Barrier elision: did the round produce cross-partition effects?
      // Unpublished boundary movement, deferred notifies, or a debug stop.
      // Effect-free rounds skip the merge/flush/publish entirely; journal
      // records from purely-local rounds stay in their shard rings (bounded,
      // like every journal window) until the next real barrier, time
      // advance or run exit merges them in partition order. Every condition
      // is a deterministic function of the schedule, so the elision
      // pattern — and with it the merge schedule — is too.
      bool effects = stop;
      if (!effects && boundary_hooks_.activity) effects = boundary_hooks_.activity();
      if (!effects)
        for (auto& sh : shards_)
          if (!sh->deferred_notifies.empty()) {
            effects = true;
            break;
          }
      // Shard-journal pressure also forces a merge: records parked across
      // elided rounds must never be evicted from a shard ring that the
      // per-round merge would have kept (base drop accounting — see
      // Journal::merge_from — only balances when shards themselves never
      // drop). Half-full leaves a full round of headroom; at the default
      // 128Ki capacity this fires far too late to matter for elision.
      if (!effects)
        for (auto& sh : shards_)
          if (sh->journal->size() * 2 >= sh->journal->capacity()) {
            effects = true;
            break;
          }
      bool elided = false;
      if (effects) {
        merge_shard_journals();
        if (stop) {
          // Stop rounds take the full barrier — deferred notifies plus the
          // registered full drains — so the debugger never sees a token
          // parked invisibly behind a stale channel snapshot.
          flush_barrier();
        } else {
          flush_deferred();
          if (boundary_hooks_.publish) boundary_hooks_.publish();
        }
      } else {
        elided = true;
        elided_rounds_++;
      }
      if (prof) {
        const std::uint64_t t2 = mono_ns();
        record_round(t0, t1, t2, hwm, elided);
        last_barrier_end_ns_ = t2;
      } else {
        last_barrier_end_ns_ = 0;
      }
      if (stop) {
        stop_flag_.store(false, std::memory_order_relaxed);
        return RunResult::kStopped;
      }
      continue;
    }
    // No shard can progress; a full barrier flush may still create work
    // (e.g. boundary tokens parked behind a link that just gained space).
    if (flush_barrier()) continue;
    // Global quiescence at this virtual time: advance together. Records
    // parked in shard rings across elided rounds all carry the current time;
    // merge them before the clock moves, or a later effectful round would
    // merge them behind another shard's later-time records.
    merge_shard_journals();
    SimTime t = kMaxSimTime;
    bool has_timed = false;
    for (auto& sh : shards_)
      if (!sh->timed.empty()) {
        has_timed = true;
        if (sh->timed.top().when < t) t = sh->timed.top().when;
      }
    if (!has_timed)
      return live_count_.load(std::memory_order_relaxed) == 0 ? RunResult::kFinished
                                                              : RunResult::kDeadlock;
    if (t > until) {
      now_ = until;
      return RunResult::kTimeLimit;
    }
    now_ = t;
    for (auto& sh : shards_) {
      while (!sh->timed.empty() && sh->timed.top().when == now_) {
        Process* p = sh->timed.top().process;
        sh->timed.pop();
        make_ready(p);
        if (obs::enabled()) sched(obs_).timed_wakeups.add();
      }
    }
  }
}

}  // namespace dfdbg::sim
