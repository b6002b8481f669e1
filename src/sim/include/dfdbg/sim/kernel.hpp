// The deterministic cooperative simulation kernel.
//
// Model: discrete-event simulation with cooperative processes. Exactly one
// process executes at any instant; processes yield by waiting on events or
// advancing simulated time. The ready queue is FIFO and all wakeups are
// ordered, so a given program produces the same interleaving on every run.
// This reproduces the property of the P2012 functional simulator that the
// paper's debugger exploits: "the model and the implementation ensure that
// the data order is preserved, [so] we can stop the execution at the right
// location in a deterministic way".
//
// Debugger integration: any code running inside a process (e.g. an
// instrumentation hook) may call Kernel::debug_break(); the simulation is
// then suspended with the process frozen mid-call and Kernel::run() returns
// kStopped. A later run() resumes exactly where execution stopped, which is
// what gives the CLI its `continue` semantics.
//
// Execution backends: processes always run on stackful user-level fibers (a
// dispatch is two register-only stack switches of ~20 ns each on x86-64,
// mirroring the SystemC QT coroutines the paper's simulator uses). The
// default backend schedules them all from the thread that calls run(); the
// *parallel* backend partitions the process set into per-cluster sub-kernels,
// each drained to quiescence by its own worker thread between conservative
// barriers, with virtual time advancing globally. Schedules are bit-identical
// between fibers and a single-partition parallel kernel, and across parallel
// runs under a fixed partition map; see context.hpp and docs/KERNEL.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/sim/context.hpp"
#include "dfdbg/sim/event.hpp"
#include "dfdbg/sim/instrument.hpp"
#include "dfdbg/sim/process.hpp"
#include "dfdbg/sim/time.hpp"

namespace dfdbg::obs {
class Journal;
}  // namespace dfdbg::obs

namespace dfdbg::sim {

/// Order in which ready processes are dispatched. Dataflow applications on
/// blocking FIFO links are Kahn process networks: their *results* must be
/// identical under any policy — only timing and interleaving may change.
/// The LIFO policy exists to demonstrate (and test) exactly that.
enum class ReadyPolicy {
  kFifo,  ///< default: first-ready, first-dispatched (fully deterministic)
  kLifo,  ///< stack order: adversarial interleaving, same dataflow results
};

/// Why Kernel::run() returned.
enum class RunResult {
  kFinished,  ///< All processes terminated.
  kStopped,   ///< debug_break() was requested; simulation is resumable.
  kDeadlock,  ///< Live processes exist but all are blocked on events.
  kTimeLimit, ///< The `until` bound was reached; simulation is resumable.
};

/// Returns a short human-readable name for `r`.
const char* to_string(RunResult r);

/// One completed barrier round of the parallel backend, as captured by the
/// shard time-attribution profiler. Recorded only while `obs::enabled()` is
/// on (the disabled path takes no clock reads and allocates nothing), into a
/// bounded ring the debugger reads between runs — wall times are measurement,
/// not schedule input, so recording never perturbs determinism.
struct BarrierRoundRecord {
  std::uint64_t round = 0;        ///< 1-based round id (monotonic; stream cursor)
  SimTime vtime = 0;              ///< global virtual time during the round
  std::uint64_t wall_ns = 0;      ///< workers woken -> barrier flushed
  std::uint64_t drain_ns = 0;     ///< coordinator portion: journal merge + notifies + boundary drains
  std::uint64_t boundary_hwm = 0; ///< max boundary-channel occupancy sampled at the barrier
  bool elided = false;            ///< no cross-partition effects: coordinator skipped the barrier
  struct PartitionDelta {
    std::uint64_t dispatches = 0; ///< dispatches this shard executed this round
    std::uint64_t work_ns = 0;    ///< worker-measured time draining its ready queue
    std::uint64_t wait_ns = 0;    ///< barrier-wait: blocked on slower shards
    std::uint64_t eager = 0;      ///< boundary tokens this shard eager-drained this round
    bool stalled = false;         ///< woken with nothing to run (load-imbalance signal)
    bool skipped = false;         ///< not woken: no local work could progress this round
  };
  std::vector<PartitionDelta> partitions;  ///< one entry per partition, in order
};

/// The simulation kernel. Owns all processes and the instrumentation port.
/// The embedding application drives it from one thread; under the parallel
/// backend the kernel additionally owns its worker threads, and the public
/// primitives are safe to call from simulated-process context on any worker.
class Kernel {
 public:
  /// `backend` selects how processes execute (fibers by default; see
  /// context.hpp). Fixed for the kernel's lifetime. `workers` is the
  /// partition/worker-thread count of the parallel backend (0 = the
  /// default_parallel_workers() resolution; ignored by kFibers).
  explicit Kernel(ProcessBackend backend = default_process_backend(), int workers = 0);
  ~Kernel();

  /// The process execution backend this kernel was built with.
  [[nodiscard]] ProcessBackend backend() const { return backend_; }

  /// True when this kernel runs the parallel (partitioned) backend.
  [[nodiscard]] bool parallel() const { return parallel_; }

  /// Number of partitions (== worker threads) under the parallel backend;
  /// 1 otherwise.
  [[nodiscard]] int partition_count() const {
    return parallel_ ? static_cast<int>(shards_.size()) : 1;
  }

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// The journal visible when the kernel was built (a hosted session's
  /// private journal, else the process-wide one). Parallel shards delegate
  /// token ids and names to it and merge into it; process names, and the
  /// framework's actor paths, are interned into it once, at spawn and
  /// elaboration, so journal records carry ready-made name ids.
  [[nodiscard]] obs::Journal& journal() const { return *journal_base_; }

  /// The journal a record made by the calling code belongs in: journal(),
  /// except on a parallel-backend worker, which records into its own shard
  /// (race-free; the coordinator merges shards into journal()).
  [[nodiscard]] obs::Journal& record_journal() const {
    return parallel_ ? shard_journal() : *journal_base_;
  }

  /// Creates a process executing `body`. May be called before run() or from
  /// inside a running process. The process becomes ready immediately. Under
  /// the parallel backend the process joins the spawner's partition
  /// (partition 0 when spawned from the coordinator).
  ProcessId spawn(std::string name, std::function<void()> body);

  /// spawn() into an explicit partition (parallel backend; kFibers
  /// requires partition 0). Partitioning is fixed at spawn.
  ProcessId spawn_in(int partition, std::string name, std::function<void()> body);

  /// Runs the simulation until it finishes, deadlocks, breaks, or simulated
  /// time would exceed `until`. Resumable after kStopped / kTimeLimit. The
  /// clock never moves backwards: with `until` below now() the run does
  /// nothing and returns kTimeLimit.
  RunResult run(SimTime until = kMaxSimTime);

  /// Current simulated time in cycles.
  [[nodiscard]] SimTime now() const { return now_; }

  /// The process currently executing, or nullptr outside process context.
  /// Parallel backend: the calling worker's current process (nullptr on the
  /// coordinator thread, e.g. inside the debugger while stopped).
  [[nodiscard]] Process* current() const {
    if (!parallel_) return current_;
    return current_parallel();
  }

  /// Parallel backend: the partition whose worker thread is executing the
  /// caller, or -1 on the coordinator/main thread (and always -1 on the
  /// fibers backend).
  [[nodiscard]] int current_partition() const;

  /// Looks up a process by id (nullptr if unknown).
  [[nodiscard]] Process* process(ProcessId id) const;
  /// Looks up a process by name (nullptr if unknown; first spawn with that
  /// name wins). O(1): served from an index maintained at spawn.
  [[nodiscard]] Process* process_by_name(std::string_view name) const;
  /// All processes ever spawned (stable order).
  [[nodiscard]] const std::vector<std::unique_ptr<Process>>& processes() const {
    return processes_;
  }

  // --- Primitives callable from process context only -----------------------

  /// Blocks the calling process until `e` is notified.
  void wait(Event& e);

  /// Blocks the calling process for `dt` simulated cycles. On the fibers
  /// backend a wait that nothing else can precede — the dispatch run() would
  /// make next is this process's own wakeup — resumes in place, without
  /// parking (docs/KERNEL.md, "Scheduler hot path").
  void advance(SimTime dt);

  /// Suspends the whole simulation; run() returns kStopped. When run() is
  /// called again the calling process resumes here first (it is placed at
  /// the front of the ready queue), preserving determinism.
  void debug_break();

  // --- Primitives callable from any context --------------------------------

  /// Wakes every process waiting on `e` (they run after the current process
  /// yields, in wait order). Safe to call while the simulation is stopped,
  /// which is how the debugger "unties" deadlocks after altering state.
  void notify(Event& e);

  /// notify(e) only when someone is actually blocked on `e`; otherwise a
  /// no-op that counts the elision (Event::coalesced_count). Scheduling is
  /// identical to an unconditional notify — waking zero waiters changes
  /// nothing — but the hot path skips the call overhead and the token-path
  /// shims use it to signal only empty→non-empty / full→non-full edges.
  /// Returns true when a notify was issued (parallel: or deferred).
  bool notify_if_waiting(Event& e) {
    if (parallel_) return notify_if_waiting_parallel(e);
    if (e.waiters_.empty()) {
      e.coalesced_count_++;
      return false;
    }
    notify(e);
    return true;
  }

  /// Parallel backend: registers a function the coordinator invokes at a
  /// *full* barrier — the global-quiescence fallback (no shard can progress
  /// at the current virtual time) and the barrier of a debug-stop round —
  /// after deferred notifies flush, before virtual time advances. Returns
  /// true when it made progress (delivered tokens, woke a process), which
  /// triggers another delta round at the same virtual time. The pedf runtime
  /// registers its full boundary-ring drain here; ordinary rounds move
  /// boundary tokens through the relaxed-synchrony path (BoundaryHooks)
  /// instead. Tasks run in registration order; register before the first
  /// run().
  void add_barrier_task(std::function<bool()> task);

  /// Parallel backend: the boundary-transport integration points of the
  /// relaxed-synchrony round protocol (see pedf/boundary.hpp). All optional;
  /// the pedf runtime installs them when partition-crossing links exist.
  struct BoundaryHooks {
    /// Worker context, during a round: the given partition drains its
    /// inbound channels' *published* tokens, in link order, waking local
    /// waiters. Returns tokens delivered.
    std::function<std::size_t(int partition)> eager_drain;
    /// Coordinator: does any channel hold movement the last publish has not
    /// seen (unpublished sends, or consumed slots not yet reclaimed)?
    std::function<bool()> activity;
    /// Coordinator: snapshot send indices for the next round's eager drains,
    /// reclaim consumed slots, wake producers blocked on space. Returns true
    /// when a blocked producer was woken.
    std::function<bool()> publish;
    /// Coordinator: set mask[p] nonzero for partitions whose inbound
    /// channels can deliver at least one token right now (published backlog
    /// and link room) — those shards join the round even with empty ready
    /// queues.
    std::function<void(std::vector<std::uint8_t>&)> pending;
  };
  void set_boundary_hooks(BoundaryHooks hooks) { boundary_hooks_ = std::move(hooks); }

  /// Parallel backend: barrier rounds completed so far (0 otherwise).
  [[nodiscard]] std::uint64_t round_count() const { return rounds_; }

  /// Parallel backend: rounds whose coordinator barrier was skipped entirely
  /// (no cross-partition effects: no boundary traffic, no deferred notifies,
  /// no debug stop). Counted regardless of obs state.
  [[nodiscard]] std::uint64_t elided_round_count() const { return elided_rounds_; }

  // --- Shard time attribution (parallel backend; docs/OBSERVABILITY.md) ----

  /// Cumulative wall-time buckets of one partition, as attributed by the
  /// profiler: work (draining the shard's ready queue), barrier-wait
  /// (blocked on slower shards), drain (coordinator barrier work: journal
  /// merge, deferred notifies, boundary rings) and idle (between rounds:
  /// virtual-time advance / quiescence checks). Zero unless obs was enabled
  /// while running.
  struct ShardTotals {
    std::uint64_t dispatches = 0;
    std::uint64_t stalled_rounds = 0;  ///< rounds woken with an empty ready queue
    std::uint64_t work_ns = 0;
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t drain_ns = 0;
    std::uint64_t idle_ns = 0;
    /// Rounds this shard stayed parked through (sparse wakes). Counted
    /// regardless of obs state, like dispatches.
    std::uint64_t skipped_wakes = 0;
    /// Boundary tokens this shard eager-drained from its inbound channels.
    std::uint64_t eager_drained = 0;
  };
  [[nodiscard]] ShardTotals shard_totals(int partition) const;

  /// The retained per-round attribution records, oldest first. Bounded ring
  /// (set_round_record_capacity); populated only while obs::enabled().
  [[nodiscard]] const std::deque<BarrierRoundRecord>& round_records() const {
    return round_records_;
  }

  /// Copies retained records with round id > `after` (the shard_rounds
  /// stream cursor), oldest first, at most `max_n` of them.
  [[nodiscard]] std::vector<BarrierRoundRecord> round_records_after(
      std::uint64_t after, std::size_t max_n) const;

  /// Resizes the round-record ring (default 512); evicts oldest.
  void set_round_record_capacity(std::size_t n);

  /// Registers a probe the coordinator samples at each barrier, *before*
  /// boundary rings drain, returning the current aggregate boundary-channel
  /// occupancy. The pedf runtime installs one reporting the max pending
  /// count across its BoundaryChannels; recorded as the round's
  /// boundary_hwm. Only called while obs::enabled().
  void set_boundary_probe(std::function<std::uint64_t()> probe) {
    boundary_probe_ = std::move(probe);
  }

  /// Bracketing for instrumentation-hook dispatch (see InstrumentPort): under
  /// the parallel backend hooks run holding the port's dispatch mutex, so a
  /// debug_break() issued inside a hook is deferred and taken here, at
  /// hook_dispatch_exit(), once the mutex is released. No-ops otherwise.
  void hook_dispatch_enter();
  void hook_dispatch_exit();

  /// Number of scheduler dispatches so far (for tests and benchmarks).
  /// Parallel backend: aggregated over all partitions.
  [[nodiscard]] std::uint64_t dispatch_count() const;

  /// Fiber switches made by dispatches so far: two per dispatch (into the
  /// process and back), none for a timed wait resumed in place. Counted
  /// whether or not obs is on; `sim.context_switch` tallies the same.
  [[nodiscard]] std::uint64_t context_switch_count() const;

  /// Count of live (non-terminated) processes. O(1): maintained at
  /// spawn/terminate rather than scanned.
  [[nodiscard]] std::size_t live_process_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }

  /// The instrumentation port the debugger attaches to (see instrument.hpp).
  [[nodiscard]] InstrumentPort& instrument() { return instrument_; }
  [[nodiscard]] const InstrumentPort& instrument() const { return instrument_; }

  /// Ready-queue dispatch order (see ReadyPolicy). Still deterministic for
  /// a fixed policy; set before run() for reproducible experiments.
  void set_ready_policy(ReadyPolicy policy) { policy_ = policy; }
  [[nodiscard]] ReadyPolicy ready_policy() const { return policy_; }

 private:
  friend class Process;

  /// Registry instruments a scheduler feeds (kernel.cpp).
  struct SchedMetrics;
  /// One scheduler's obs state — the kernel's own, or one shard's, so each
  /// has a single writer: its share of sim.dispatch and sim.context_switch,
  /// tallied here, and the registry instruments, resolved (and the tallies
  /// attached) at its first counted event.
  struct SchedObs {
    const SchedMetrics* m = nullptr;
    obs::Tally dispatches;
    obs::Tally switches;
  };

  struct TimedEntry {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break
    Process* process;
    bool operator>(const TimedEntry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  /// One partition of the parallel backend: a sub-kernel with its own ready
  /// queue, timed queue, scheduler anchor and journal shard, drained to
  /// quiescence by one worker thread between barriers. Mutated only by its
  /// worker during a round and only by the coordinator between rounds (the
  /// round handshake's mutex orders the two).
  struct Shard {
    int index = 0;
    std::deque<Process*> ready;
    std::priority_queue<TimedEntry, std::vector<TimedEntry>, std::greater<>> timed;
    std::uint64_t wait_seq = 0;
    Process* current = nullptr;
    std::uint64_t dispatches = 0;
    bool stop_round = false;  ///< debug_break: end this round after the park
    std::vector<Event*> deferred_notifies;  ///< cross-partition, flushed at barrier
    FiberContext sched_ctx;                 ///< this worker's scheduler anchor
    std::unique_ptr<obs::Journal> journal;  ///< per-worker flight-recorder shard
    SchedObs obs;                           ///< written by this shard's worker
    obs::Counter* m_dispatches = nullptr;   ///< sim.worker.<i>.dispatch
    std::thread thread;

    // Sparse wakes: the coordinator wakes only shards that can progress this
    // round; the rest stay parked on their own condition variable. `wake`
    // and `participant` are coordinator-written under round_mu_ (the worker
    // clears `wake` when it takes a round); `skipped_wakes` is
    // coordinator-only; `round_eager`/`eager_total` are worker-written,
    // coordinator-read across the round handshake.
    std::condition_variable cv;   ///< this worker's round-wake channel
    bool wake = false;            ///< a round is pending for this shard
    bool participant = false;     ///< coordinator scratch: woken this round
    std::uint64_t round_eager = 0;   ///< boundary tokens eager-drained, this round
    std::uint64_t eager_total = 0;   ///< cumulative eager-drained tokens
    std::uint64_t skipped_wakes = 0; ///< rounds this shard stayed parked through
    obs::Counter* m_skipped = nullptr; ///< sim.worker.<i>.skipped_wakes
    obs::Counter* m_eager = nullptr;   ///< sim.worker.<i>.eager_drained

    // Shard time attribution. The worker writes the two round-scratch fields
    // before re-parking (ordered before the coordinator's read by round_mu_);
    // everything else is coordinator-only. Clock reads are obs-gated; the
    // scratch writes are two unconditional u64 stores per round.
    std::uint64_t round_work_ns = 0;    ///< worker-measured drain time, this round
    std::uint64_t round_dispatches = 0; ///< dispatch delta, this round
    std::uint64_t work_ns_total = 0;
    std::uint64_t wait_ns_total = 0;
    std::uint64_t drain_ns_total = 0;
    std::uint64_t idle_ns_total = 0;
    std::uint64_t stalled_rounds = 0;
    obs::Counter* m_work_ns = nullptr;     ///< sim.worker.<i>.work_ns
    obs::Counter* m_wait_ns = nullptr;     ///< sim.worker.<i>.barrier_wait_ns
    obs::Counter* m_drain_ns = nullptr;    ///< sim.worker.<i>.drain_ns
    obs::Counter* m_idle_ns = nullptr;     ///< sim.worker.<i>.idle_ns
    obs::Counter* m_stalls = nullptr;      ///< sim.worker.<i>.stalled_rounds
    obs::Histogram* h_round_work = nullptr;///< sim.worker.<i>.round_work_ns
  };

  /// Hands the CPU to `p` and blocks until it yields back.
  void dispatch(Process* p);
  /// The bookkeeping of dispatching `p` on the fibers backend — state,
  /// counts, obs and the journal `dispatch` record — with the `switches`
  /// fiber switches it makes (2, or 0 for a wait resumed in place).
  void count_dispatch(Process* p, std::uint64_t switches);
  /// Enqueues a newly-ready process according to the active policy (parallel:
  /// into the process's own partition).
  void make_ready(Process* p);
  /// Records the (single) transition to kTerminated: state + live count.
  void mark_terminated(Process* p);

  /// `o`'s registry instruments, resolved on first use (by `o`'s writer).
  static const SchedMetrics& sched(SchedObs& o);

  // --- parallel backend internals (kernel.cpp) ------------------------------
  [[nodiscard]] Process* current_parallel() const;
  /// record_journal() under the parallel backend.
  [[nodiscard]] obs::Journal& shard_journal() const;
  RunResult run_parallel(SimTime until);
  void ensure_workers_started();
  void worker_main(int shard);
  void run_round();
  void drain_shard(Shard& s);
  void dispatch_shard(Shard& s, Process* p);
  void wait_parallel(Event& e);
  void advance_parallel(SimTime dt);
  void debug_break_parallel();
  void notify_parallel(Event& e);
  bool notify_if_waiting_parallel(Event& e);
  /// True when a notify on `e` from `shard` is delivered at once, not deferred.
  [[nodiscard]] bool owns_event(const Event& e, int shard) const;
  /// Wakes `e`'s waiters into their partitions' ready queues (coordinator
  /// or owning-shard context only).
  void notify_deliver(Event& e);
  /// Coordinator: flushes deferred notifies in partition order; true when a
  /// waiter was woken.
  bool flush_deferred();
  /// Coordinator, full barrier: flush_deferred() then the registered barrier
  /// tasks (pedf's full boundary drain); true when any progress was made.
  bool flush_barrier();
  void merge_shard_journals();
  void stop_workers();
  /// Attribution bookkeeping for one completed round: t0 = workers woken,
  /// t1 = workers quiescent, t2 = barrier flushed (all mono_ns).
  void record_round(std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
                    std::uint64_t boundary_hwm, bool elided);

  ProcessBackend backend_;
  bool parallel_ = false;
  SimTime now_ = 0;
  std::vector<std::unique_ptr<Process>> processes_;
  std::unordered_map<std::string, ProcessId, TransparentStringHash, std::equal_to<>>
      name_index_;  ///< first spawn with a name wins (process_by_name contract)
  std::atomic<std::size_t> live_count_{0};
  std::deque<Process*> ready_;
  std::priority_queue<TimedEntry, std::vector<TimedEntry>, std::greater<>> timed_;
  Process* current_ = nullptr;
  bool stop_requested_ = false;
  bool shutting_down_ = false;
  SimTime run_until_ = kMaxSimTime;  ///< the current run()'s bound (fibers)
  std::uint64_t dispatches_ = 0;
  std::uint64_t switches_ = 0;  ///< fiber switches made by dispatch() (fibers)
  std::uint64_t wait_seq_counter_ = 0;
  ReadyPolicy policy_ = ReadyPolicy::kFifo;
  FiberContext sched_ctx_;  ///< the scheduler's context (fibers backend; teardown on both)
  InstrumentPort instrument_;
  SchedObs obs_;  ///< the fibers scheduler's, and the parallel coordinator's

  // Parallel backend state.
  obs::Journal* journal_base_ = nullptr;  ///< journal shards delegate/merge here
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::function<bool()>> barrier_tasks_;
  BoundaryHooks boundary_hooks_;
  std::uint64_t rounds_ = 0;
  std::uint64_t elided_rounds_ = 0;
  std::atomic<bool> stop_flag_{false};  ///< some shard requested a debug stop
  std::mutex spawn_mu_;                 ///< serializes mid-run spawns from workers
  // Round handshake: coordinator bumps round_gen_, sets the participating
  // shards' wake flags (each worker parks on its own Shard::cv — sparse
  // wakes), and waits for workers_running_ to fall back to zero; the mutex
  // carries the happens-before edges between coordinator and workers each
  // round, for participants and skipped shards alike.
  std::mutex round_mu_;
  std::condition_variable done_cv_;
  int workers_running_ = 0;
  bool workers_exit_ = false;
  bool workers_started_ = false;

  // Shard time attribution (coordinator-only).
  std::deque<BarrierRoundRecord> round_records_;
  std::size_t round_record_capacity_ = 512;
  std::function<std::uint64_t()> boundary_probe_;
  std::uint64_t last_barrier_end_ns_ = 0;  ///< idle attribution anchor
};

}  // namespace dfdbg::sim
