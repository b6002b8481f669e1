// Unified observability layer: a process-wide metrics registry.
//
// The debugger, the simulation kernel and the PEDF runtime all want the same
// three primitives — monotonic counters, gauges with a high-water mark, and
// log2-bucketed histograms — without paying for them when nobody is looking.
// Instruments are named and lazily interned (the same idiom as
// `sim::InstrumentPort::intern`): the first `counter("sim.dispatch")` call
// creates the instrument, later calls return the same object, and the
// returned reference stays valid for the lifetime of the registry, so hot
// paths intern once and keep the pointer.
//
// Cost model: every mutation is gated on a single process-wide flag
// (`obs::enabled()`), false by default. With metrics disabled a call site is
// one predictable branch; no allocation, no clock read, no hashing. The
// flag is flipped by the CLI / trace collector / benchmarks, never by the
// framework itself, so the framework stays observer-agnostic exactly like
// it stays debugger-agnostic.
//
// Threading: counters and histogram buckets live in per-thread *cells*.
// Each instrument owns fixed slot indexes (a counter one, a histogram its 65
// buckets plus a sum), and each thread owns a block of 64-bit cells, found
// through a thread-local pointer and allocated a page at a time on first
// use. An enabled `add`/`observe` is a plain load and store into the calling
// thread's own cell — no locked read-modify-write, no shared cache line — so
// leaving metrics on costs a few nanoseconds per event on every backend, and
// counts stay exact because every cell has one writer. Reads (`value()`,
// `count()`, the registry reports) fold the slot across every block under
// the cell pool's lock. A block outlives its thread: at thread exit it goes
// back to the pool with its totals, still folded, and the next new thread
// adopts it, so memory is bounded by the peak number of live threads. The
// thread-local is re-read on every update, so a fiber that parks on one
// thread and resumes on another writes the block of the thread it runs on.
// `reset()` records the current fold as a baseline that reads subtract; it
// never writes another thread's cells, so it cannot race a writer. Gauges
// (last value wins) and histogram min/max marks stay shared relaxed atomics
// (a CAS only when a mark moves). Interning takes a registry mutex — hot
// paths intern once and keep the reference, so the lock never sits on a
// per-token path.
//
// Owned tallies: the hottest counters (dispatches, context switches, hook
// fires, link pushes and pops, journal records) are not kept in cells at
// all. The object that sees the event — a kernel or shard, a hook port, a
// link, a journal — keeps a `Tally`, a plain single-writer field of its own,
// and attaches it to the registry counter when it first counts. A read of the
// counter folds its cells, every attached share, and the retired total that
// destroyed owners left behind, so an event costs one load and store on the
// owner's own cache line and no thread-local lookup. A share may also be
// computed from the owner's state (a journal's record count is its write
// position), in which case the event costs nothing extra at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dfdbg/common/strings.hpp"

namespace dfdbg::obs {

namespace detail {
inline bool g_enabled = false;
}  // namespace detail

/// Process-wide master switch. Instruments ignore mutations while disabled.
[[nodiscard]] inline bool enabled() { return detail::g_enabled; }
inline void set_enabled(bool on) { detail::g_enabled = on; }

namespace detail {
/// Lock-free high-water raise (relaxed: marks are monotonic per instrument).
template <typename T>
inline void raise_max(std::atomic<T>& slot, T v) {
  T cur = slot.load(std::memory_order_relaxed);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
/// Lock-free low-water lower.
template <typename T>
inline void lower_min(std::atomic<T>& slot, T v) {
  T cur = slot.load(std::memory_order_relaxed);
  while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// --- per-thread cells (see "Threading" above) --------------------------------

using Cell = std::atomic<std::uint64_t>;

inline constexpr std::uint32_t kCellPageBits = 10;
inline constexpr std::uint32_t kCellsPerPage = 1u << kCellPageBits;  ///< 8 KiB
inline constexpr std::uint32_t kCellPages = 1024;  ///< 1 Mi slots in all

/// One thread's cells. Page i holds slots [i * kCellsPerPage, (i + 1) *
/// kCellsPerPage); it stays null until its owner first updates one of them,
/// and is published with release so a folding reader sees it zeroed.
struct CellBlock {
  std::atomic<Cell*> pages[kCellPages] = {};
};

/// The calling thread's block: null until its first update.
extern constinit thread_local CellBlock* t_cells;

/// Reserves `n` consecutive slots that share one page (a run never straddles
/// a page, so one lookup serves a whole histogram). Slots are never reused.
std::uint32_t alloc_slots(std::uint32_t n);

/// Slow path of cells(): adopts a block for the thread and/or maps the page.
Cell* cells_slow(std::uint32_t slot);

/// Blocks made so far, live and released (tests check that exited threads'
/// blocks are adopted instead of new ones made).
std::size_t cell_block_count();

/// The calling thread's cell for `slot` (and the rest of its run after it).
inline Cell* cells(std::uint32_t slot) {
  CellBlock* b = t_cells;
  if (b != nullptr) [[likely]] {
    Cell* page = b->pages[slot >> kCellPageBits].load(std::memory_order_relaxed);
    if (page != nullptr) [[likely]] return page + (slot & (kCellsPerPage - 1));
  }
  return cells_slow(slot);
}

/// Single-writer add: only the owning thread stores to its cell.
inline void bump(Cell& c, std::uint64_t n) {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
}  // namespace detail

class Counter;

/// A part of a counter's total kept by the object that sees its events (see
/// "Owned tallies" above). The owner attaches it once, when it first counts;
/// from then on every read of the counter adds share(). When the owner goes
/// away, retire() moves the last share into the counter's retired total, so
/// the counter's reading never goes backwards as owners come and go.
class CounterShare {
 public:
  CounterShare(const CounterShare&) = delete;
  CounterShare& operator=(const CounterShare&) = delete;

  /// Folds this share into `c` from now on. Once, by the owner; `c` must
  /// outlive the share (the registry's counters live as long as the process).
  void attach(Counter& c);
  [[nodiscard]] bool attached() const { return counter_ != nullptr; }

 protected:
  CounterShare() = default;
  virtual ~CounterShare() = default;
  /// The share's current value, read under the fold lock (lock_folds()).
  [[nodiscard]] virtual std::uint64_t share() const = 0;
  /// Detaches, leaving the last share() in the counter; idempotent. The
  /// owner calls it while the state share() reads is still there, which a
  /// base-class destructor would be too late for.
  void retire();

 private:
  friend class Counter;
  // The counter's list of attached shares; guarded by the fold lock.
  Counter* counter_ = nullptr;
  CounterShare* prev_ = nullptr;
  CounterShare* next_ = nullptr;
};

/// The plain share: a monotonic tally the owner adds to. The owner gates its
/// adds on `enabled()` and is the only writer at any one time; a writer on
/// another thread must be ordered after the previous one by a handoff, as a
/// parked kernel's next runner is.
class Tally final : public CounterShare {
 public:
  Tally() = default;
  ~Tally() { retire(); }

  void add(std::uint64_t n = 1) { detail::bump(v_, n); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  [[nodiscard]] std::uint64_t share() const override { return value(); }
  detail::Cell v_{0};
};

/// The lock counter reads fold under. An owner whose share is computed from
/// several fields changes them under it, so no read sees them half-changed.
[[nodiscard]] std::unique_lock<std::mutex> lock_folds();

/// Monotonic event counter.
class Counter {
 public:
  Counter() : slot_(detail::alloc_slots(1)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (enabled()) detail::bump(*detail::cells(slot_), n);
  }
  /// Every thread's cell, every attached share and the retired total,
  /// minus the baseline of the last reset().
  [[nodiscard]] std::uint64_t value() const;
  void reset();

 private:
  friend class CounterShare;
  /// Cells + shares + retired. Caller holds the fold lock.
  [[nodiscard]] std::uint64_t fold_locked() const;

  std::uint32_t slot_;
  // Guarded by the fold lock (the cell pool's).
  std::uint64_t base_ = 0;            ///< fold at the last reset
  CounterShare* shares_ = nullptr;    ///< attached shares, newest first
  std::uint64_t retired_ = 0;         ///< what retired shares left behind
};

/// Instantaneous level with a high-water mark (e.g. queue occupancy).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
    detail::raise_max(max_, v);
  }
  void add(std::int64_t d) {
    if (!enabled()) return;
    std::int64_t nv = v_.fetch_add(d, std::memory_order_relaxed) + d;
    detail::raise_max(max_, nv);
  }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// One histogram folded across every thread at one instant: what reports
/// read, so a report folds each histogram once rather than once per
/// statistic or percentile.
struct HistogramTotals {
  static constexpr std::size_t kBuckets = 65;
  std::uint64_t buckets[kBuckets] = {};
  std::uint64_t count = 0;  ///< sum of the buckets
  std::uint64_t sum = 0;
  std::uint64_t min = 0;    ///< 0 while count == 0
  std::uint64_t max = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper edge of the smallest bucket whose cumulative count reaches
  /// `p * count` (p in [0,1]), clamped to max. An approximation by
  /// construction: exact to within the 2x bucket resolution.
  [[nodiscard]] std::uint64_t percentile(double p) const;
};

/// Histogram over fixed log2 buckets: bucket 0 holds the value 0, bucket i
/// (i >= 1) holds values in [2^(i-1), 2^i). 65 buckets cover all of uint64,
/// so `observe` is branch-light and allocation-free.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramTotals::kBuckets;

  Histogram() : slot_(detail::alloc_slots(kSlots)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records `v` as `n` observations (a sample standing in for `n` events:
  /// count and sum then estimate the totals of what was sampled).
  void observe(std::uint64_t v, std::uint64_t n = 1) {
    if (!enabled()) return;
    detail::Cell* c = detail::cells(slot_);
    detail::bump(c[bucket_of(v)], n);
    detail::bump(c[kSumSlot], v * n);
    detail::raise_max(max_, v);
    detail::lower_min(min_, v);
  }

  /// Every statistic from one fold. The single-statistic readers below each
  /// fold too; a report that needs several calls this once.
  [[nodiscard]] HistogramTotals totals() const;

  [[nodiscard]] std::uint64_t count() const { return totals().count; }
  [[nodiscard]] std::uint64_t sum() const { return totals().sum; }
  [[nodiscard]] std::uint64_t min() const { return totals().min; }
  [[nodiscard]] std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const { return totals().mean(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return totals().buckets[i]; }
  [[nodiscard]] std::uint64_t percentile(double p) const { return totals().percentile(p); }

  void reset();

  /// Index of the bucket holding `v`.
  static std::size_t bucket_of(std::uint64_t v) {
    return v == 0 ? 0 : static_cast<std::size_t>(64 - __builtin_clzll(v));
  }
  /// Largest value the bucket can hold (its inclusive upper edge).
  static std::uint64_t bucket_edge(std::size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return UINT64_MAX;
    return (1ull << i) - 1;
  }

 private:
  // The run of slots: the buckets, then the sum. The count is the buckets'
  // total, so an observation stores two cells.
  static constexpr std::uint32_t kSumSlot = kBuckets;
  static constexpr std::uint32_t kSlots = kBuckets + 1;

  std::uint32_t slot_;
  std::uint64_t base_[kSlots] = {};  ///< guarded by the cell pool's lock
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// A reader-side snapshot of registry values, used to compute deltas: one
/// snapshot per subscriber, so several observers (debug-server push streams,
/// the CLI `stats delta` verb) each see their own changed-keys view without
/// the registry keeping any per-reader state.
struct StatsSnapshot {
  std::unordered_map<std::string, std::uint64_t> counters;
  /// value, high-water.
  std::unordered_map<std::string, std::pair<std::int64_t, std::int64_t>> gauges;
  /// count, sum — enough to detect any observation (count moves) and most
  /// distribution shifts (sum moves) without storing all 65 buckets.
  std::unordered_map<std::string, std::pair<std::uint64_t, std::uint64_t>> histograms;
};

/// The registry: named instruments, lazily interned, stable addresses.
class Registry {
 public:
  /// The process-wide registry every built-in instrumentation point uses.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every instrument (names stay interned).
  void reset();

  /// Number of interned instruments (all kinds).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Sorted (name, instrument) views for reporting.
  [[nodiscard]] std::vector<std::pair<std::string, const Counter*>> counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Gauge*>> gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  /// Human-readable dump (the CLI `stats` command).
  [[nodiscard]] std::string to_text() const;
  /// One JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histogram entries carry count/sum/min/max plus p50/p90/p99 estimates
  /// from the log2 buckets — not the raw bucket array.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format (version 0.0.4). Instrument names are
  /// sanitized (non-[a-zA-Z0-9_] -> '_') and prefixed `dfdbg_`: counters as
  /// `counter`, gauges as `gauge` (high-water as a second `<name>_max`
  /// series), histograms as `summary` with p50/p90/p99 quantile labels plus
  /// `_sum`/`_count` series, matching to_json()'s estimates.
  [[nodiscard]] std::string to_prometheus() const;

  /// Changed-keys delta against `prev`, in to_json()'s shape but holding
  /// only instruments whose value moved since the snapshot (counters by
  /// value, gauges by value/high-water, histograms by count/sum — emitted
  /// with the same percentile estimates as to_json()). Updates `prev` to
  /// the current values and stores the changed-key count in `*changed`
  /// (optional). An unchanged registry yields {"counters":{},"gauges":{},
  /// "histograms":{}} and *changed == 0.
  std::string snapshot_delta(StatsSnapshot& prev, std::size_t* changed = nullptr) const;

 private:
  // Transparent hash/equal: interning an already-known name from a
  // string_view never allocates (same idiom as sim::InstrumentPort).
  using NameIndex =
      std::unordered_map<std::string, std::size_t, TransparentStringHash, std::equal_to<>>;

  template <typename T>
  T& intern(std::deque<std::pair<std::string, T>>& store, NameIndex& index,
            std::string_view name);

  // Guards the intern tables (parallel-backend workers may intern a cold
  // name concurrently). Instrument mutation itself is lock-free.
  mutable std::mutex mu_;
  // std::deque: references returned by intern() must survive growth.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
  NameIndex counter_index_;
  NameIndex gauge_index_;
  NameIndex histogram_index_;
};

/// RAII wall-clock timer: observes elapsed nanoseconds into a histogram.
/// Reads the clock only while metrics are enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) : h_(h) {
    if (enabled()) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!enabled()) return;
    auto dt = std::chrono::steady_clock::now() - t0_;
    h_.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& h_;
  std::chrono::steady_clock::time_point t0_{};
};

/// RAII delta sampler over an arbitrary monotonic clock — used with
/// `sim::Kernel::now()` to key timers to *simulated* time:
///   obs::ScopedDelta cycles(hist, [&] { return kernel.now(); });
template <typename NowFn>
class ScopedDelta {
 public:
  ScopedDelta(Histogram& h, NowFn now) : h_(h), now_(now) {
    if (enabled()) t0_ = now_();
  }
  ~ScopedDelta() {
    if (enabled()) h_.observe(now_() - t0_);
  }
  ScopedDelta(const ScopedDelta&) = delete;
  ScopedDelta& operator=(const ScopedDelta&) = delete;

 private:
  Histogram& h_;
  NowFn now_;
  std::uint64_t t0_ = 0;
};

}  // namespace dfdbg::obs
