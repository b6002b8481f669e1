// Token provenance flight recorder: an always-on causal event journal.
//
// A fixed-capacity ring of typed events — token push/pop, actor fire
// begin/end, scheduler dispatch, catchpoint hit, debugger alterations —
// each stamped with simulated time, link, actor/process and a monotonically
// assigned *token id* threaded through `pedf::Link::push_raw/pop_raw`. The
// journal closes the gap between the aggregate metrics registry (how many
// tokens?) and the offline TraceCollector window (what happened when?): it
// records *which token* moved where, so the debugger can answer causal
// questions (`whence`, flow-event arrows in the Chrome-trace export)
// without retaining unbounded history.
//
// Cost model, same contract as the metrics registry:
//   - `obs::enabled()` off (the default): `record()` is one predictable
//     branch; call sites gate their event construction on the same
//     `recording_now()` check, so the framework pays nothing.
//   - on: a record is one 48-byte store into the ring and a bump of the
//     write position, with one compare for the wrap. Nothing is counted on
//     the way: the journal's monotonic totals of records and evictions follow
//     from its write position and lap count, and the registry folds them
//     into `journal.recorded` / `journal.dropped` when it is read (see
//     `obs::CounterShare`).
//   - memory is bounded always: the ring overwrites its oldest event and
//     counts the drops, the paper's recording caveat ("may require a
//     significant quantity of memory") answered the same way as
//     `iface ... record bounded`. The ring's storage is reserved at the first
//     record and its pages are touched only as events arrive.
//   - token ids are allocated even while disabled — a single counter
//     increment — so provenance stays stable across observers attaching
//     mid-run, and a `reset()` restarts the sequence for replay-identical
//     executions.
//
// Actor/process names are interned into the journal (stable u32 ids), so an
// event is a fixed-size 48-byte POD. Interning takes a mutex and hashes the
// name, so it happens once per entity, off the event path: the framework
// interns every actor path when the application is elaborated and every
// process name at spawn (into the journal the kernel captured, see
// `sim::Kernel::journal()`), and each record reads the id its entity carries.
//
// Parallel backend: each worker thread owns a journal *shard* — a private
// buffer it records into race-free — installed as that thread's
// `Journal::global()` via set_thread_journal(). Shards allocate token ids
// from a disjoint per-partition uid space (single-partition kernels delegate
// to the parent so ids stay byte-identical to the sequential backends), and
// the kernel merges every shard into the process-wide journal at each
// barrier in partition order, which makes the merged stream deterministic
// for a fixed partition map.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "dfdbg/common/json.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/metrics.hpp"

namespace dfdbg::obs {

/// Event type of one journal record.
enum class JournalKind : std::uint8_t {
  kTokenPush,    ///< a producer pushed a token on a link
  kTokenPop,     ///< a consumer popped a token from a link
  kFireBegin,    ///< an actor entered its WORK method
  kFireEnd,      ///< an actor left its WORK method
  kDispatch,     ///< the scheduler resumed a process
  kCatchpoint,   ///< a debugger stop event triggered
  kTokenInject,  ///< debugger alteration: token inserted
  kTokenRemove,  ///< debugger alteration: queued token deleted
  kTokenReplace, ///< debugger alteration: queued token overwritten
};

const char* to_string(JournalKind k);

/// One fixed-size journal record. Field use by kind:
///   kTokenPush/kTokenInject: link, actor (producer), token, index (push
///     index), firing (producer firing sequence number)
///   kTokenPop: link, actor (consumer), token, index (pop index), firing
///   kFireBegin/kFireEnd: actor, firing, index (controller step)
///   kDispatch: actor (process name), index (activation count)
///   kCatchpoint: actor (stop's actor), index (breakpoint id)
///   kTokenRemove/kTokenReplace: link, token, index (queue slot)
struct JournalEvent {
  std::uint64_t time = 0;             ///< simulated cycles
  std::uint64_t token = 0;            ///< token id (0 = none)
  std::uint64_t index = 0;            ///< kind-specific ordinal
  std::uint64_t firing = 0;           ///< actor firing sequence (0 = n/a)
  std::uint32_t link = UINT32_MAX;    ///< link id (UINT32_MAX = none)
  std::uint32_t actor = UINT32_MAX;   ///< interned name id (UINT32_MAX = none)
  JournalKind kind = JournalKind::kTokenPush;
};

/// The process-wide flight recorder.
class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 17;

  /// The journal the calling thread records into: the thread's installed
  /// shard (parallel-backend workers) or the process-wide journal.
  static Journal& global();

  /// The process-wide journal, ignoring any thread-local shard override —
  /// what readers (CLI, server, debugger) consume after shard merges.
  static Journal& global_base();

  /// Installs `j` as the calling thread's Journal::global() (nullptr
  /// restores the process-wide journal). The kernel's parallel workers
  /// install their shard at thread start.
  static void set_thread_journal(Journal* j);

  explicit Journal(std::size_t capacity = kDefaultCapacity);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Turns this journal into a shard of `parent`: intern ids come from the
  /// parent (so merged events resolve names identically), the recording gate
  /// follows the parent, and token ids are drawn from the disjoint range
  /// starting at `uid_base` — except uid_base 0, which delegates allocation
  /// to the parent (single-partition kernels: ids match sequential runs).
  void configure_shard(Journal* parent, std::uint64_t uid_base) {
    parent_ = parent;
    uid_base_ = uid_base;
    gate_ = &parent->recording_;
  }

  /// Moves every retained event of `shard` into this journal, oldest first,
  /// preserving record order and accumulating the shard's drop count; the
  /// shard buffer is left empty. Registry counters are not re-counted (the
  /// shard counted them at record time).
  void merge_from(Journal& shard);

  /// Recording gate below the process-wide `obs::enabled()` flag: lets an
  /// observer keep metrics on while silencing the journal (the overhead
  /// benchmark measures exactly this split). Default on. Shards follow
  /// their parent's gate.
  [[nodiscard]] bool recording() const { return gate_->load(std::memory_order_relaxed); }
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }

  /// The one gate of a record: `obs::enabled()` and recording().
  [[nodiscard]] bool recording_now() const { return enabled() && recording(); }

  /// Replaces the ring with an empty one of `cap` events (>= 1). Retained
  /// events and the drop count are discarded; interned names and the token
  /// id sequence survive.
  void set_capacity(std::size_t cap);

  /// Drops retained events and the drop count; names and token ids survive.
  void clear();

  /// clear() plus a restart of the token id sequence — two runs separated
  /// by reset() assign identical token ids (deterministic kernel), which is
  /// what makes `whence` output replay-comparable.
  void reset();

  /// Allocates the next token id (1-based; 0 means "no token"). NOT gated
  /// on obs::enabled(): ids must stay monotonic across observer attach/
  /// detach so every token carries provenance from birth. Shards with a
  /// non-zero uid base allocate from their own range; shards with base 0
  /// delegate to the parent.
  std::uint64_t alloc_token() {
    if (parent_ != nullptr && uid_base_ == 0) return parent_->alloc_token();
    return uid_base_ + last_token_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Allocates `n` consecutive token ids, returning the first. Identical to
  /// n alloc_token() calls — the batch link fast path uses this so batched
  /// and token-at-a-time runs assign the same provenance ids.
  std::uint64_t alloc_tokens(std::uint64_t n) {
    if (parent_ != nullptr && uid_base_ == 0) return parent_->alloc_tokens(n);
    return uid_base_ + last_token_.fetch_add(n, std::memory_order_relaxed) + 1;
  }
  [[nodiscard]] std::uint64_t last_token() const {
    return last_token_.load(std::memory_order_relaxed);
  }

  /// Appends one event; overwrites the oldest when full. No-op unless
  /// recording_now().
  void record(const JournalEvent& ev) {
    if (recording_now()) append(ev);
  }

  /// record() for a caller that has just checked recording_now() itself (the
  /// framework's hot paths, which build the event only behind that gate).
  void append(const JournalEvent& ev) {
    JournalEvent* slot = next_.load(std::memory_order_relaxed);
    if (slot == end_) [[unlikely]] slot = next_lap();
    std::construct_at(slot, ev);
    next_.store(slot + 1, std::memory_order_relaxed);
  }

  // --- window access (oldest first) ----------------------------------------

  [[nodiscard]] std::size_t size() const {
    const std::uint64_t n = total_recorded();
    return n < cap_ ? static_cast<std::size_t>(n) : cap_;
  }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] const JournalEvent& at(std::size_t i) const;
  /// Events ever recorded into the current window (including evicted).
  [[nodiscard]] std::uint64_t total_recorded() const {
    const JournalEvent* next = next_.load(std::memory_order_relaxed);
    return laps_ * cap_ + static_cast<std::uint64_t>(next - slots_);
  }
  /// Events evicted from the current window.
  [[nodiscard]] std::uint64_t dropped() const { return evicted() + window_shard_drops_; }

  // --- cursors: resumable tailing over the ring ------------------------------
  // Every event carries an implicit absolute sequence number: the i-th event
  // ever recorded into the current window has sequence i (clear()/
  // set_capacity() restart the sequence with the window). A *cursor* is the
  // sequence number of the next unread event, so `cursor() - reader_cursor`
  // is the reader's lag and readers resume across reads without the journal
  // keeping any per-reader state. When the ring laps a slow reader, the
  // lapped events are unrecoverable; reads report that as a `gap`.

  /// One read from a cursor: how far the cursor advanced and what was lost.
  struct Slice {
    std::uint64_t next = 0;   ///< cursor to resume from
    std::uint64_t gap = 0;    ///< events lost between the cursor and the window
    std::size_t count = 0;    ///< events delivered by this read
  };

  /// The cursor one past the newest recorded event (== total_recorded()).
  [[nodiscard]] std::uint64_t cursor() const { return total_recorded(); }

  /// Visits up to `max_n` retained events starting at absolute sequence
  /// `from`, oldest first. If the ring has already evicted part of that
  /// range, the visit starts at the oldest retained event and the skipped
  /// span is returned as `gap`.
  Slice read_from(std::uint64_t from, std::size_t max_n,
                  const std::function<void(const JournalEvent&)>& fn) const;

  // --- name interning --------------------------------------------------------

  /// Interns `name`, returning its stable id. Re-interning a known name
  /// never allocates (heterogeneous lookup), but every call takes a lock and
  /// hashes the name: call it once per entity and keep the id, never per
  /// record.
  std::uint32_t intern_name(std::string_view name);
  /// Name for an interned id ("?" for UINT32_MAX / unknown ids).
  [[nodiscard]] const std::string& name(std::uint32_t id) const;
  /// Number of interned names (a shard reports its parent's).
  [[nodiscard]] std::size_t name_count() const;

  // --- reporting -------------------------------------------------------------

  /// Resolves a link id to a display name (the journal itself only knows
  /// numeric link ids; the CLI supplies the application's names).
  using LinkNamer = std::function<std::string(std::uint32_t)>;

  /// Human-readable status: capacity, recorded/retained/dropped, per-kind
  /// tallies, token ids allocated.
  [[nodiscard]] std::string summary() const;

  /// One event as one transcript line (no trailing newline).
  [[nodiscard]] std::string format_event(const JournalEvent& ev,
                                         const LinkNamer& link_name = nullptr) const;

  /// The newest `n` retained events, oldest first, one line each.
  [[nodiscard]] std::string format_last(std::size_t n,
                                        const LinkNamer& link_name = nullptr) const;

  /// The retained window as one JSON document through the shared encoder
  /// (dfdbg/common/json.hpp): window counters plus an `events` array, oldest
  /// first. The raw-event twin of the Chrome-trace export — used by the CLI
  /// `journal dump <file> --json` and the debug server's `journal` verb.
  void write_json(JsonWriter& w, const LinkNamer& link_name = nullptr) const;

  /// One event as one JSON object (the element schema of write_json's
  /// `events` array and of the server's `journal.delta` notifications).
  void write_event_json(JsonWriter& w, const JournalEvent& ev,
                        const LinkNamer& link_name = nullptr) const;

  /// A cursor read as one JSON object:
  ///   {"from":F,"next":N,"gap":G,"events":[...]}
  /// where F is the effective start (the request clamped into the window),
  /// G counts the events the ring already evicted between the requested
  /// cursor and F, and `events` holds at most `max_n` objects in
  /// write_event_json schema. This is the NDJSON delta payload the debug
  /// server pushes to `subscribe journal` clients and the CLI `journal tail`
  /// prints; both resume from the returned Slice::next.
  Slice write_delta_json(JsonWriter& w, std::uint64_t from, std::size_t max_n,
                         const LinkNamer& link_name = nullptr) const;

 private:
  /// journal.recorded or journal.dropped: one of the journal's totals.
  class Share final : public CounterShare {
   public:
    Share(const Journal& j, std::uint64_t (Journal::*total)() const) : j_(j), total_(total) {}
    ~Share() { retire(); }
    using CounterShare::retire;

   private:
    [[nodiscard]] std::uint64_t share() const override { return (j_.*total_)(); }
    const Journal& j_;
    std::uint64_t (Journal::*total_)() const;
  };

  /// Cold side of append(): reserves the ring at the first record of a window
  /// (attaching the totals to the registry at the journal's first), or starts
  /// the next lap at the end of one. Returns the slot to write.
  JournalEvent* next_lap();
  /// Starts an empty window of `cap` slots, keeping the storage or releasing
  /// it (`keep_storage` requires an unchanged capacity).
  void restart_window(bool keep_storage, std::size_t cap);
  /// Events the current window's ring has overwritten.
  [[nodiscard]] std::uint64_t evicted() const {
    const std::uint64_t n = total_recorded();
    return n > cap_ ? n - cap_ : 0;
  }
  // The totals the registry folds, over every window (under lock_folds()).
  [[nodiscard]] std::uint64_t recorded_total() const {
    return recorded_before_ + total_recorded() - window_merged_;
  }
  [[nodiscard]] std::uint64_t dropped_total() const {
    return dropped_before_ + evicted() - uncounted_drops_;
  }

  // The ring: cap_ slots, reserved at the first record of a window; next_ is
  // the slot the next append writes and end_ one past the last, so an append
  // compares two pointers and stores one event (both null until the ring is
  // reserved). laps_ counts the wraps of the write position: once it is
  // non-zero, the slot written next holds the oldest event, evicted. The
  // window's event count is laps_ * cap_ plus the write offset. Everything a
  // total reads changes under lock_folds(), except next_ within a lap.
  std::size_t cap_;
  JournalEvent* slots_ = nullptr;
  std::atomic<JournalEvent*> next_{nullptr};
  JournalEvent* end_ = nullptr;
  std::uint64_t laps_ = 0;
  std::uint64_t window_merged_ = 0;      ///< shard events merged into the window
  std::uint64_t window_shard_drops_ = 0; ///< events the merged shards had evicted
  std::uint64_t recorded_before_ = 0;    ///< records of the windows before this one
  std::uint64_t dropped_before_ = 0;     ///< evictions of the windows before this one
  std::uint64_t uncounted_drops_ = 0;    ///< merge evictions while obs was off
  std::atomic<bool> recording_{true};
  const std::atomic<bool>* gate_ = &recording_;  ///< a shard's is its parent's
  std::atomic<std::uint64_t> last_token_{0};
  Journal* parent_ = nullptr;     ///< set on shards: intern/gate delegate here
  std::uint64_t uid_base_ = 0;    ///< shard token-id range start (0 = delegate)
  std::uint64_t tokens_reported_ = 0;  ///< shard allocs already merged to base
  // Guards the intern table: parallel workers intern concurrently through
  // their shard (which forwards here). std::deque: name() returns stable
  // references across growth, so the returned ref outlives the lock.
  mutable std::mutex names_mu_;
  std::deque<std::string> names_;
  std::unordered_map<std::string, std::uint32_t, TransparentStringHash, std::equal_to<>>
      name_index_;
  // Last, so they retire while the state they read is still there.
  Share recorded_share_{*this, &Journal::recorded_total};
  Share dropped_share_{*this, &Journal::dropped_total};
};

}  // namespace dfdbg::obs
