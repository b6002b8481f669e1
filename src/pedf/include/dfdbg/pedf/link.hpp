// A data-dependency link: the FIFO arc materializing one graph edge.
//
// Dynamic dataflow: rates are unconstrained, so links are unbounded by
// default; a capacity can be set to study over/underflow (the paper's §VI-D
// stall scenario). Push and pop indexes are monotonic counters — the paper's
// Contribution #3 intercepts exactly these indexes to follow tokens.
//
// Storage is a single contiguous power-of-two ring of {Value, uid} slots: a
// token and its provenance id share one slot (and, for inline payloads, one
// cache line), so the value/uid desync hazard of the former parallel deques
// is gone by construction, peek/token_uid_at are O(1) pointer math, and the
// steady state allocates nothing (the ring grows amortized-doubling, only
// while a link's high watermark is still rising).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfdbg/common/ids.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/pedf/value.hpp"
#include "dfdbg/sim/event.hpp"

namespace dfdbg::pedf {

class BoundaryChannel;
class Port;

struct LinkIdTag {};
/// Dense id of a link within one application.
using LinkId = dfdbg::Id<LinkIdTag>;

/// How a link is physically carried on the platform (paper Fig. 4 legend:
/// plain data links, control links, DMA-assisted control links).
enum class LinkTransport : std::uint8_t { kLocal, kInterCluster, kHostDma };

/// Short name for a LinkTransport ("L1", "L2", "DMA").
const char* to_string(LinkTransport t);

/// FIFO arc between one producer port and one consumer port.
/// Raw container only: blocking, latency modelling and instrumentation live
/// in the Application shims (pedf__link_push / pedf__link_pop) so the
/// framework API surface matches what the paper's debugger breakpoints.
class Link {
 public:
  Link(LinkId id, std::string name, TypeDesc type, Port* src, Port* dst)
      : id_(id), name_(std::move(name)), type_(type), src_(src), dst_(dst),
        data_avail_("link-data:" + name_), space_avail_("link-space:" + name_) {}

  [[nodiscard]] LinkId id() const { return id_; }
  /// "ipred::Add2Dblock_ipf_out -> ipf::Add2Dblock_ipred_in"
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const TypeDesc& type() const { return type_; }
  [[nodiscard]] Port* src() const { return src_; }
  [[nodiscard]] Port* dst() const { return dst_; }

  /// Tokens currently held (push_index - pop_index).
  [[nodiscard]] std::size_t occupancy() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ >= capacity_; }

  /// Monotonic counter of tokens ever pushed.
  [[nodiscard]] std::uint64_t push_index() const { return push_index_; }
  /// Monotonic counter of tokens ever popped.
  [[nodiscard]] std::uint64_t pop_index() const { return pop_index_; }

  /// Maximum occupancy ever reached (stall diagnosis).
  [[nodiscard]] std::size_t high_watermark() const { return high_watermark_; }

  /// Bounded capacity; defaults to "unbounded" (SIZE_MAX).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t cap) { capacity_ = cap; }

  /// Physical ring slots currently allocated (power of two; for tests).
  [[nodiscard]] std::size_t slot_count() const { return ring_.size(); }

  [[nodiscard]] LinkTransport transport() const { return transport_; }
  void set_transport(LinkTransport t) { transport_ = t; }

  // Token provenance ids: every pushed token is assigned the next id from
  // the process-wide sequence (obs::Journal::alloc_token) and carries it
  // through its ring slot — including across debugger erase/replace, where
  // the monotonic push/pop indexes alone lose the slot<->token mapping. The
  // always-on cost is one counter increment plus one u64 store per token;
  // ids are deterministic because the kernel is.

  /// Provenance id assigned by the most recent push (0 before any push).
  [[nodiscard]] std::uint64_t last_pushed_uid() const { return last_pushed_uid_; }
  /// Provenance id of the most recently popped token (0 before any pop).
  [[nodiscard]] std::uint64_t last_popped_uid() const { return last_popped_uid_; }
  /// Provenance id of queued token `i` (0 = oldest).
  [[nodiscard]] std::uint64_t token_uid_at(std::size_t i) const {
    DFDBG_CHECK(i < count_);
    return ring_[(head_ + i) & mask_].uid;
  }

  /// Parallel backend: the producer-side transport when this link crosses a
  /// partition boundary (nullptr otherwise — including on every sequential
  /// backend). Owned by the Application; see boundary.hpp.
  [[nodiscard]] BoundaryChannel* outbox() const { return outbox_; }
  void set_outbox(BoundaryChannel* ch) { outbox_ = ch; }

  /// Appends a token that already carries a provenance id (the boundary
  /// delivery path: the producing partition allocated the uid at send time).
  /// Identical bookkeeping to push_raw except no id is allocated.
  /// Precondition: !full().
  void push_delivered(Value v, std::uint64_t uid);

  /// Appends a value; returns its push index. Precondition: !full().
  std::uint64_t push_raw(Value v);
  /// Appends `n` values (batch fast path: one capacity check, one uid-range
  /// allocation, one metrics update). Returns the push index of `vs[0]`.
  /// Precondition: occupancy() + n <= capacity().
  std::uint64_t push_raw_n(const Value* vs, std::size_t n);
  /// Removes the oldest value; returns it. Precondition: !empty().
  Value pop_raw();
  /// Removes the `n` oldest values into `out[0..n)` (batch fast path).
  /// Precondition: n <= occupancy().
  void pop_raw_n(Value* out, std::size_t n);
  /// Reads queued value `i` (0 = oldest) without consuming it.
  [[nodiscard]] const Value& peek(std::size_t i) const {
    DFDBG_CHECK(i < count_);
    return ring_[(head_ + i) & mask_].value;
  }
  /// Overwrites queued value `i` (debugger alteration). The slot keeps its
  /// token uid: an altered token keeps its identity.
  void poke(std::size_t i, Value v);
  /// Removes queued value `i` (debugger alteration); returns it.
  Value erase_at(std::size_t i);

  /// Wakeup channel for consumers blocked on empty.
  [[nodiscard]] sim::Event& data_avail() { return data_avail_; }
  /// Wakeup channel for producers blocked on full.
  [[nodiscard]] sim::Event& space_avail() { return space_avail_; }

 private:
  /// One queued token: payload and provenance id, adjacent in memory.
  struct Slot {
    Value value;
    std::uint64_t uid = 0;
  };

  /// Debug-build invariant check, the ring-era successor of the old "values
  /// and uids deques agree in size" assert: the logical count must fit the
  /// physical slots and the head index must be on the ring.
  void dcheck_slots() const {
    DFDBG_DCHECK(count_ <= ring_.size());
    DFDBG_DCHECK(ring_.empty() ? head_ == 0 : head_ < ring_.size());
    DFDBG_DCHECK((ring_.size() & mask_) == 0);  // size is 0 or a power of two
  }

  /// Ensures at least `needed` free physical slots, re-linearizing into a
  /// doubled ring when out of room.
  void reserve_slots(std::size_t needed);

  /// Registry instruments a link feeds (link.cpp).
  struct ObsMetrics;
  /// Obs bookkeeping of `n` tokens pushed (occupancy already updated) or
  /// popped. Callers gate on obs::enabled().
  void obs_pushed(std::size_t n);
  void obs_popped(std::size_t n);
  /// The instruments, resolved (and the tallies attached) on first use.
  const ObsMetrics& obs_metrics();

  [[nodiscard]] Slot& slot(std::size_t i) { return ring_[(head_ + i) & mask_]; }

  LinkId id_;
  std::string name_;
  TypeDesc type_;
  Port* src_;
  Port* dst_;
  std::vector<Slot> ring_;  ///< power-of-two physical storage
  std::size_t mask_ = 0;    ///< ring_.size() - 1 (0 while unallocated)
  std::size_t head_ = 0;    ///< physical index of the oldest token
  std::size_t count_ = 0;   ///< tokens queued
  std::uint64_t last_pushed_uid_ = 0;
  std::uint64_t last_popped_uid_ = 0;
  std::uint64_t push_index_ = 0;
  std::uint64_t pop_index_ = 0;
  std::size_t high_watermark_ = 0;
  std::size_t capacity_ = SIZE_MAX;
  LinkTransport transport_ = LinkTransport::kLocal;
  BoundaryChannel* outbox_ = nullptr;
  sim::Event data_avail_;
  sim::Event space_avail_;
  // Obs: the link tallies its own pushes and pops (its producer and consumer
  // write them, one at a time), folded into link.push / link.pop on read.
  const ObsMetrics* obs_m_ = nullptr;
  obs::Tally obs_pushes_;
  obs::Tally obs_pops_;
};

}  // namespace dfdbg::pedf
