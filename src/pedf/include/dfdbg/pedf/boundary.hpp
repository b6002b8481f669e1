// Cross-partition token transport for the parallel simulation backend.
//
// A Link whose producer and consumer live in different partitions cannot be
// mutated from both sides: all link state (ring, indexes, events) belongs to
// the *consumer's* partition. Instead the producer enqueues {value, uid}
// pairs into a BoundaryChannel, a ring indexed by two monotonic counters:
// `sent_`, advanced by the producing worker as it sends during a round, and
// `delivered_`, advanced by the coordinator as it drains the channel into the
// link at the barrier that ends every round. The two sides never run at once
// (the coordinator drains only while every worker is parked), and the round
// handshake's mutex orders each side's writes before the other's reads, so
// both counters are plain fields.
//
// The drain delivers every pending token the link has room for, in channel
// order, then wakes the consumer and any producer blocked on a full channel.
// What a drain delivers depends only on the channel and link contents at the
// barrier, never on worker timing, and per-link FIFO order — the
// Kahn-network property every determinism argument rests on — holds by
// construction (docs/KERNEL.md, "Boundary channels and the barrier
// protocol").
//
// Slot safety: the producer writes slots in [sent_, delivered_ + capacity)
// and the coordinator reads slots in [delivered_, sent_); the physical ring
// holds >= capacity slots, so the two ranges never alias modulo its size.
//
// Provenance: the producer allocates the token uid from its own shard
// journal (disjoint per-partition id ranges) and records the kTokenPush
// journal event at send time, in its own shard; delivery adds no journal
// traffic. The producer-side send index equals the link's eventual push
// index (every push to a boundary link goes through its channel), so
// journal streams stay per-link identical to a sequential run.
#pragma once

#include <cstdint>
#include <vector>

#include "dfdbg/pedf/value.hpp"
#include "dfdbg/sim/event.hpp"

namespace dfdbg::sim {
class Kernel;
}  // namespace dfdbg::sim

namespace dfdbg::pedf {

class Link;

/// The producer-side ring of one partition-crossing link. Owned by the
/// Application; wired into the link via Link::set_outbox at start().
class BoundaryChannel {
 public:
  /// Channel capacity used when the link itself is unbounded.
  static constexpr std::size_t kDefaultSlots = 1024;

  BoundaryChannel(Link& link, std::size_t capacity);

  BoundaryChannel(const BoundaryChannel&) = delete;
  BoundaryChannel& operator=(const BoundaryChannel&) = delete;

  [[nodiscard]] Link& link() const { return *link_; }
  /// Logical bound on in-flight tokens (the link's capacity when it has one,
  /// kDefaultSlots otherwise).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Physical ring slots (next power of two >= capacity; for tests).
  [[nodiscard]] std::size_t slot_count() const { return ring_.size(); }
  /// Tokens enqueued and not yet delivered.
  [[nodiscard]] std::size_t pending() const { return static_cast<std::size_t>(sent_ - delivered_); }
  /// Producer-side: `capacity()` tokens await delivery.
  [[nodiscard]] bool full() const { return sent_ - delivered_ >= capacity_; }
  /// Tokens ever accepted == the producer-side push index sequence.
  [[nodiscard]] std::uint64_t sent() const { return sent_; }

  /// Producer worker: enqueues one token. Precondition: !full().
  /// Returns the token's producer-side index (== its eventual push index).
  std::uint64_t send(Value v, std::uint64_t uid);

  /// Producers blocked on a full channel wait here; the drain that frees
  /// slots notifies it. Bound to the producer's partition.
  [[nodiscard]] sim::Event& space_avail() { return space_event_; }

  /// Coordinator, at the barrier: delivers every pending token the link has
  /// room for, in channel order, then wakes the link's consumer and a
  /// producer blocked on space. Returns true when any token moved.
  bool drain(sim::Kernel& kernel);

 private:
  struct Slot {
    Value value;
    std::uint64_t uid = 0;
  };

  Link* link_;
  std::size_t capacity_;
  std::uint64_t mask_;
  std::vector<Slot> ring_;
  std::uint64_t sent_ = 0;       ///< producer-written, during rounds
  std::uint64_t delivered_ = 0;  ///< coordinator-written, at barriers
  sim::Event space_event_;
};

}  // namespace dfdbg::pedf
