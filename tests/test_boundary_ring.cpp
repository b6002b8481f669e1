// Tests of the BoundaryChannel behind partition-crossing links: the
// producer's sends and the coordinator's barrier drain, ring wraparound far
// past the physical slot count, uid preservation end to end, and the logical
// capacity bound on a non-power-of-two ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>

#include "dfdbg/common/prng.hpp"
#include "dfdbg/pedf/boundary.hpp"
#include "dfdbg/pedf/link.hpp"
#include "dfdbg/pedf/value.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::pedf {
namespace {

Link make_link() { return Link(LinkId(0), "t", TypeDesc(ScalarType::kU32), nullptr, nullptr); }

// Randomized single-threaded model check, driven the way the kernel drives a
// channel: the producer sends until the channel is full, the coordinator
// drains at "barriers" as far as the link has room, and the consumer pops
// from the link. A shadow FIFO carries every (value, uid) pair; thousands of
// cycles over an 8-slot channel force many wraps of the physical ring.
TEST(BoundaryRing, RandomizedModelWraparoundFifoAndUids) {
  sim::Kernel k;
  Link l = make_link();
  l.set_capacity(4);
  BoundaryChannel ch(l, 8);
  EXPECT_EQ(ch.capacity(), 8u);
  EXPECT_EQ(ch.slot_count(), 8u) << "8 is already a power of two";

  Prng rng(0xB0DA);
  std::deque<std::pair<std::uint32_t, std::uint64_t>> shadow;  // in flight
  std::uint32_t next_val = 0;
  std::uint64_t next_uid = 1000;
  std::uint64_t sent = 0, popped = 0;

  for (int step = 0; step < 20000; ++step) {
    switch (rng.next_below(3)) {
      case 0: {  // producer: send unless capacity() tokens await delivery
        if (ch.full()) {
          EXPECT_EQ(ch.pending(), ch.capacity());
          break;
        }
        const std::uint32_t v = next_val++;
        const std::uint64_t uid = next_uid++;
        EXPECT_EQ(ch.send(Value::u32(v), uid), sent);
        shadow.emplace_back(v, uid);
        sent++;
        break;
      }
      case 1: {  // coordinator: the barrier drain fills the link's free room
        const std::size_t room = 4 - l.occupancy();
        const std::size_t before = ch.pending();
        const bool moved = ch.drain(k);
        const std::size_t want = before < room ? before : room;
        EXPECT_EQ(before - ch.pending(), want);
        EXPECT_EQ(moved, want != 0);
        break;
      }
      default: {  // consumer process: pop delivered tokens off the link
        if (l.empty()) break;
        ASSERT_FALSE(shadow.empty());
        const auto [v, uid] = shadow.front();
        shadow.pop_front();
        EXPECT_EQ(l.token_uid_at(0), uid);
        EXPECT_EQ(l.pop_raw().as_u64(), v);
        EXPECT_EQ(l.last_popped_uid(), uid);
        popped++;
        break;
      }
    }
    // Conservation: every token is exactly one of queued-in-channel,
    // delivered-into-link, or popped.
    EXPECT_EQ(ch.pending() + l.occupancy() + popped, sent);
    EXPECT_EQ(ch.sent(), sent);
  }
  // Drain the tail: everything still in flight comes out in order.
  ch.drain(k);
  while (!l.empty()) {
    ASSERT_FALSE(shadow.empty());
    const auto [v, uid] = shadow.front();
    shadow.pop_front();
    EXPECT_EQ(l.pop_raw().as_u64(), v);
    EXPECT_EQ(l.last_popped_uid(), uid);
    popped++;
    ch.drain(k);  // link room reopened: deliver the next batch
  }
  EXPECT_TRUE(shadow.empty());
  EXPECT_EQ(popped, sent);
  EXPECT_GT(sent, ch.slot_count() * 100) << "the ring must have wrapped many times";
}

// One drain delivers everything sent so far into an unbounded link and
// reports the movement; a second drain has nothing left to move.
TEST(BoundaryRing, DrainDeliversEverythingSent) {
  sim::Kernel k;
  Link l = make_link();
  BoundaryChannel ch(l, 8);
  for (std::uint32_t i = 0; i < 5; ++i) ch.send(Value::u32(i), 100 + i);
  EXPECT_TRUE(ch.drain(k));
  EXPECT_EQ(l.occupancy(), 5u);
  EXPECT_EQ(ch.pending(), 0u);
  EXPECT_FALSE(ch.drain(k)) << "a second drain has nothing to move";
}

// Channel capacity is decoupled from the physical ring: a non-power-of-two
// capacity rounds the slot count up while full() still honors the logical
// bound exactly.
TEST(BoundaryRing, NonPowerOfTwoCapacity) {
  sim::Kernel k;
  Link l = make_link();
  BoundaryChannel ch(l, 5);
  EXPECT_EQ(ch.capacity(), 5u);
  EXPECT_EQ(ch.slot_count(), 8u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(ch.full());
    ch.send(Value::u32(i), i);
  }
  EXPECT_TRUE(ch.full());
  EXPECT_TRUE(ch.drain(k));
  EXPECT_EQ(l.occupancy(), 5u);
  EXPECT_FALSE(ch.full());
}

}  // namespace
}  // namespace dfdbg::pedf
