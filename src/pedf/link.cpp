#include "dfdbg/pedf/link.hpp"

#include "dfdbg/common/assert.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"

namespace dfdbg::pedf {

/// FIFO instruments, aggregated across every link of every application.
/// Per-link high watermarks stay on the Link itself (high_watermark()).
struct Link::ObsMetrics {
  obs::Counter& pushes;
  obs::Counter& pops;
  obs::Histogram& occupancy;
  obs::Gauge& occupancy_hwm;
};

namespace {
constexpr std::size_t kInitialSlots = 8;
}  // namespace

const Link::ObsMetrics& Link::obs_metrics() {
  if (obs_m_ == nullptr) [[unlikely]] {
    auto& r = obs::Registry::global();
    static const ObsMetrics m{r.counter("link.push"), r.counter("link.pop"),
                              r.histogram("link.occupancy"), r.gauge("link.occupancy_hwm")};
    obs_m_ = &m;
    obs_pushes_.attach(m.pushes);
    obs_pops_.attach(m.pops);
  }
  return *obs_m_;
}

void Link::obs_pushed(std::size_t n) {
  const ObsMetrics& m = obs_metrics();
  obs_pushes_.add(n);
  m.occupancy.observe(count_);
  m.occupancy_hwm.set(static_cast<std::int64_t>(count_));
}

void Link::obs_popped(std::size_t n) {
  obs_metrics();
  obs_pops_.add(n);
}

const char* to_string(LinkTransport t) {
  switch (t) {
    case LinkTransport::kLocal: return "L1";
    case LinkTransport::kInterCluster: return "L2";
    case LinkTransport::kHostDma: return "DMA";
  }
  return "?";
}

void Link::reserve_slots(std::size_t needed) {
  if (ring_.size() - count_ >= needed) return;
  std::size_t want = count_ + needed;
  std::size_t nsize = ring_.empty() ? kInitialSlots : ring_.size();
  while (nsize < want) nsize *= 2;
  std::vector<Slot> next(nsize);
  for (std::size_t i = 0; i < count_; ++i) next[i] = std::move(ring_[(head_ + i) & mask_]);
  ring_ = std::move(next);
  mask_ = nsize - 1;
  head_ = 0;
  dcheck_slots();
}

void Link::push_delivered(Value v, std::uint64_t uid) {
  DFDBG_CHECK_MSG(!full(), "delivery on full link " + name_);
  reserve_slots(1);
  Slot& s = ring_[(head_ + count_) & mask_];
  s.value = std::move(v);
  s.uid = uid;
  last_pushed_uid_ = uid;
  ++count_;
  dcheck_slots();
  if (count_ > high_watermark_) high_watermark_ = count_;
  if (obs::enabled()) obs_pushed(1);
  push_index_++;
}

std::uint64_t Link::push_raw(Value v) {
  DFDBG_CHECK_MSG(!full(), "push on full link " + name_);
  reserve_slots(1);
  Slot& s = ring_[(head_ + count_) & mask_];
  s.value = std::move(v);
  last_pushed_uid_ = obs::Journal::global().alloc_token();
  s.uid = last_pushed_uid_;
  ++count_;
  dcheck_slots();
  if (count_ > high_watermark_) high_watermark_ = count_;
  if (obs::enabled()) obs_pushed(1);
  return push_index_++;
}

std::uint64_t Link::push_raw_n(const Value* vs, std::size_t n) {
  if (n == 1) return push_raw(Value(vs[0]));
  DFDBG_CHECK_MSG(capacity_ - count_ >= n, "batch push overflows link " + name_);
  reserve_slots(n);
  // One range allocation gives the same ids as n sequential alloc_token
  // calls, so batch and token-at-a-time runs stay provenance-identical.
  std::uint64_t uid = obs::Journal::global().alloc_tokens(n);
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = ring_[(head_ + count_ + i) & mask_];
    s.value = vs[i];
    s.uid = uid + i;
  }
  last_pushed_uid_ = uid + n - 1;
  count_ += n;
  dcheck_slots();
  if (count_ > high_watermark_) high_watermark_ = count_;
  if (obs::enabled()) obs_pushed(n);
  std::uint64_t first = push_index_;
  push_index_ += n;
  return first;
}

Value Link::pop_raw() {
  DFDBG_CHECK_MSG(count_ != 0, "pop on empty link " + name_);
  Slot& s = ring_[head_];
  Value v = std::move(s.value);
  last_popped_uid_ = s.uid;
  head_ = (head_ + 1) & mask_;
  --count_;
  dcheck_slots();
  pop_index_++;
  if (obs::enabled()) obs_popped(1);
  return v;
}

void Link::pop_raw_n(Value* out, std::size_t n) {
  DFDBG_CHECK_MSG(n <= count_, "batch pop underflows link " + name_);
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = ring_[(head_ + i) & mask_];
    out[i] = std::move(s.value);
  }
  if (n != 0) last_popped_uid_ = ring_[(head_ + n - 1) & mask_].uid;
  head_ = (head_ + n) & mask_;
  count_ -= n;
  dcheck_slots();
  pop_index_ += n;
  if (obs::enabled()) obs_popped(n);
}

void Link::poke(std::size_t i, Value v) {
  DFDBG_CHECK(i < count_);
  ring_[(head_ + i) & mask_].value = std::move(v);
}

Value Link::erase_at(std::size_t i) {
  DFDBG_CHECK(i < count_);
  Value v = std::move(ring_[(head_ + i) & mask_].value);
  // Close the gap by shifting the shorter side; both directions preserve
  // FIFO order of the surviving slots (and their uids, which ride along).
  if (i < count_ - i - 1) {
    for (std::size_t j = i; j > 0; --j)
      ring_[(head_ + j) & mask_] = std::move(ring_[(head_ + j - 1) & mask_]);
    head_ = (head_ + 1) & mask_;
  } else {
    for (std::size_t j = i; j + 1 < count_; ++j)
      ring_[(head_ + j) & mask_] = std::move(ring_[(head_ + j + 1) & mask_]);
  }
  --count_;
  dcheck_slots();
  // Removing a token does not rewind the monotonic indexes; it simply never
  // reaches the consumer. pop_index_ stays, push_index_ stays.
  return v;
}

}  // namespace dfdbg::pedf
