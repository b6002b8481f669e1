// Fixed-capacity ring buffer used for bounded token recording and traces.
// When full, pushing evicts the oldest element (the recording semantics of
// the paper's `iface ... record` with a bounded policy). Storage for the full
// capacity is reserved on the first push and filled as elements arrive, so a
// large ring that is never written costs neither memory nor zero-filling.
#pragma once

#include <cstddef>
#include <vector>

#include "dfdbg/common/assert.hpp"

namespace dfdbg {

/// Bounded FIFO that overwrites its oldest element when full.
template <typename T>
class RingBuffer {
 public:
  /// Creates a ring holding at most `capacity` elements (capacity >= 1).
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    DFDBG_CHECK(capacity >= 1);
  }

  /// Appends `v`; evicts the oldest element if full. Returns true if an
  /// eviction happened.
  bool push(T v) {
    total_pushed_++;
    if (buf_.size() < capacity_) {
      // Still filling, so head_ is 0: append.
      if (buf_.capacity() == 0) buf_.reserve(capacity_);
      buf_.push_back(std::move(v));
      return false;
    }
    buf_[head_] = std::move(v);  // overwrite the oldest
    if (++head_ == capacity_) head_ = 0;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return buf_.empty(); }

  /// Number of elements ever pushed (including evicted ones).
  [[nodiscard]] std::uint64_t total_pushed() const { return total_pushed_; }

  /// Element `i` counted from the oldest retained element.
  const T& at(std::size_t i) const {
    DFDBG_CHECK(i < buf_.size());
    return buf_[(head_ + i) % capacity_];
  }

  /// Oldest retained element. Precondition: !empty().
  const T& front() const { return at(0); }
  /// Newest element. Precondition: !empty().
  const T& back() const { return at(buf_.size() - 1); }

  /// Drops every element but keeps the storage for refilling.
  void clear() {
    buf_.clear();
    head_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> buf_;  ///< grows to capacity_, then is overwritten in place
  std::size_t head_ = 0;  ///< index of the oldest element
  std::uint64_t total_pushed_ = 0;
};

}  // namespace dfdbg
