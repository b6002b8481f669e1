// Order statistics for the benchmark's reports.
//
// The quartiles use the cut points of Python's statistics.quantiles(v, n=4)
// (its default 'exclusive' method), so the spreads the benchmark prints are
// the ones its acceptance check computes from repeated runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Median; the mean of the two middle values for an even count. 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(v, n=4): with m = n + 1, cut i (1..3) interpolates
/// between the sorted values at 1-based ranks floor(i*m/4) and the next one.
/// A single sample is its own quartiles; an empty one gives zeros.
inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const auto ld = static_cast<long long>(v.size());
  const long long m = ld + 1;
  double cut[3];
  for (long long i = 1; i <= 3; ++i) {
    // Clamp the rank to 1..n-1 first and take delta from the clamped rank,
    // as the Python code does: tiny samples extrapolate past the ends.
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = cut[0];
  q.q2 = cut[1];
  q.q3 = cut[2];
  return q;
}

/// (q3 - q1) / median, the run-to-run spread the benchmark's bounds are
/// judged against. 0 when the median is 0.
inline double relative_iqr(const std::vector<double>& v) {
  const double med = median(v);
  if (med == 0.0) return 0.0;
  const Quartiles q = quartiles(v);
  return (q.q3 - q.q1) / std::fabs(med);
}

/// A tail latency as the benchmark reports it: the highest percentile, at
/// most `cap`, that still has at least ten samples beyond it.
struct Tail {
  double value = 0.0;       ///< the sample at that rank
  double percentile = 0.0;  ///< the percentile actually reported (<= cap)
  std::size_t count = 0;    ///< sample count
  bool available = false;   ///< false with ten samples or fewer
};

/// Nearest-rank percentile: rank r = ceil(p/100 * n) leaves n - r samples
/// beyond it, so r is capped at n - 10. p99 therefore needs n >= 1000; a
/// smaller sample reports the percentile 100 * r / n it can support.
inline Tail tail(std::vector<double> v, double cap = 99.0) {
  Tail t;
  t.count = v.size();
  const std::size_t n = v.size();
  if (n <= 10) return t;
  std::sort(v.begin(), v.end());
  // The epsilon keeps an exact product such as 0.99 * 1000 from rounding up.
  auto rank = static_cast<std::size_t>(std::ceil(cap / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n - 10);
  t.value = v[rank - 1];
  t.percentile = std::min(cap, 100.0 * static_cast<double>(rank) / static_cast<double>(n));
  t.available = true;
  return t;
}

/// "p99", or the lower percentile a small sample could support ("p98.00").
inline std::string percentile_label(const Tail& t) {
  if (!t.available) return "too few samples";
  char buf[32];
  std::snprintf(buf, sizeof buf, t.percentile >= 99.0 ? "p%.0f" : "p%.2f", t.percentile);
  return buf;
}

/// A bounded uniform sample of a long series (reservoir sampling, Algorithm
/// R, with a fixed-seed xorshift). Keeps the benchmark's own memory constant,
/// so peak RSS does not grow with the number of operations a run completes.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    kept_.reserve(capacity_);
  }

  void add(double v) {
    ++seen_;
    if (kept_.size() < capacity_) {
      kept_.push_back(v);
      return;
    }
    const std::uint64_t j = next() % seen_;
    if (j < capacity_) kept_[static_cast<std::size_t>(j)] = v;
  }

  /// Observations added, including those not kept.
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  [[nodiscard]] const std::vector<double>& kept() const { return kept_; }

 private:
  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::size_t capacity_;
  std::vector<double> kept_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

}  // namespace perfbench
