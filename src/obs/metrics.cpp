#include "dfdbg/obs/metrics.hpp"

#include <algorithm>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/strings.hpp"

namespace dfdbg::obs {

namespace detail {
constinit thread_local CellBlock* t_cells = nullptr;
}  // namespace detail

namespace {
using detail::Cell;
using detail::CellBlock;
using detail::kCellPageBits;
using detail::kCellPages;
using detail::kCellsPerPage;

/// Every cell block ever made plus the slot allocator, behind one lock that
/// block adoption, slot allocation, folds and resets take.
struct CellPool {
  std::mutex mu;
  std::vector<CellBlock*> blocks;  ///< never freed: a block's totals outlive its thread
  std::vector<CellBlock*> spare;   ///< released by exited threads, awaiting adoption
  std::uint32_t next_slot = 0;

  /// Leaked on purpose: threads exiting during static destruction still
  /// hand their blocks back, and the blocks stay reachable.
  static CellPool& get() {
    static CellPool* pool = new CellPool;
    return *pool;
  }

  /// Adds `n` slots from `slot` of every block into out[0..n). Caller holds mu.
  void fold(std::uint32_t slot, std::uint32_t n, std::uint64_t* out) const {
    for (const CellBlock* b : blocks) {
      const Cell* page = b->pages[slot >> kCellPageBits].load(std::memory_order_acquire);
      if (page == nullptr) continue;
      page += slot & (kCellsPerPage - 1);
      for (std::uint32_t i = 0; i < n; ++i) out[i] += page[i].load(std::memory_order_relaxed);
    }
  }
};

/// Gives the thread's block back to the pool when the thread exits.
struct CellLease {
  CellBlock* block = nullptr;
  ~CellLease();
};
thread_local CellLease t_lease;
/// Set once t_lease is destroyed: an update made later in thread exit adopts
/// a block it never returns (still folded, never reused).
constinit thread_local bool t_lease_gone = false;

CellLease::~CellLease() {
  t_lease_gone = true;
  if (block == nullptr) return;
  detail::t_cells = nullptr;
  CellPool& pool = CellPool::get();
  std::lock_guard<std::mutex> lk(pool.mu);
  pool.spare.push_back(block);
}

/// out[i] = slot + i summed over every block, minus base[i] (the fold the
/// last reset recorded). Under the pool lock, so it cannot interleave with
/// that reset.
void read_cells(std::uint32_t slot, std::uint32_t n, const std::uint64_t* base,
                std::uint64_t* out) {
  CellPool& pool = CellPool::get();
  std::lock_guard<std::mutex> lk(pool.mu);
  std::fill_n(out, n, 0);
  pool.fold(slot, n, out);
  for (std::uint32_t i = 0; i < n; ++i) out[i] -= base[i];
}

/// base[i] = the current fold of slot + i: later reads count from here.
/// Writes no cell, so it cannot race the cells' writers.
void rebase_cells(std::uint32_t slot, std::uint32_t n, std::uint64_t* base) {
  CellPool& pool = CellPool::get();
  std::lock_guard<std::mutex> lk(pool.mu);
  std::fill_n(base, n, 0);
  pool.fold(slot, n, base);
}
}  // namespace

namespace detail {
std::uint32_t alloc_slots(std::uint32_t n) {
  CellPool& pool = CellPool::get();
  std::lock_guard<std::mutex> lk(pool.mu);
  std::uint32_t s = pool.next_slot;
  if ((s & (kCellsPerPage - 1)) + n > kCellsPerPage) s = (s | (kCellsPerPage - 1)) + 1;
  DFDBG_CHECK_MSG(n <= kCellsPerPage && s + n <= kCellsPerPage * kCellPages,
                  "obs: instrument cell slots exhausted");
  pool.next_slot = s + n;
  return s;
}

Cell* cells_slow(std::uint32_t slot) {
  if (t_cells == nullptr) {
    CellPool& pool = CellPool::get();
    CellBlock* b;
    {
      std::lock_guard<std::mutex> lk(pool.mu);
      if (!pool.spare.empty()) {
        b = pool.spare.back();
        pool.spare.pop_back();
      } else {
        b = new CellBlock;
        pool.blocks.push_back(b);
      }
    }
    if (!t_lease_gone) t_lease.block = b;
    t_cells = b;
  }
  std::atomic<Cell*>& pg = t_cells->pages[slot >> kCellPageBits];
  Cell* page = pg.load(std::memory_order_relaxed);
  if (page == nullptr) {
    page = new Cell[kCellsPerPage];  // value-initialized: all zero
    pg.store(page, std::memory_order_release);
  }
  return page + (slot & (kCellsPerPage - 1));
}

std::size_t cell_block_count() {
  CellPool& pool = CellPool::get();
  std::lock_guard<std::mutex> lk(pool.mu);
  return pool.blocks.size();
}
}  // namespace detail

std::unique_lock<std::mutex> lock_folds() {
  return std::unique_lock<std::mutex>(CellPool::get().mu);
}

std::uint64_t Counter::fold_locked() const {
  std::uint64_t v = retired_;
  CellPool::get().fold(slot_, 1, &v);
  for (const CounterShare* s = shares_; s != nullptr; s = s->next_) v += s->share();
  return v;
}

std::uint64_t Counter::value() const {
  auto lk = lock_folds();
  return fold_locked() - base_;
}

void Counter::reset() {
  auto lk = lock_folds();
  base_ = fold_locked();
}

void CounterShare::attach(Counter& c) {
  auto lk = lock_folds();
  DFDBG_CHECK_MSG(counter_ == nullptr, "obs: counter share attached twice");
  counter_ = &c;
  next_ = c.shares_;
  if (next_ != nullptr) next_->prev_ = this;
  c.shares_ = this;
}

void CounterShare::retire() {
  if (counter_ == nullptr) return;
  auto lk = lock_folds();
  counter_->retired_ += share();
  (prev_ != nullptr ? prev_->next_ : counter_->shares_) = next_;
  if (next_ != nullptr) next_->prev_ = prev_;
  counter_ = nullptr;
  prev_ = next_ = nullptr;
}

std::uint64_t HistogramTotals::percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  auto target = static_cast<std::uint64_t>(p * static_cast<double>(count));
  if (target == 0) target = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets[i];
    if (cum >= target) return std::min(Histogram::bucket_edge(i), max);
  }
  return max;
}

HistogramTotals Histogram::totals() const {
  std::uint64_t raw[kSlots];
  read_cells(slot_, kSlots, base_, raw);
  HistogramTotals t;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    t.buckets[i] = raw[i];
    t.count += raw[i];
  }
  t.sum = raw[kSumSlot];
  t.max = max_.load(std::memory_order_relaxed);
  t.min = t.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  return t;
}

void Histogram::reset() {
  rebase_cells(slot_, kSlots, base_);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  // Leaked on purpose, like the cell pool: owners of attached tallies (a
  // static journal, say) may retire them during static destruction.
  static Registry* r = new Registry;
  return *r;
}

template <typename T>
T& Registry::intern(std::deque<std::pair<std::string, T>>& store, NameIndex& index,
                    std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index.find(name);  // heterogeneous: hot-path hit allocates nothing
  if (it != index.end()) return store[it->second].second;
  index.emplace(std::string(name), store.size());
  // std::deque: emplace never moves existing (atomic, non-movable) entries.
  store.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                     std::forward_as_tuple());
  return store.back().second;
}

Counter& Registry::counter(std::string_view name) {
  return intern(counters_, counter_index_, name);
}

Gauge& Registry::gauge(std::string_view name) { return intern(gauges_, gauge_index_, name); }

Histogram& Registry::histogram(std::string_view name) {
  return intern(histograms_, histogram_index_, name);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

namespace {
template <typename T>
std::vector<std::pair<std::string, const T*>> sorted_view(
    const std::deque<std::pair<std::string, T>>& store) {
  std::vector<std::pair<std::string, const T*>> out;
  out.reserve(store.size());
  for (const auto& [name, inst] : store) out.emplace_back(name, &inst);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

/// Escapes a metric name for embedding in a JSON string literal.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += strformat("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}
}  // namespace

std::vector<std::pair<std::string, const Counter*>> Registry::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sorted_view(counters_);
}

std::vector<std::pair<std::string, const Gauge*>> Registry::gauges() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sorted_view(gauges_);
}

std::vector<std::pair<std::string, const Histogram*>> Registry::histograms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sorted_view(histograms_);
}

std::string Registry::to_text() const {
  std::string out;
  out += strformat("metrics: %s (%zu instruments)\n", enabled() ? "enabled" : "DISABLED",
                   size());
  auto cs = counters();
  if (!cs.empty()) {
    out += "counters:\n";
    for (const auto& [name, c] : cs)
      out += strformat("  %-32s %20llu\n", name.c_str(),
                       static_cast<unsigned long long>(c->value()));
  }
  auto gs = gauges();
  if (!gs.empty()) {
    out += "gauges:                                     value            high-water\n";
    for (const auto& [name, g] : gs)
      out += strformat("  %-32s %12lld %21lld\n", name.c_str(),
                       static_cast<long long>(g->value()), static_cast<long long>(g->max()));
  }
  auto hs = histograms();
  if (!hs.empty()) {
    out += "histograms:                          count       mean        p50        p90"
           "        p99        max\n";
    for (const auto& [name, h] : hs) {
      const HistogramTotals t = h->totals();
      out += strformat("  %-32s %7llu %10.1f %10llu %10llu %10llu %10llu\n", name.c_str(),
                       static_cast<unsigned long long>(t.count), t.mean(),
                       static_cast<unsigned long long>(t.percentile(0.50)),
                       static_cast<unsigned long long>(t.percentile(0.90)),
                       static_cast<unsigned long long>(t.percentile(0.99)),
                       static_cast<unsigned long long>(t.max));
    }
  }
  return out;
}

namespace {
/// The shared JSON spelling of one instrument's value — to_json() and
/// snapshot_delta() must stay byte-compatible per entry.
std::string counter_json(const std::string& name, std::uint64_t value) {
  return strformat("\"%s\":%llu", json_escape(name).c_str(),
                   static_cast<unsigned long long>(value));
}

std::string gauge_json(const std::string& name, const Gauge& g) {
  return strformat("\"%s\":{\"value\":%lld,\"max\":%lld}", json_escape(name).c_str(),
                   static_cast<long long>(g.value()), static_cast<long long>(g.max()));
}

std::string histogram_json(const std::string& name, const HistogramTotals& t) {
  return strformat(
      "\"%s\":{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
      "\"p50\":%llu,\"p90\":%llu,\"p99\":%llu}",
      json_escape(name).c_str(), static_cast<unsigned long long>(t.count),
      static_cast<unsigned long long>(t.sum), static_cast<unsigned long long>(t.min),
      static_cast<unsigned long long>(t.max),
      static_cast<unsigned long long>(t.percentile(0.50)),
      static_cast<unsigned long long>(t.percentile(0.90)),
      static_cast<unsigned long long>(t.percentile(0.99)));
}
}  // namespace

namespace {
/// Prometheus metric-name sanitizer: `sim.worker.0.dispatch` ->
/// `dfdbg_sim_worker_0_dispatch`.
std::string prom_name(const std::string& s) {
  std::string out = "dfdbg_";
  out.reserve(out.size() + s.size());
  for (char c : s) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_';
    out += ok ? c : '_';
  }
  return out;
}
}  // namespace

std::string Registry::to_prometheus() const {
  std::string out;
  for (const auto& [name, c] : counters()) {
    std::string n = prom_name(name);
    out += strformat("# TYPE %s counter\n%s %llu\n", n.c_str(), n.c_str(),
                     static_cast<unsigned long long>(c->value()));
  }
  for (const auto& [name, g] : gauges()) {
    std::string n = prom_name(name);
    out += strformat("# TYPE %s gauge\n%s %lld\n", n.c_str(), n.c_str(),
                     static_cast<long long>(g->value()));
    out += strformat("# TYPE %s_max gauge\n%s_max %lld\n", n.c_str(), n.c_str(),
                     static_cast<long long>(g->max()));
  }
  for (const auto& [name, h] : histograms()) {
    std::string n = prom_name(name);
    const HistogramTotals t = h->totals();
    out += strformat("# TYPE %s summary\n", n.c_str());
    out += strformat("%s{quantile=\"0.5\"} %llu\n", n.c_str(),
                     static_cast<unsigned long long>(t.percentile(0.50)));
    out += strformat("%s{quantile=\"0.9\"} %llu\n", n.c_str(),
                     static_cast<unsigned long long>(t.percentile(0.90)));
    out += strformat("%s{quantile=\"0.99\"} %llu\n", n.c_str(),
                     static_cast<unsigned long long>(t.percentile(0.99)));
    out += strformat("%s_sum %llu\n%s_count %llu\n", n.c_str(),
                     static_cast<unsigned long long>(t.sum), n.c_str(),
                     static_cast<unsigned long long>(t.count));
  }
  return out;
}

std::string Registry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters()) {
    if (!first) out += ',';
    first = false;
    out += counter_json(name, c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges()) {
    if (!first) out += ',';
    first = false;
    out += gauge_json(name, *g);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms()) {
    if (!first) out += ',';
    first = false;
    out += histogram_json(name, h->totals());
  }
  out += "}}";
  return out;
}

std::string Registry::snapshot_delta(StatsSnapshot& prev, std::size_t* changed) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    const std::uint64_t v = c.value();
    auto it = prev.counters.find(name);
    if (it != prev.counters.end() && it->second == v) continue;
    prev.counters[name] = v;
    if (!first) out += ',';
    first = false;
    out += counter_json(name, v);
    ++n;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    std::pair<std::int64_t, std::int64_t> cur{g.value(), g.max()};
    auto it = prev.gauges.find(name);
    if (it != prev.gauges.end() && it->second == cur) continue;
    prev.gauges[name] = cur;
    if (!first) out += ',';
    first = false;
    out += gauge_json(name, g);
    ++n;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const HistogramTotals t = h.totals();
    std::pair<std::uint64_t, std::uint64_t> cur{t.count, t.sum};
    auto it = prev.histograms.find(name);
    if (it != prev.histograms.end() && it->second == cur) continue;
    prev.histograms[name] = cur;
    if (!first) out += ',';
    first = false;
    out += histogram_json(name, t);
    ++n;
  }
  out += "}}";
  if (changed != nullptr) *changed = n;
  return out;
}

}  // namespace dfdbg::obs
