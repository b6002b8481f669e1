#include "dfdbg/obs/journal.hpp"

namespace dfdbg::obs {

namespace {
/// Journal instruments, interned once (stable addresses by construction).
struct JournalMetrics {
  Counter& recorded;
  Counter& dropped;
  static JournalMetrics& get() {
    auto& r = Registry::global();
    static JournalMetrics m{r.counter("journal.recorded"), r.counter("journal.dropped")};
    return m;
  }
};

const std::string kUnknownName = "?";
}  // namespace

const char* to_string(JournalKind k) {
  switch (k) {
    case JournalKind::kTokenPush: return "push";
    case JournalKind::kTokenPop: return "pop";
    case JournalKind::kFireBegin: return "fire-begin";
    case JournalKind::kFireEnd: return "fire-end";
    case JournalKind::kDispatch: return "dispatch";
    case JournalKind::kCatchpoint: return "catchpoint";
    case JournalKind::kTokenInject: return "inject";
    case JournalKind::kTokenRemove: return "remove";
    case JournalKind::kTokenReplace: return "replace";
  }
  return "?";
}

namespace {
/// Parallel-backend workers install their shard here (see set_thread_journal).
thread_local Journal* t_journal = nullptr;
}  // namespace

Journal& Journal::global() {
  if (t_journal != nullptr) return *t_journal;
  return global_base();
}

Journal& Journal::global_base() {
  static Journal j;
  return j;
}

void Journal::set_thread_journal(Journal* j) { t_journal = j; }

void Journal::merge_from(Journal& shard) {
  std::size_t n = shard.ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Raw append: the shard already fed the registry counters at record
    // time; only eviction from *this* window counts as a drop here.
    if (ring_.push(shard.ring_.at(i))) {
      dropped_++;
      if (enabled()) JournalMetrics::get().dropped.add();
    }
  }
  dropped_ += shard.dropped_;
  shard.dropped_ = 0;
  shard.ring_.clear();  // keeps the allocation; total_pushed is unused on shards
  // Fold the shard's token-allocation count into this journal's counter so
  // `last_token()` — and the token-budget quota built on it — sees tokens
  // allocated from disjoint shard uid ranges. Delta-tracked: the shard's own
  // counter is never reset (its uids must stay unique), and our low-range
  // allocator only skips ahead, never reuses ids. Single-partition shards
  // (uid_base 0) delegate allocation here directly and report nothing.
  if (shard.uid_base_ != 0) {
    const std::uint64_t cur = shard.last_token_.load(std::memory_order_relaxed);
    last_token_.fetch_add(cur - shard.tokens_reported_, std::memory_order_relaxed);
    shard.tokens_reported_ = cur;
  }
}

void Journal::set_capacity(std::size_t cap) {
  ring_ = RingBuffer<JournalEvent>(cap < 1 ? 1 : cap);
  dropped_ = 0;
}

void Journal::clear() {
  ring_ = RingBuffer<JournalEvent>(ring_.capacity());
  dropped_ = 0;
}

void Journal::reset() {
  clear();
  last_token_.store(0, std::memory_order_relaxed);
}

void Journal::record(const JournalEvent& ev) {
  if (!enabled() || !recording()) return;
  JournalMetrics& m = JournalMetrics::get();
  m.recorded.add();
  if (ring_.push(ev)) {
    dropped_++;
    m.dropped.add();
  }
}

std::uint32_t Journal::intern_name(std::string_view name) {
  if (parent_ != nullptr) return parent_->intern_name(name);  // one id space
  std::lock_guard<std::mutex> lk(names_mu_);
  auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_index_.emplace(names_.back(), id);
  return id;
}

const std::string& Journal::name(std::uint32_t id) const {
  if (parent_ != nullptr) return parent_->name(id);
  std::lock_guard<std::mutex> lk(names_mu_);
  if (id >= names_.size()) return kUnknownName;
  return names_[id];
}

std::size_t Journal::name_count() const {
  if (parent_ != nullptr) return parent_->name_count();
  std::lock_guard<std::mutex> lk(names_mu_);
  return names_.size();
}

std::string Journal::summary() const {
  std::uint64_t by_kind[9] = {};
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    auto k = static_cast<std::size_t>(ring_.at(i).kind);
    if (k < 9) by_kind[k]++;
  }
  std::string out = strformat(
      "journal: %s, capacity %zu, retained %zu, recorded %llu, dropped %llu\n"
      "token ids allocated: %llu\n",
      recording() ? (enabled() ? "recording" : "idle (obs disabled)") : "off",
      ring_.capacity(), ring_.size(), static_cast<unsigned long long>(ring_.total_pushed()),
      static_cast<unsigned long long>(dropped_),
      static_cast<unsigned long long>(last_token()));
  for (std::size_t k = 0; k < 9; ++k) {
    if (by_kind[k] == 0) continue;
    out += strformat("  %-10s %llu\n", to_string(static_cast<JournalKind>(k)),
                     static_cast<unsigned long long>(by_kind[k]));
  }
  return out;
}

std::string Journal::format_event(const JournalEvent& ev, const LinkNamer& link_name) const {
  auto link_label = [&](std::uint32_t id) {
    if (id == UINT32_MAX) return std::string("-");
    if (link_name) return link_name(id);
    return strformat("link#%u", id);
  };
  std::string out = strformat("t=%-8llu %-10s", static_cast<unsigned long long>(ev.time),
                              to_string(ev.kind));
  switch (ev.kind) {
    case JournalKind::kTokenPush:
    case JournalKind::kTokenInject:
      out += strformat(" tok#%llu %s -> [%s] idx=%llu firing=%llu",
                       static_cast<unsigned long long>(ev.token), name(ev.actor).c_str(),
                       link_label(ev.link).c_str(),
                       static_cast<unsigned long long>(ev.index),
                       static_cast<unsigned long long>(ev.firing));
      break;
    case JournalKind::kTokenPop:
      out += strformat(" tok#%llu [%s] -> %s idx=%llu firing=%llu",
                       static_cast<unsigned long long>(ev.token),
                       link_label(ev.link).c_str(), name(ev.actor).c_str(),
                       static_cast<unsigned long long>(ev.index),
                       static_cast<unsigned long long>(ev.firing));
      break;
    case JournalKind::kFireBegin:
    case JournalKind::kFireEnd:
      out += strformat(" %s firing=%llu", name(ev.actor).c_str(),
                       static_cast<unsigned long long>(ev.firing));
      break;
    case JournalKind::kDispatch:
      out += strformat(" %s activation=%llu", name(ev.actor).c_str(),
                       static_cast<unsigned long long>(ev.index));
      break;
    case JournalKind::kCatchpoint:
      out += strformat(" bp=%llu actor=%s", static_cast<unsigned long long>(ev.index),
                       name(ev.actor).c_str());
      break;
    case JournalKind::kTokenRemove:
    case JournalKind::kTokenReplace:
      out += strformat(" tok#%llu [%s] slot=%llu",
                       static_cast<unsigned long long>(ev.token),
                       link_label(ev.link).c_str(),
                       static_cast<unsigned long long>(ev.index));
      break;
  }
  return out;
}

std::string Journal::format_last(std::size_t n, const LinkNamer& link_name) const {
  std::size_t count = n < ring_.size() ? n : ring_.size();
  std::size_t start = ring_.size() - count;
  std::string out;
  for (std::size_t i = start; i < ring_.size(); ++i) {
    out += format_event(ring_.at(i), link_name);
    out += "\n";
  }
  return out;
}

Journal::Slice Journal::read_from(std::uint64_t from, std::size_t max_n,
                                  const std::function<void(const JournalEvent&)>& fn) const {
  Slice s;
  std::uint64_t total = ring_.total_pushed();
  std::uint64_t oldest = total - ring_.size();
  if (from > total) from = total;  // a cursor from a cleared window restarts
  std::uint64_t start = from < oldest ? oldest : from;
  s.gap = start - from;
  std::uint64_t avail = total - start;
  s.count = static_cast<std::size_t>(avail < max_n ? avail : max_n);
  for (std::size_t i = 0; i < s.count; ++i)
    fn(ring_.at(static_cast<std::size_t>(start - oldest) + i));
  s.next = start + s.count;
  return s;
}

void Journal::write_json(JsonWriter& w, const LinkNamer& link_name) const {
  w.begin_object()
      .kv("capacity", static_cast<std::uint64_t>(ring_.capacity()))
      .kv("recorded", total_recorded())
      .kv("retained", static_cast<std::uint64_t>(ring_.size()))
      .kv("dropped", dropped_)
      .kv("token_ids", last_token())
      .key("events")
      .begin_array();
  for (std::size_t i = 0; i < ring_.size(); ++i) write_event_json(w, ring_.at(i), link_name);
  w.end_array().end_object();
}

void Journal::write_event_json(JsonWriter& w, const JournalEvent& ev,
                               const LinkNamer& link_name) const {
  w.begin_object().kv("t", ev.time).kv("kind", to_string(ev.kind));
  if (ev.token != 0) w.kv("token", ev.token);
  if (ev.link != UINT32_MAX)
    w.kv("link", link_name ? link_name(ev.link) : strformat("link#%u", ev.link));
  if (ev.actor != UINT32_MAX) w.kv("actor", name(ev.actor));
  w.kv("index", ev.index);
  if (ev.firing != 0) w.kv("firing", ev.firing);
  w.end_object();
}

Journal::Slice Journal::write_delta_json(JsonWriter& w, std::uint64_t from, std::size_t max_n,
                                         const LinkNamer& link_name) const {
  // Two passes would re-walk the ring; instead record where `events` starts
  // and let read_from stream straight into the writer.
  std::uint64_t total = ring_.total_pushed();
  std::uint64_t oldest = total - ring_.size();
  std::uint64_t effective = from > total ? total : (from < oldest ? oldest : from);
  w.begin_object().kv("from", effective);
  // `next`/`gap` are known before the events are emitted (read_from computes
  // them from the same window bounds), so emit them up front — streaming
  // parsers see the cursor before the payload.
  Slice probe;
  probe.gap = effective - (from > total ? total : from);
  std::uint64_t avail = total - effective;
  probe.count = static_cast<std::size_t>(avail < max_n ? avail : max_n);
  probe.next = effective + probe.count;
  w.kv("next", probe.next).kv("gap", probe.gap);
  w.key("events").begin_array();
  read_from(from, max_n, [&](const JournalEvent& ev) { write_event_json(w, ev, link_name); });
  w.end_array().end_object();
  return probe;
}

}  // namespace dfdbg::obs
