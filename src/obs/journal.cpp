#include "dfdbg/obs/journal.hpp"

#include "dfdbg/common/assert.hpp"

namespace dfdbg::obs {

namespace {
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

Journal::Journal(std::size_t capacity) : cap_(capacity) {
  DFDBG_CHECK(capacity >= 1);
}

Journal::~Journal() {
  recorded_share_.retire();
  dropped_share_.retire();
  restart_window(/*keep_storage=*/false, cap_);
}

JournalEvent* Journal::next_lap() {
  if (slots_ == nullptr) {
    if (!recorded_share_.attached()) {
      Registry& r = Registry::global();
      recorded_share_.attach(r.counter("journal.recorded"));
      dropped_share_.attach(r.counter("journal.dropped"));
    }
    // Reserved, not touched: pages are committed as events arrive.
    JournalEvent* s = std::allocator<JournalEvent>().allocate(cap_);
    auto lk = lock_folds();
    slots_ = s;
    end_ = s + cap_;
    next_.store(s, std::memory_order_relaxed);
  } else {
    // Under the lock with the lap count, so no fold sees one without the other.
    auto lk = lock_folds();
    laps_++;
    next_.store(slots_, std::memory_order_relaxed);
  }
  return slots_;
}

void Journal::restart_window(bool keep_storage, std::size_t cap) {
  JournalEvent* release = nullptr;
  {
    auto lk = lock_folds();
    recorded_before_ = recorded_total();
    dropped_before_ += evicted();
    laps_ = 0;
    window_merged_ = 0;
    if (!keep_storage) {
      release = slots_;
      slots_ = end_ = nullptr;
    }
    next_.store(slots_, std::memory_order_relaxed);
    // Last: the totals above read the old capacity.
    if (!keep_storage) {
      if (release != nullptr) std::allocator<JournalEvent>().deallocate(release, cap_);
      cap_ = cap;
    }
  }
  window_shard_drops_ = 0;
}

const JournalEvent& Journal::at(std::size_t i) const {
  DFDBG_CHECK(i < size());
  // Once the ring has lapped, the oldest event is the next one to be
  // overwritten; before that, the first slot.
  const JournalEvent* next = next_.load(std::memory_order_relaxed);
  std::size_t head = laps_ != 0 ? static_cast<std::size_t>(next - slots_) : 0;
  if (head == cap_) head = 0;
  const std::size_t k = head + i;
  return slots_[k < cap_ ? k : k - cap_];
}

void Journal::merge_from(Journal& shard) {
  const std::size_t n = shard.size();
  if (n != 0) {
    if (slots_ == nullptr) next_lap();  // reserves the ring, writing from its first slot
    auto lk = lock_folds();
    const std::uint64_t evicted0 = evicted();
    for (std::size_t i = 0; i < n; ++i) {
      JournalEvent* slot = next_.load(std::memory_order_relaxed);
      if (slot == end_) {
        laps_++;
        slot = slots_;
      }
      std::construct_at(slot, shard.at(i));
      next_.store(slot + 1, std::memory_order_relaxed);
    }
    window_merged_ += n;
    // An eviction here is this ring's drop (the shard counted its own
    // record), counted like a record: only while obs is on.
    if (!enabled()) uncounted_drops_ += evicted() - evicted0;
  }
  window_shard_drops_ += shard.dropped();
  shard.restart_window(/*keep_storage=*/true, shard.cap_);
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
  restart_window(/*keep_storage=*/false, cap < 1 ? 1 : cap);
}

void Journal::clear() { restart_window(/*keep_storage=*/false, cap_); }

void Journal::reset() {
  clear();
  last_token_.store(0, std::memory_order_relaxed);
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
  for (std::size_t i = 0; i < size(); ++i) {
    auto k = static_cast<std::size_t>(at(i).kind);
    if (k < 9) by_kind[k]++;
  }
  std::string out = strformat(
      "journal: %s, capacity %zu, retained %zu, recorded %llu, dropped %llu\n"
      "token ids allocated: %llu\n",
      recording() ? (enabled() ? "recording" : "idle (obs disabled)") : "off",
      capacity(), size(), static_cast<unsigned long long>(total_recorded()),
      static_cast<unsigned long long>(dropped()),
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
  const std::size_t retained = size();
  std::size_t count = n < retained ? n : retained;
  std::size_t start = retained - count;
  std::string out;
  for (std::size_t i = start; i < retained; ++i) {
    out += format_event(at(i), link_name);
    out += "\n";
  }
  return out;
}

Journal::Slice Journal::read_from(std::uint64_t from, std::size_t max_n,
                                  const std::function<void(const JournalEvent&)>& fn) const {
  Slice s;
  std::uint64_t total = total_recorded();
  std::uint64_t oldest = total - size();
  if (from > total) from = total;  // a cursor from a cleared window restarts
  std::uint64_t start = from < oldest ? oldest : from;
  s.gap = start - from;
  std::uint64_t avail = total - start;
  s.count = static_cast<std::size_t>(avail < max_n ? avail : max_n);
  for (std::size_t i = 0; i < s.count; ++i)
    fn(at(static_cast<std::size_t>(start - oldest) + i));
  s.next = start + s.count;
  return s;
}

void Journal::write_json(JsonWriter& w, const LinkNamer& link_name) const {
  w.begin_object()
      .kv("capacity", static_cast<std::uint64_t>(capacity()))
      .kv("recorded", total_recorded())
      .kv("retained", static_cast<std::uint64_t>(size()))
      .kv("dropped", dropped())
      .kv("token_ids", last_token())
      .key("events")
      .begin_array();
  for (std::size_t i = 0; i < size(); ++i) write_event_json(w, at(i), link_name);
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
  std::uint64_t total = total_recorded();
  std::uint64_t oldest = total - size();
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
