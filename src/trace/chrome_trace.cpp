#include "dfdbg/trace/chrome_trace.hpp"

#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::trace {

namespace {

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

/// Deterministic actor-path -> thread-id assignment, in first-seen order.
class TidTable {
 public:
  int tid_of(const std::string& track) {
    auto it = tids_.find(track);
    if (it != tids_.end()) return it->second;
    int tid = next_++;
    tids_.emplace(track, tid);
    order_.push_back(track);
    return tid;
  }
  [[nodiscard]] const std::vector<std::string>& tracks() const { return order_; }
  [[nodiscard]] int lookup(const std::string& track) const { return tids_.at(track); }

 private:
  std::map<std::string, int> tids_;
  std::vector<std::string> order_;
  int next_ = 1;  // tid 0 is reserved for process metadata
};

struct EventWriter {
  std::string& out;
  bool first = true;

  void emit(const std::string& json) {
    if (!first) out += ",\n";
    first = false;
    out += "  ";
    out += json;
  }
};

/// One push/pop pair matched by provenance id across the journal window.
struct FlowPair {
  std::uint64_t uid = 0;
  std::uint64_t push_ts = 0;
  std::uint64_t pop_ts = 0;
  std::uint32_t src_actor = UINT32_MAX;  ///< journal name ids
  std::uint32_t dst_actor = UINT32_MAX;
  std::uint32_t link = UINT32_MAX;
};

/// Matches every retained push (or debugger injection) to its retained pop.
/// A bounded ring can evict the push of a retained pop — such pops emit no
/// arrow, which is exactly what the viewer can render anyway.
std::vector<FlowPair> collect_flow_pairs(const obs::Journal& j) {
  std::vector<FlowPair> pairs;
  std::unordered_map<std::uint64_t, std::size_t> pending;  // uid -> journal index
  for (std::size_t i = 0; i < j.size(); ++i) {
    const obs::JournalEvent& ev = j.at(i);
    if (ev.kind == obs::JournalKind::kTokenPush || ev.kind == obs::JournalKind::kTokenInject) {
      if (ev.token != 0) pending[ev.token] = i;
    } else if (ev.kind == obs::JournalKind::kTokenPop) {
      auto it = pending.find(ev.token);
      if (it == pending.end()) continue;
      const obs::JournalEvent& push = j.at(it->second);
      pairs.push_back(FlowPair{ev.token, push.time, ev.time, push.actor, ev.actor, ev.link});
      pending.erase(it);
    }
  }
  return pairs;
}

/// Emits one "s"/"f" arrow per pair; binding is (cat, name, id), so the
/// provenance id alone ties the two halves together.
void emit_flow_pairs(const std::vector<FlowPair>& pairs, const obs::Journal& j, TidTable& tids,
                     EventWriter& w) {
  for (const FlowPair& p : pairs) {
    int src_tid = tids.tid_of(j.name(p.src_actor));
    int dst_tid = tids.tid_of(j.name(p.dst_actor));
    w.emit(strformat("{\"name\":\"token\",\"cat\":\"dataflow\",\"ph\":\"s\",\"id\":%llu,"
                     "\"ts\":%llu,\"pid\":1,\"tid\":%d}",
                     static_cast<unsigned long long>(p.uid),
                     static_cast<unsigned long long>(p.push_ts), src_tid));
    w.emit(strformat("{\"name\":\"token\",\"cat\":\"dataflow\",\"ph\":\"f\",\"bp\":\"e\","
                     "\"id\":%llu,\"ts\":%llu,\"pid\":1,\"tid\":%d}",
                     static_cast<unsigned long long>(p.uid),
                     static_cast<unsigned long long>(p.pop_ts), dst_tid));
  }
}

}  // namespace

std::string export_chrome_trace(const TraceCollector& trace, pedf::Application& app,
                                const ChromeTraceOptions& options) {
  const auto& events = trace.events();
  const obs::Journal* journal = options.flow_events ? options.journal : nullptr;
  std::vector<FlowPair> pairs;
  if (journal != nullptr) pairs = collect_flow_pairs(*journal);

  TidTable tids;
  // Pass 1: discover every track so thread metadata leads the event stream
  // (Perfetto applies thread names only to already-declared tracks).
  for (std::size_t i = 0; i < events.size(); ++i) tids.tid_of(events.at(i).actor);
  for (const FlowPair& p : pairs) {
    tids.tid_of(journal->name(p.src_actor));
    tids.tid_of(journal->name(p.dst_actor));
  }

  std::string out = "{\n\"traceEvents\": [\n";
  EventWriter w{out};

  w.emit(strformat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                   "\"args\":{\"name\":\"%s\"}}",
                   json_escape(options.process_name).c_str()));
  for (const std::string& track : tids.tracks()) {
    w.emit(strformat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"name\":\"%s\"}}",
                     tids.lookup(track), json_escape(track).c_str()));
  }

  // Per-track open-slice depth: orphan "E"s (begin evicted from the ring)
  // are dropped, dangling "B"s are closed at the end of the window.
  std::map<int, std::vector<std::pair<const char*, sim::SimTime>>> open_slices;
  std::map<std::uint32_t, std::int64_t> occupancy;  // link id -> tokens (window-relative)
  sim::SimTime last_ts = 0;

  const auto link_label = app.link_namer();

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events.at(i);
    int tid = tids.lookup(ev.actor);
    if (ev.time > last_ts) last_ts = ev.time;
    auto ts = static_cast<unsigned long long>(ev.time);
    switch (ev.kind) {
      case TraceKind::kWorkEnter:
        w.emit(strformat("{\"name\":\"WORK\",\"cat\":\"work\",\"ph\":\"B\",\"ts\":%llu,"
                         "\"pid\":1,\"tid\":%d,\"args\":{\"firing\":%llu}}",
                         ts, tid, static_cast<unsigned long long>(ev.index)));
        open_slices[tid].emplace_back("WORK", ev.time);
        break;
      case TraceKind::kWorkExit:
        if (open_slices[tid].empty()) break;  // begin fell out of the window
        open_slices[tid].pop_back();
        w.emit(strformat(
            "{\"name\":\"WORK\",\"cat\":\"work\",\"ph\":\"E\",\"ts\":%llu,\"pid\":1,"
            "\"tid\":%d}",
            ts, tid));
        break;
      case TraceKind::kStepBegin:
        w.emit(strformat("{\"name\":\"STEP\",\"cat\":\"step\",\"ph\":\"B\",\"ts\":%llu,"
                         "\"pid\":1,\"tid\":%d,\"args\":{\"step\":%llu}}",
                         ts, tid, static_cast<unsigned long long>(ev.index)));
        open_slices[tid].emplace_back("STEP", ev.time);
        break;
      case TraceKind::kStepEnd:
        if (open_slices[tid].empty()) break;
        open_slices[tid].pop_back();
        w.emit(strformat(
            "{\"name\":\"STEP\",\"cat\":\"step\",\"ph\":\"E\",\"ts\":%llu,\"pid\":1,"
            "\"tid\":%d}",
            ts, tid));
        break;
      case TraceKind::kActorStart:
        if (!options.schedule_instants) break;
        w.emit(strformat("{\"name\":\"ACTOR_START\",\"cat\":\"sched\",\"ph\":\"i\","
                         "\"ts\":%llu,\"pid\":1,\"tid\":%d,\"s\":\"t\","
                         "\"args\":{\"step\":%llu}}",
                         ts, tid, static_cast<unsigned long long>(ev.index)));
        break;
      case TraceKind::kPush:
      case TraceKind::kPop: {
        if (!options.link_counters || ev.link == UINT32_MAX) break;
        std::int64_t& occ = occupancy[ev.link];
        occ += ev.kind == TraceKind::kPush ? 1 : -1;
        // A window that opens mid-stream can see pops of tokens pushed
        // before the window; clamp the *displayed* level at zero.
        std::int64_t shown = occ < 0 ? 0 : occ;
        w.emit(strformat("{\"name\":\"occ:%s\",\"cat\":\"link\",\"ph\":\"C\",\"ts\":%llu,"
                         "\"pid\":1,\"args\":{\"tokens\":%lld}}",
                         json_escape(link_label(ev.link)).c_str(), ts,
                         static_cast<long long>(shown)));
        break;
      }
    }
  }

  // Close dangling begins (simulation stopped mid-WORK / mid-step) so every
  // "B" has an "E" and viewers do not warn about unterminated slices.
  for (auto& [tid, stack] : open_slices) {
    while (!stack.empty()) {
      const auto& [name, began] = stack.back();
      w.emit(strformat("{\"name\":\"%s\",\"cat\":\"truncated\",\"ph\":\"E\",\"ts\":%llu,"
                       "\"pid\":1,\"tid\":%d}",
                       name, static_cast<unsigned long long>(last_ts < began ? began : last_ts),
                       tid));
      stack.pop_back();
    }
  }

  if (journal != nullptr) emit_flow_pairs(pairs, *journal, tids, w);

  out += strformat(
      "\n],\n\"metadata\": {\"app\":\"%s\",\"clock\":\"simulated-cycles\","
      "\"retained_events\":%llu,\"dropped_events\":%llu,\"flow_pairs\":%llu}\n}\n",
      json_escape(app.name()).c_str(), static_cast<unsigned long long>(events.size()),
      static_cast<unsigned long long>(trace.dropped()),
      static_cast<unsigned long long>(pairs.size()));
  return out;
}

std::string export_journal_chrome_trace(const obs::Journal& journal, pedf::Application& app,
                                        const ChromeTraceOptions& options) {
  std::vector<FlowPair> pairs;
  if (options.flow_events) pairs = collect_flow_pairs(journal);

  TidTable tids;
  // Pass 1: tracks in first-seen order, flow endpoints included.
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const obs::JournalEvent& ev = journal.at(i);
    if (ev.actor != UINT32_MAX) tids.tid_of(journal.name(ev.actor));
  }
  for (const FlowPair& p : pairs) {
    tids.tid_of(journal.name(p.src_actor));
    tids.tid_of(journal.name(p.dst_actor));
  }

  std::string out = "{\n\"traceEvents\": [\n";
  EventWriter w{out};

  w.emit(strformat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                   "\"args\":{\"name\":\"%s\"}}",
                   json_escape(options.process_name).c_str()));
  for (const std::string& track : tids.tracks()) {
    w.emit(strformat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"name\":\"%s\"}}",
                     tids.lookup(track), json_escape(track).c_str()));
  }

  const auto link_label = app.link_namer();

  std::map<int, std::vector<std::pair<const char*, std::uint64_t>>> open_slices;
  std::map<std::uint32_t, std::int64_t> occupancy;
  std::uint64_t last_ts = 0;

  for (std::size_t i = 0; i < journal.size(); ++i) {
    const obs::JournalEvent& ev = journal.at(i);
    int tid = ev.actor != UINT32_MAX ? tids.lookup(journal.name(ev.actor)) : 0;
    if (ev.time > last_ts) last_ts = ev.time;
    auto ts = static_cast<unsigned long long>(ev.time);
    switch (ev.kind) {
      case obs::JournalKind::kFireBegin:
        w.emit(strformat("{\"name\":\"WORK\",\"cat\":\"work\",\"ph\":\"B\",\"ts\":%llu,"
                         "\"pid\":1,\"tid\":%d,\"args\":{\"firing\":%llu}}",
                         ts, tid, static_cast<unsigned long long>(ev.firing)));
        open_slices[tid].emplace_back("WORK", ev.time);
        break;
      case obs::JournalKind::kFireEnd:
        if (open_slices[tid].empty()) break;  // begin fell out of the ring
        open_slices[tid].pop_back();
        w.emit(strformat(
            "{\"name\":\"WORK\",\"cat\":\"work\",\"ph\":\"E\",\"ts\":%llu,\"pid\":1,"
            "\"tid\":%d}",
            ts, tid));
        break;
      case obs::JournalKind::kTokenPush:
      case obs::JournalKind::kTokenInject:
      case obs::JournalKind::kTokenPop: {
        if (!options.link_counters || ev.link == UINT32_MAX) break;
        std::int64_t& occ = occupancy[ev.link];
        occ += ev.kind == obs::JournalKind::kTokenPop ? -1 : 1;
        std::int64_t shown = occ < 0 ? 0 : occ;  // ring may open mid-stream
        w.emit(strformat("{\"name\":\"occ:%s\",\"cat\":\"link\",\"ph\":\"C\",\"ts\":%llu,"
                         "\"pid\":1,\"args\":{\"tokens\":%lld}}",
                         json_escape(link_label(ev.link)).c_str(), ts,
                         static_cast<long long>(shown)));
        break;
      }
      case obs::JournalKind::kDispatch:
        if (!options.dispatch_instants) break;
        w.emit(strformat("{\"name\":\"DISPATCH\",\"cat\":\"sched\",\"ph\":\"i\",\"ts\":%llu,"
                         "\"pid\":1,\"tid\":%d,\"s\":\"t\",\"args\":{\"activation\":%llu}}",
                         ts, tid, static_cast<unsigned long long>(ev.index)));
        break;
      case obs::JournalKind::kCatchpoint:
        w.emit(strformat("{\"name\":\"CATCHPOINT\",\"cat\":\"debug\",\"ph\":\"i\",\"ts\":%llu,"
                         "\"pid\":1,\"tid\":%d,\"s\":\"p\",\"args\":{\"bp\":%llu}}",
                         ts, tid, static_cast<unsigned long long>(ev.index)));
        break;
      case obs::JournalKind::kTokenRemove:
      case obs::JournalKind::kTokenReplace:
        w.emit(strformat("{\"name\":\"%s\",\"cat\":\"alter\",\"ph\":\"i\",\"ts\":%llu,"
                         "\"pid\":1,\"tid\":%d,\"s\":\"t\",\"args\":{\"token\":%llu}}",
                         ev.kind == obs::JournalKind::kTokenRemove ? "REMOVE" : "REPLACE", ts,
                         tid, static_cast<unsigned long long>(ev.token)));
        break;
    }
  }

  for (auto& [tid, stack] : open_slices) {
    while (!stack.empty()) {
      const auto& [name, began] = stack.back();
      w.emit(strformat("{\"name\":\"%s\",\"cat\":\"truncated\",\"ph\":\"E\",\"ts\":%llu,"
                       "\"pid\":1,\"tid\":%d}",
                       name, static_cast<unsigned long long>(last_ts < began ? began : last_ts),
                       tid));
      stack.pop_back();
    }
  }

  emit_flow_pairs(pairs, journal, tids, w);

  out += strformat(
      "\n],\n\"metadata\": {\"app\":\"%s\",\"clock\":\"simulated-cycles\","
      "\"retained_events\":%llu,\"dropped_events\":%llu,\"flow_pairs\":%llu}\n}\n",
      json_escape(app.name()).c_str(), static_cast<unsigned long long>(journal.size()),
      static_cast<unsigned long long>(journal.dropped()),
      static_cast<unsigned long long>(pairs.size()));
  return out;
}

std::string export_shard_chrome_trace(const sim::Kernel& kernel,
                                      const ChromeTraceOptions& options) {
  const std::deque<sim::BarrierRoundRecord>& rounds = kernel.round_records();
  const int workers =
      rounds.empty() ? kernel.partition_count() : static_cast<int>(rounds.front().partitions.size());

  std::string out = "{\n\"traceEvents\": [\n";
  EventWriter w{out};
  w.emit(strformat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                   "\"args\":{\"name\":\"%s\"}}",
                   json_escape(options.process_name).c_str()));
  // One named track per worker (tid i+1), plus the coordinator's barrier
  // track after them — fixed ids, so the layout is stable run to run.
  for (int i = 0; i < workers; ++i) {
    w.emit(strformat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"name\":\"worker %d\"}}",
                     i + 1, i));
  }
  const int barrier_tid = workers + 1;
  w.emit(strformat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"name\":\"barrier\"}}",
                   barrier_tid));

  // Synthetic timeline: rounds laid end-to-end by measured wall time (idle
  // gaps elided). Nanoseconds go straight into the format's microsecond
  // field; durations read as measured ns.
  std::uint64_t t = 0;
  for (const sim::BarrierRoundRecord& r : rounds) {
    const std::uint64_t span = r.wall_ns - r.drain_ns;  // workers' portion
    for (std::size_t i = 0; i < r.partitions.size(); ++i) {
      const auto& p = r.partitions[i];
      const int tid = static_cast<int>(i) + 1;
      w.emit(strformat("{\"name\":\"ROUND\",\"cat\":\"shard\",\"ph\":\"B\",\"ts\":%llu,"
                       "\"pid\":1,\"tid\":%d,\"args\":{\"round\":%llu,\"dispatches\":%llu,"
                       "\"wait_ns\":%llu}}",
                       static_cast<unsigned long long>(t), tid,
                       static_cast<unsigned long long>(r.round),
                       static_cast<unsigned long long>(p.dispatches),
                       static_cast<unsigned long long>(p.wait_ns)));
      w.emit(strformat("{\"name\":\"ROUND\",\"cat\":\"shard\",\"ph\":\"E\",\"ts\":%llu,"
                       "\"pid\":1,\"tid\":%d}",
                       static_cast<unsigned long long>(t + p.work_ns), tid));
      if (p.stalled) {
        w.emit(strformat("{\"name\":\"STALL\",\"cat\":\"shard\",\"ph\":\"i\",\"ts\":%llu,"
                         "\"pid\":1,\"tid\":%d,\"s\":\"t\",\"args\":{\"round\":%llu}}",
                         static_cast<unsigned long long>(t), tid,
                         static_cast<unsigned long long>(r.round)));
      }
    }
    w.emit(strformat("{\"name\":\"BARRIER\",\"cat\":\"shard\",\"ph\":\"B\",\"ts\":%llu,"
                     "\"pid\":1,\"tid\":%d,\"args\":{\"round\":%llu,\"vtime\":%llu,"
                     "\"boundary_hwm\":%llu}}",
                     static_cast<unsigned long long>(t + span), barrier_tid,
                     static_cast<unsigned long long>(r.round),
                     static_cast<unsigned long long>(r.vtime),
                     static_cast<unsigned long long>(r.boundary_hwm)));
    w.emit(strformat("{\"name\":\"BARRIER\",\"cat\":\"shard\",\"ph\":\"E\",\"ts\":%llu,"
                     "\"pid\":1,\"tid\":%d}",
                     static_cast<unsigned long long>(t + r.wall_ns), barrier_tid));
    t += r.wall_ns;
  }

  out += strformat(
      "\n],\n\"metadata\": {\"clock\":\"wall-ns\",\"workers\":%d,\"rounds\":%llu}\n}\n",
      workers, static_cast<unsigned long long>(rounds.size()));
  return out;
}

Status write_shard_chrome_trace(const std::string& path, const sim::Kernel& kernel,
                                const ChromeTraceOptions& options) {
  std::string json = export_shard_chrome_trace(kernel, options);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::error("cannot write trace: " + path);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return Status{};
}

Status write_journal_chrome_trace(const std::string& path, const obs::Journal& journal,
                                  pedf::Application& app, const ChromeTraceOptions& options) {
  std::string json = export_journal_chrome_trace(journal, app, options);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::error("cannot write trace: " + path);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return Status{};
}

Status write_chrome_trace(const std::string& path, const TraceCollector& trace,
                          pedf::Application& app, const ChromeTraceOptions& options) {
  std::string json = export_chrome_trace(trace, app, options);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::error("cannot write trace: " + path);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return Status{};
}

}  // namespace dfdbg::trace
