// Text renderers over the structured views: the CLI's transcript bytes for
// the data the debug server serializes as JSON (views.hpp to_json).
#include "dfdbg/dbgcli/render.hpp"

#include "dfdbg/common/strings.hpp"
#include "dfdbg/debug/session.hpp"

namespace dfdbg::cli {

using ull = unsigned long long;

std::string render_text(const dbg::LinkView& v) {
  std::string out;
  for (const dbg::LinkRow& l : v.links) {
    out += strformat("%-60s %6zu token(s)  pushes=%llu pops=%llu hwm=%zu [%s]\n", l.name.c_str(),
                     l.occupancy, static_cast<ull>(l.pushes), static_cast<ull>(l.pops),
                     l.high_watermark, l.transport.c_str());
  }
  return out;
}

std::string render_text(const dbg::FilterView& v) {
  std::string out = "filter `" + v.name + "' (" + v.path + ")\n";
  out += "  state:    " + v.state + "\n";
  out += strformat("  firings:  %llu\n", static_cast<ull>(v.firings));
  if (v.line > 0) out += strformat("  line:     %d\n", v.line);
  out += "  pe:       " + v.pe + "\n";
  out += "  behavior: " + v.behavior + "\n";
  if (v.has_blocked) {
    switch (v.blocked) {
      case dbg::FilterView::Blocked::kNone:
        out += "  blocked:  no\n";
        break;
      case dbg::FilterView::Blocked::kLinkEmpty:
        out += "  blocked:  waiting for data on `" + v.blocked_link + "'\n";
        break;
      case dbg::FilterView::Blocked::kLinkFull:
        out += "  blocked:  waiting for space on `" + v.blocked_link + "'\n";
        break;
      case dbg::FilterView::Blocked::kStart:
        out += "  blocked:  waiting to be scheduled\n";
        break;
      case dbg::FilterView::Blocked::kStep:
        out += "  blocked:  waiting for step completion\n";
        break;
    }
  }
  return out;
}

std::string render_text(const dbg::SchedView& v) {
  std::string out = strformat("module `%s' step %llu  [backend=%s workers=%d]\n",
                              v.module.c_str(), static_cast<ull>(v.step), v.backend.c_str(),
                              v.workers);
  for (const dbg::SchedRow& r : v.rows) {
    out += strformat("  %-16s %-14s firings=%llu\n", r.name.c_str(), r.state.c_str(),
                     static_cast<ull>(r.firings));
  }
  return out;
}

std::string render_text(const dbg::TokenView& v) {
  std::string out;
  int n = 1;
  for (const dbg::TokenHop& h : v.hops) {
    out += strformat("#%d %s", n++, h.desc.c_str());
    if (h.injected) out += "  (injected by debugger)";
    out += "\n";
  }
  return out;
}

std::string render_text(const dbg::WhenceChain& v) {
  std::string out =
      strformat("causal chain of slot %zu of `%s' (newest first):\n", v.slot, v.link.c_str());
  int n = 1;
  for (const dbg::TokenHop& h : v.hops) {
    out += strformat("#%d tok#%llu %s", n++, static_cast<ull>(h.uid), h.desc.c_str());
    if (h.injected) out += "  (injected by debugger)";
    out += strformat("  [pushed@t=%llu]", static_cast<ull>(h.pushed_at));
    out += "\n";
  }
  if (v.truncated) out += strformat("... (chain truncated at %zu hops)\n", v.depth);
  if (v.has_source) {
    out += "source: " + v.source_actor;
    if (v.source_injected) out += " (debugger injection)";
    out += "\n";
  }
  return out;
}

std::string render_text(const dbg::LinkTokensView& v) {
  if (v.tokens.empty()) return "link `" + v.link + "' is empty\n";
  std::string out = strformat("link `%s' holds %zu token(s):\n", v.link.c_str(), v.tokens.size());
  for (const dbg::LinkTokenRow& t : v.tokens) {
    if (t.pruned) {
      out += strformat("  #%zu <pruned>\n", t.slot);
    } else {
      out += strformat("  #%zu %s  (pushed at t=%llu%s)\n", t.slot, t.value.c_str(),
                       static_cast<ull>(t.pushed_at),
                       t.injected ? ", injected by debugger" : "");
    }
  }
  return out;
}

std::string render_text(const dbg::ProfileSnapshot& v) {
  std::string out = strformat("t=%llu cycles, %llu scheduler dispatches\n",
                              static_cast<ull>(v.now), static_cast<ull>(v.dispatches));
  out += strformat("%-22s %-10s %9s %14s %13s\n", "actor", "pe", "firings", "sim cycles",
                   "activations");
  for (const dbg::ProfileRow& r : v.rows) {
    out += strformat("%-22s %-10s %9llu %14llu %13llu\n", r.path.c_str(), r.pe.c_str(),
                     static_cast<ull>(r.firings), static_cast<ull>(r.cycles),
                     static_cast<ull>(r.activations));
  }
  return out;
}

std::string render_text(const dbg::ShardProfileView& v) {
  std::string out =
      strformat("backend=%s workers=%d rounds=%llu elided=%llu records=%llu hwm=%llu\n",
                v.backend.c_str(), v.workers, static_cast<ull>(v.rounds),
                static_cast<ull>(v.elided_rounds), static_cast<ull>(v.records),
                static_cast<ull>(v.boundary_hwm));
  if (v.rows.empty()) {
    out += "  (no shard attribution: parallel backend only)\n";
    return out;
  }
  out += strformat("%-8s %12s %8s %8s %8s %13s %13s %13s %13s %6s\n", "worker", "dispatches",
                   "stalls", "skips", "eager", "work ns", "wait ns", "drain ns", "idle ns",
                   "util");
  for (const dbg::ShardRow& r : v.rows) {
    out += strformat("%-8d %12llu %8llu %8llu %8llu %13llu %13llu %13llu %13llu %5.1f%%\n",
                     r.partition, static_cast<ull>(r.dispatches),
                     static_cast<ull>(r.stalled_rounds), static_cast<ull>(r.skipped_wakes),
                     static_cast<ull>(r.eager_drained), static_cast<ull>(r.work_ns),
                     static_cast<ull>(r.barrier_wait_ns), static_cast<ull>(r.drain_ns),
                     static_cast<ull>(r.idle_ns), r.utilization * 100.0);
  }
  return out;
}

std::string render_error(const Status& s) { return "<" + s.message() + ">"; }

}  // namespace dfdbg::cli
