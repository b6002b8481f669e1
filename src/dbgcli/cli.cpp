#include "dfdbg/dbgcli/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string_view>
#include <unordered_map>

#include "dfdbg/common/json.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/dbgcli/render.hpp"
#include "dfdbg/debug/export.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/trace/chrome_trace.hpp"
#include "dfdbg/trace/trace.hpp"

namespace dfdbg::cli {

using dbg::ActorBehavior;
using dbg::BpId;
using dbg::RecordPolicy;
using pedf::TypeDesc;
using pedf::Value;

void Console::println(const std::string& line) {
  buf_ += line;
  buf_ += '\n';
  if (echo_) std::fputs((line + "\n").c_str(), stdout);
}

void Console::print(const std::string& text) {
  buf_ += text;
  if (echo_) std::fputs(text.c_str(), stdout);
}

std::string Console::take() {
  std::string out = std::move(buf_);
  buf_.clear();
  return out;
}

Interpreter::Interpreter(dbg::Session& session, bool echo)
    : session_(session), console_(echo) {
  obs::set_enabled(true);
}

Interpreter::~Interpreter() = default;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

Status Interpreter::execute(const std::string& line) {
  std::string_view trimmed = trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return Status{};
  // Normalize "a=1, b=2" comma-space lists before whitespace splitting.
  std::string norm(trimmed);
  for (std::size_t i = 0; i + 1 < norm.size(); ++i) {
    if (norm[i] == ',' && norm[i + 1] == ' ') norm.erase(i + 1, 1);
  }
  std::vector<std::string> words = split_ws(norm);
  const std::string& cmd = words[0];
  std::vector<std::string> args(words.begin() + 1, words.end());

  // Every command word and its handler; aliases repeat their verb's entry.
  using Args = std::vector<std::string>;
  using Verb = Status (*)(Interpreter&, const Args&);
  static const std::unordered_map<std::string_view, Verb> kVerbs = {
      {"run", [](Interpreter& i, const Args& a) { return i.cmd_run(a, false); }},
      {"r", [](Interpreter& i, const Args& a) { return i.cmd_run(a, false); }},
      {"continue", [](Interpreter& i, const Args& a) { return i.cmd_run(a, true); }},
      {"c", [](Interpreter& i, const Args& a) { return i.cmd_run(a, true); }},
      {"filter", [](Interpreter& i, const Args& a) { return i.cmd_filter(a); }},
      {"iface", [](Interpreter& i, const Args& a) { return i.cmd_iface(a); }},
      {"step_both", [](Interpreter& i, const Args& a) { return i.cmd_step_both(a); }},
      {"step", [](Interpreter& i, const Args&) { return i.cmd_step(); }},
      {"s", [](Interpreter& i, const Args&) { return i.cmd_step(); }},
      {"break", [](Interpreter& i, const Args& a) { return i.cmd_break(a); }},
      {"b", [](Interpreter& i, const Args& a) { return i.cmd_break(a); }},
      {"watch", [](Interpreter& i, const Args& a) { return i.cmd_watch(a); }},
      {"list", [](Interpreter& i, const Args& a) { return i.cmd_list(a); }},
      {"l", [](Interpreter& i, const Args& a) { return i.cmd_list(a); }},
      {"print", [](Interpreter& i, const Args& a) { return i.cmd_print(a); }},
      {"p", [](Interpreter& i, const Args& a) { return i.cmd_print(a); }},
      {"graph", [](Interpreter& i, const Args& a) { return i.cmd_graph(a); }},
      {"info", [](Interpreter& i, const Args& a) { return i.cmd_info(a); }},
      {"module", [](Interpreter& i, const Args& a) { return i.cmd_module(a); }},
      {"tok", [](Interpreter& i, const Args& a) { return i.cmd_tok(a); }},
      {"delete", [](Interpreter& i, const Args& a) { return i.cmd_delete(a); }},
      {"ignore", [](Interpreter& i, const Args& a) { return i.cmd_ignore(a); }},
      {"enable", [](Interpreter& i, const Args& a) { return i.cmd_enable(a, true); }},
      {"disable", [](Interpreter& i, const Args& a) { return i.cmd_enable(a, false); }},
      {"focus", [](Interpreter& i, const Args& a) { return i.cmd_focus(a); }},
      {"unfocus", [](Interpreter& i, const Args&) { return i.cmd_unfocus(); }},
      {"help", [](Interpreter& i, const Args&) { return i.cmd_help(); }},
      {"h", [](Interpreter& i, const Args&) { return i.cmd_help(); }},
      {"source", [](Interpreter& i, const Args& a) { return i.cmd_source(a); }},
      {"save", [](Interpreter& i, const Args& a) { return i.cmd_save(a); }},
      {"export", [](Interpreter& i, const Args& a) { return i.cmd_export(a); }},
      {"stats", [](Interpreter& i, const Args& a) { return i.cmd_stats(a); }},
      {"trace", [](Interpreter& i, const Args& a) { return i.cmd_trace(a); }},
      {"profile", [](Interpreter& i, const Args& a) { return i.cmd_profile(a); }},
      {"journal", [](Interpreter& i, const Args& a) { return i.cmd_journal(a); }},
      {"whence", [](Interpreter& i, const Args& a) { return i.cmd_whence(a); }},
  };
  auto verb = kVerbs.find(cmd);
  const bool known = verb != kVerbs.end();

  // Debugger self-profiling: per-command latency and per-command counts.
  // Unknown words share one counter: the debug server's `exec` verb passes
  // client text here, and a counter per word would grow without bound.
  auto& reg = obs::Registry::global();
  static obs::Histogram& cmd_ns = reg.histogram("cli.cmd_ns");
  static obs::Counter& cmd_count = reg.counter("cli.cmd");
  obs::ScopedTimer cmd_timer(cmd_ns);
  if (obs::enabled()) {
    cmd_count.add();
    reg.counter(known ? "cli.cmd." + cmd : "cli.cmd.unknown").add();
  }

  Status s = known ? verb->second(*this, args)
                   : Status::error(ErrCode::kInvalidArgument, "unknown command: " + cmd);
  if (!s.ok()) console_.println("error: " + s.message());
  // Remember successful commands that create replayable debugger state, so
  // `save` can write a .gdbinit-style script.
  if (s.ok()) {
    static const char* kReplayable[] = {"filter", "iface", "break", "watch", "module"};
    bool creates_state = false;
    for (const char* c : kReplayable)
      if (cmd == c) creates_state = true;
    // Pure queries do not belong in the script.
    if (creates_state && norm.find(" info") == std::string::npos &&
        norm.find(" print") == std::string::npos && !starts_with(norm, "filter print"))
      replayable_.push_back(norm);
  }
  return s;
}

int Interpreter::run_script(const std::vector<std::string>& lines) {
  int failures = 0;
  for (const std::string& line : lines) {
    if (!execute(line).ok()) failures++;
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

void Interpreter::flush_notes() {
  for (const std::string& n : session_.take_notes()) console_.println(n);
}

void Interpreter::report_outcome(const dbg::RunOutcome& outcome) {
  flush_notes();
  for (const dbg::StopEvent& ev : outcome.stops) console_.println(ev.message);
}

Status Interpreter::cmd_run(const std::vector<std::string>& args, bool is_continue) {
  (void)is_continue;  // run and continue share semantics on a live kernel
  sim::SimTime until = sim::kMaxSimTime;
  if (!args.empty()) until = std::strtoull(args[0].c_str(), nullptr, 0);
  report_outcome(session_.run(until));
  return Status{};
}

Status Interpreter::cmd_step() {
  Status s = session_.step_line();
  return s.ok() ? cmd_run({}, /*is_continue=*/true) : s;
}

Status Interpreter::cmd_ignore(const std::vector<std::string>& args) {
  if (args.size() < 2)
    return Status::error(ErrCode::kInvalidArgument, "usage: ignore <bp-id> <count>");
  return session_.set_breakpoint_ignore(
      dbg::BpId(static_cast<std::uint32_t>(std::strtoul(args[0].c_str(), nullptr, 0))),
      std::strtoull(args[1].c_str(), nullptr, 0));
}

Status Interpreter::cmd_unfocus() {
  session_.clear_selective_data_hooks();
  console_.println("[Data-exchange breakpoints restored on every interface]");
  return Status{};
}

Status Interpreter::cmd_help() {
  console_.print(help_text());
  return Status{};
}

Status Interpreter::cmd_filter(const std::vector<std::string>& args) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: filter <name|print> ...");
  // `filter print last_token` — applies to the filter of the current stop.
  if (args[0] == "print") {
    if (args.size() < 2 || args[1] != "last_token")
      return Status::error(ErrCode::kInvalidArgument, "usage: filter print last_token");
    const std::string& cur = session_.current_actor();
    if (cur.empty()) return Status::error(ErrCode::kFailedPrecondition, "no current filter (execution never stopped)");
    const dbg::DToken* t = session_.last_token(cur);
    if (t == nullptr) return Status::error(ErrCode::kFailedPrecondition, "filter " + cur + " has no last token");
    int n = session_.store_value(t->value);
    console_.println(strformat("$%d = %s", n, t->value.to_string().c_str()));
    return Status{};
  }

  if (args.size() < 2) return Status::error(ErrCode::kInvalidArgument, "usage: filter <name> <catch|configure|info> ...");
  const std::string& name = args[0];
  const std::string& verb = args[1];

  if (verb == "catch") {
    if (args.size() < 3) return Status::error(ErrCode::kInvalidArgument, "usage: filter <name> catch <spec>");
    if (args[2] == "work") {
      auto id = session_.catch_work(name);
      if (!id.ok()) return id.status();
      console_.println(strformat("Catchpoint %u: stop when WORK of filter `%s' is triggered",
                                 id->value(), name.c_str()));
      return Status{};
    }
    if (args[2] == "schedule") {
      auto id = session_.break_on_schedule(name);
      if (!id.ok()) return id.status();
      console_.println(strformat("Catchpoint %u: stop when a controller schedules `%s'",
                                 id->value(), name.c_str()));
      return Status{};
    }
    // Content condition: `filter pipe catch <port> if <lhs> <op> <rhs>`.
    if (args.size() >= 4 && args[3] == "if") {
      std::string iface = name + "::" + args[2];
      const dbg::DLink* dl = session_.graph().link_by_iface(iface);
      if (dl == nullptr) return Status::error(ErrCode::kNotFound, "no link on interface: " + iface);
      pedf::Link* fl = session_.app().link_by_id(pedf::LinkId(dl->id));
      auto cond = parse_condition(fl->type(),
                                  std::vector<std::string>(args.begin() + 4, args.end()));
      if (!cond.ok()) return cond.status();
      auto id = session_.catch_token_content(iface, cond->first, cond->second);
      if (!id.ok()) return id.status();
      console_.println(strformat("Catchpoint %u: stop when a token on `%s' matches %s",
                                 id->value(), iface.c_str(), cond->second.c_str()));
      return Status{};
    }
    // Token-count spec: "Pipe_in=1,Hwcfg_in=1" or "*in=1", or a bare
    // interface name meaning stop on every reception.
    std::string spec;
    for (std::size_t i = 2; i < args.size(); ++i) spec += args[i];
    if (spec.find('=') == std::string::npos) {
      auto id = session_.break_on_receive(name + "::" + spec);
      if (!id.ok()) return id.status();
      console_.println(strformat("Catchpoint %u: stop after receiving on `%s::%s'",
                                 id->value(), name.c_str(), spec.c_str()));
      return Status{};
    }
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    bool all_inputs = false;
    std::uint64_t all_count = 0;
    for (const std::string& part : split(spec, ',')) {
      if (part.empty()) continue;
      auto eq = part.find('=');
      if (eq == std::string::npos) return Status::error(ErrCode::kInvalidArgument, "malformed catch condition: " + part);
      std::string port = part.substr(0, eq);
      std::uint64_t n = std::strtoull(part.c_str() + eq + 1, nullptr, 0);
      if (port == "*in") {
        all_inputs = true;
        all_count = n;
      } else {
        counts.emplace_back(port, n);
      }
    }
    Result<BpId> id = all_inputs ? session_.catch_all_inputs(name, all_count)
                                 : session_.catch_tokens(name, std::move(counts));
    if (!id.ok()) return id.status();
    console_.println(strformat("Catchpoint %u: filter `%s' catch %s", id->value(), name.c_str(),
                               spec.c_str()));
    return Status{};
  }

  if (verb == "configure") {
    if (args.size() < 3) return Status::error(ErrCode::kInvalidArgument, "usage: filter <name> configure <behavior>");
    ActorBehavior b;
    if (args[2] == "splitter") b = ActorBehavior::kSplitter;
    else if (args[2] == "pipeline") b = ActorBehavior::kPipeline;
    else if (args[2] == "merger") b = ActorBehavior::kMerger;
    else return Status::error(ErrCode::kInvalidArgument, "unknown behavior: " + args[2]);
    if (Status s = session_.configure_behavior(name, b); !s.ok()) return s;
    console_.println("Filter `" + name + "' configured as " + args[2]);
    return Status{};
  }

  if (verb == "info") {
    if (args.size() >= 3 && args[2] == "last_token") {
      auto v = session_.last_token_view(name);
      console_.print(v.ok() ? render_text(*v) : render_error(v.status()));
      return Status{};
    }
    auto v = session_.filter_view(name);
    console_.print(v.ok() ? render_text(*v) : render_error(v.status()));
    return Status{};
  }

  return Status::error(ErrCode::kInvalidArgument, "unknown filter verb: " + verb);
}

Status Interpreter::cmd_iface(const std::vector<std::string>& args) {
  if (args.size() < 2) return Status::error(ErrCode::kInvalidArgument, "usage: iface <actor::port> <record|print|catch>");
  const std::string& iface = args[0];
  const std::string& verb = args[1];
  if (verb == "record") {
    RecordPolicy policy = RecordPolicy::kUnbounded;
    std::size_t bound = 256;
    if (args.size() >= 3 && args[2] == "bounded") {
      policy = RecordPolicy::kBounded;
      if (args.size() >= 4) bound = std::strtoull(args[3].c_str(), nullptr, 0);
    }
    if (Status s = session_.record_iface(iface, policy, bound); !s.ok()) return s;
    console_.println("Recording tokens on `" + iface + "'");
    return Status{};
  }
  if (verb == "print") {
    console_.print(session_.print_recorded(iface));
    return Status{};
  }
  if (verb == "tokens") {
    auto v = session_.link_tokens_view(iface);
    console_.print(v.ok() ? render_text(*v) : render_error(v.status()));
    return Status{};
  }
  if (verb == "catch") {
    if (args.size() >= 4 && args[2] == "occupancy") {
      std::size_t threshold = std::strtoull(args[3].c_str(), nullptr, 0);
      auto id = session_.break_on_occupancy(iface, threshold);
      if (!id.ok()) return id.status();
      console_.println(strformat("Catchpoint %u: stop when `%s' holds >= %zu tokens",
                                 id->value(), iface.c_str(), threshold));
      return Status{};
    }
    if (args.size() >= 4 && args[2] == "from") {
      auto id = session_.catch_token_from(iface, args[3]);
      if (!id.ok()) return id.status();
      console_.println(strformat("Catchpoint %u: stop when `%s' receives a token derived "
                                 "from `%s'",
                                 id->value(), iface.c_str(), args[3].c_str()));
      return Status{};
    }
    if (args.size() >= 3 && args[2] == "if") {
      const dbg::DLink* dl = session_.graph().link_by_iface(iface);
      if (dl == nullptr) return Status::error(ErrCode::kNotFound, "no link on interface: " + iface);
      pedf::Link* fl = session_.app().link_by_id(pedf::LinkId(dl->id));
      auto cond = parse_condition(fl->type(),
                                  std::vector<std::string>(args.begin() + 3, args.end()));
      if (!cond.ok()) return cond.status();
      auto id = session_.catch_token_content(iface, cond->first, cond->second);
      if (!id.ok()) return id.status();
      console_.println(strformat("Catchpoint %u: stop when a token on `%s' matches %s",
                                 id->value(), iface.c_str(), cond->second.c_str()));
      return Status{};
    }
    const dbg::DConnection* c = session_.graph().connection_by_iface(iface);
    if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
    auto id = c->is_input ? session_.break_on_receive(iface) : session_.break_on_send(iface);
    if (!id.ok()) return id.status();
    console_.println(strformat("Catchpoint %u on interface `%s'", id->value(), iface.c_str()));
    return Status{};
  }
  return Status::error(ErrCode::kInvalidArgument, "unknown iface verb: " + verb);
}

Status Interpreter::cmd_step_both(const std::vector<std::string>& args) {
  Status s = args.empty() ? session_.step_both() : session_.step_both_iface(args[0]);
  if (!s.ok()) return s;
  flush_notes();
  return Status{};
}

Status Interpreter::cmd_break(const std::vector<std::string>& args) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: break <filter>:<line>");
  auto colon = args[0].find(':');
  if (colon == std::string::npos) return Status::error(ErrCode::kInvalidArgument, "usage: break <filter>:<line>");
  std::string filter = args[0].substr(0, colon);
  int line = std::atoi(args[0].c_str() + colon + 1);
  auto id = session_.break_source_line(filter, line);
  if (!id.ok()) return id.status();
  console_.println(strformat("Breakpoint %u at %s:%d", id->value(), filter.c_str(), line));
  return Status{};
}

Status Interpreter::cmd_watch(const std::vector<std::string>& args) {
  if (args.size() < 3) return Status::error(ErrCode::kInvalidArgument, "usage: watch <filter> <data|attribute> <name>");
  auto id = session_.watch_variable(args[0], args[1], args[2]);
  if (!id.ok()) return id.status();
  console_.println(strformat("Watchpoint %u: %s.%s.%s", id->value(), args[0].c_str(),
                             args[1].c_str(), args[2].c_str()));
  return Status{};
}

Status Interpreter::cmd_list(const std::vector<std::string>& args) {
  if (args.empty()) {
    const std::string& cur = session_.current_actor();
    if (cur.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: list <filter> [line]");
    console_.print(session_.list_source(cur));
    return Status{};
  }
  int line = args.size() >= 2 ? std::atoi(args[1].c_str()) : 0;
  console_.print(session_.list_source(args[0], line));
  return Status{};
}

Status Interpreter::cmd_print(const std::vector<std::string>& args) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: print <expr>");
  std::string expr = join(args, " ");
  auto v = eval(expr);
  if (!v.ok()) return v.status();
  int n = session_.store_value(*v);
  console_.println(strformat("$%d = %s", n, v->to_string().c_str()));
  return Status{};
}

Status Interpreter::cmd_graph(const std::vector<std::string>& args) {
  bool with_tokens = std::find(args.begin(), args.end(), "tokens") != args.end();
  std::string dot = session_.graph().to_dot(with_tokens);
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == ">") {
      FILE* f = std::fopen(args[i + 1].c_str(), "w");
      if (f == nullptr) return Status::error(ErrCode::kIo, "cannot open " + args[i + 1]);
      std::fputs(dot.c_str(), f);
      std::fclose(f);
      console_.println("Graph written to " + args[i + 1]);
      return Status{};
    }
  }
  console_.print(dot);
  return Status{};
}

Status Interpreter::cmd_info(const std::vector<std::string>& args) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: info <links|breakpoints|sched|actors|tokens|profile|shards|flow>");
  if (args[0] == "links") {
    console_.print(render_text(session_.links_view()));
    return Status{};
  }
  if (args[0] == "breakpoints") {
    for (const auto& bp : session_.breakpoints()) {
      console_.println(strformat("%-4u %-8s %-5s hits=%llu  %s", bp.id.value(),
                                 bp.temporary ? "temp" : "keep", bp.enabled ? "y" : "n",
                                 static_cast<unsigned long long>(bp.hits),
                                 bp.description.c_str()));
    }
    return Status{};
  }
  if (args[0] == "sched") {
    if (args.size() < 2) return Status::error(ErrCode::kInvalidArgument, "usage: info sched <module>");
    auto v = session_.sched_view(args[1]);
    console_.print(v.ok() ? render_text(*v) : render_error(v.status()));
    return Status{};
  }
  if (args[0] == "actors") {
    for (const dbg::DActor& a : session_.graph().actors()) {
      console_.println(strformat("%-20s %-12s pe=%-8s %s", a.path.c_str(),
                                 dbg::to_string(a.kind), a.pe.c_str(), to_string(a.sched)));
    }
    return Status{};
  }
  if (args[0] == "profile") {
    console_.print(render_text(session_.profile_snapshot()));
    return Status{};
  }
  if (args[0] == "shards") {
    console_.print(render_text(session_.shard_profile()));
    return Status{};
  }
  if (args[0] == "tokens") {
    console_.println(strformat(
        "tokens: retained=%zu observed=%llu memory=%zu bytes",
        session_.graph().token_count(),
        static_cast<unsigned long long>(session_.graph().tokens_observed()),
        session_.graph().token_memory_bytes()));
    return Status{};
  }
  if (args[0] == "flow") {
    // Per-link token-flow view: live occupancy from the framework, plus the
    // push/pop traffic the flight recorder still retains for that link.
    const obs::Journal& j = obs::Journal::global();
    std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> window;  // pushes, pops
    for (std::size_t i = 0; i < j.size(); ++i) {
      const obs::JournalEvent& ev = j.at(i);
      if (ev.kind == obs::JournalKind::kTokenPush ||
          ev.kind == obs::JournalKind::kTokenInject)
        window[ev.link].first++;
      else if (ev.kind == obs::JournalKind::kTokenPop)
        window[ev.link].second++;
    }
    console_.println(strformat("%-60s %8s %14s %12s", "link", "tokens", "window pushes",
                               "window pops"));
    for (const auto& l : session_.app().links()) {
      auto it = window.find(l->id().value());
      std::uint64_t wp = it != window.end() ? it->second.first : 0;
      std::uint64_t wo = it != window.end() ? it->second.second : 0;
      console_.println(strformat("%-60s %8zu %14llu %12llu", l->name().c_str(), l->occupancy(),
                                 static_cast<unsigned long long>(wp),
                                 static_cast<unsigned long long>(wo)));
    }
    console_.print(j.summary());
    return Status{};
  }
  return Status::error(ErrCode::kInvalidArgument, "unknown info topic: " + args[0]);
}

Status Interpreter::cmd_module(const std::vector<std::string>& args) {
  if (args.size() < 3 || args[1] != "break")
    return Status::error(ErrCode::kInvalidArgument, "usage: module <name> break <step_begin|step_end|predicate <p>>");
  if (args[2] == "predicate") {
    if (args.size() < 4) return Status::error(ErrCode::kInvalidArgument, "usage: module <name> break predicate <name>");
    auto id = session_.break_on_predicate(args[0], args[3]);
    if (!id.ok()) return id.status();
    console_.println(strformat("Breakpoint %u on predicate `%s' of module `%s'", id->value(),
                               args[3].c_str(), args[0].c_str()));
    return Status{};
  }
  bool at_end = args[2] == "step_end";
  if (!at_end && args[2] != "step_begin")
    return Status::error(ErrCode::kInvalidArgument, "usage: module <name> break <step_begin|step_end|predicate <p>>");
  auto id = session_.break_on_step(args[0], at_end);
  if (!id.ok()) return id.status();
  console_.println(strformat("Breakpoint %u at %s of module `%s'", id->value(), args[2].c_str(),
                             args[0].c_str()));
  return Status{};
}

Status Interpreter::cmd_tok(const std::vector<std::string>& args) {
  if (args.size() < 2) return Status::error(ErrCode::kInvalidArgument, "usage: tok <insert|del|set> <iface> ...");
  const std::string& verb = args[0];
  const std::string& iface = args[1];
  const dbg::DLink* dl = session_.graph().link_by_iface(iface);
  if (dl == nullptr) return Status::error(ErrCode::kNotFound, "no link on interface: " + iface);
  pedf::Link* fl = session_.app().link_by_id(pedf::LinkId(dl->id));

  if (verb == "insert") {
    if (args.size() < 3) return Status::error(ErrCode::kInvalidArgument, "usage: tok insert <iface> <value>");
    auto v = parse_value(fl->type(), args[2]);
    if (!v.ok()) return v.status();
    if (Status s = session_.inject_token(iface, std::move(*v)); !s.ok()) return s;
    console_.println("Token inserted on `" + iface + "'");
    return Status{};
  }
  if (verb == "del") {
    if (args.size() < 3) return Status::error(ErrCode::kInvalidArgument, "usage: tok del <iface> <idx>");
    std::size_t idx = std::strtoull(args[2].c_str(), nullptr, 0);
    if (Status s = session_.remove_token(iface, idx); !s.ok()) return s;
    console_.println(strformat("Token %zu deleted from `%s'", idx, iface.c_str()));
    return Status{};
  }
  if (verb == "set") {
    if (args.size() < 4) return Status::error(ErrCode::kInvalidArgument, "usage: tok set <iface> <idx> <value>");
    std::size_t idx = std::strtoull(args[2].c_str(), nullptr, 0);
    auto v = parse_value(fl->type(), args[3]);
    if (!v.ok()) return v.status();
    if (Status s = session_.replace_token(iface, idx, std::move(*v)); !s.ok()) return s;
    console_.println(strformat("Token %zu of `%s' modified", idx, iface.c_str()));
    return Status{};
  }
  return Status::error(ErrCode::kInvalidArgument, "unknown tok verb: " + verb);
}

Status Interpreter::cmd_delete(const std::vector<std::string>& args) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: delete <bp-id>");
  return session_.delete_breakpoint(
      BpId(static_cast<std::uint32_t>(std::strtoul(args[0].c_str(), nullptr, 0))));
}

Status Interpreter::cmd_enable(const std::vector<std::string>& args, bool enable) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: enable|disable <bp-id|data-exchange>");
  if (args[0] == "data-exchange") {
    session_.set_data_exchange_hooks(enable);
    console_.println(std::string("[Data-exchange breakpoints ") +
                     (enable ? "enabled]" : "disabled]"));
    return Status{};
  }
  return session_.set_breakpoint_enabled(
      BpId(static_cast<std::uint32_t>(std::strtoul(args[0].c_str(), nullptr, 0))), enable);
}

Status Interpreter::cmd_focus(const std::vector<std::string>& args) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: focus <iface> [iface...]");
  if (Status s = session_.use_selective_data_hooks(args); !s.ok()) return s;
  console_.println(strformat(
      "[Framework cooperation: data-exchange breakpoints restricted to %zu interface(s)]",
      args.size()));
  return Status{};
}

Status Interpreter::cmd_source(const std::vector<std::string>& args) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: source <script-file>");
  FILE* f = std::fopen(args[0].c_str(), "r");
  if (f == nullptr) return Status::error(ErrCode::kIo, "cannot open script: " + args[0]);
  std::vector<std::string> lines;
  char buf[1024];
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
    lines.push_back(std::move(line));
  }
  std::fclose(f);
  int failures = run_script(lines);
  if (failures > 0)
    return Status::error(strformat("%d command(s) in %s failed", failures, args[0].c_str()));
  return Status{};
}

Status Interpreter::cmd_save(const std::vector<std::string>& args) {
  if (args.empty()) return Status::error(ErrCode::kInvalidArgument, "usage: save <script-file>");
  FILE* f = std::fopen(args[0].c_str(), "w");
  if (f == nullptr) return Status::error(ErrCode::kIo, "cannot write script: " + args[0]);
  std::fputs("# dataflow-dbg session script (replay with `source`)\n", f);
  for (const std::string& line : replayable_) {
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
  console_.println(strformat("Saved %zu command(s) to %s", replayable_.size(),
                             args[0].c_str()));
  return Status{};
}

Status Interpreter::cmd_export(const std::vector<std::string>& args) {
  std::string json = dbg::export_state_json(session_);
  if (args.empty()) {
    console_.print(json);
    return Status{};
  }
  FILE* f = std::fopen(args[0].c_str(), "w");
  if (f == nullptr) return Status::error(ErrCode::kIo, "cannot write: " + args[0]);
  std::fputs(json.c_str(), f);
  std::fclose(f);
  console_.println(strformat("State exported to %s (%zu bytes)", args[0].c_str(), json.size()));
  return Status{};
}

Status Interpreter::cmd_stats(const std::vector<std::string>& args) {
  auto& reg = obs::Registry::global();
  if (args.empty()) {
    console_.print(reg.to_text());
    return Status{};
  }
  if (args[0] == "reset") {
    reg.reset();
    console_.println("[All metric instruments reset to zero]");
    return Status{};
  }
  if (args[0] == "json") {
    console_.print(reg.to_json());
    console_.print("\n");
    return Status{};
  }
  if (args[0] == "delta") {
    // Changed keys since the previous `stats delta` (the first call prints
    // the whole registry) — the CLI's view of the server's stats.delta push
    // stream, backed by the same snapshot API.
    std::size_t changed = 0;
    console_.print(reg.snapshot_delta(stats_prev_, &changed));
    console_.print("\n");
    console_.println(strformat("[%zu instrument(s) changed]", changed));
    return Status{};
  }
  if (args[0] == "prom") {
    console_.print(reg.to_prometheus());
    return Status{};
  }
  return Status::error(ErrCode::kInvalidArgument, "usage: stats [reset|json|delta|prom]");
}

Status Interpreter::cmd_trace(const std::vector<std::string>& args) {
  if (args.empty())
    return Status::error(ErrCode::kInvalidArgument,
                         "usage: trace on [capacity] | off | stats | shards <file>");
  if (args[0] == "on") {
    if (trace_ != nullptr && trace_->attached())
      return Status::error(ErrCode::kFailedPrecondition, "trace collector already attached");
    std::size_t capacity = 65536;
    if (args.size() > 1) {
      capacity = std::strtoull(args[1].c_str(), nullptr, 0);
      if (capacity == 0) return Status::error(ErrCode::kInvalidArgument, "malformed capacity: " + args[1]);
    }
    // `trace on` after `trace off` starts a fresh window: the old collector
    // (still readable via `trace stats` / `profile export`) is replaced.
    trace_ = std::make_unique<trace::TraceCollector>(session_.app(), capacity);
    trace_->attach();
    console_.println(strformat("[Trace collector attached, window capacity %zu]", capacity));
    return Status{};
  }
  if (args[0] == "off") {
    if (trace_ == nullptr || !trace_->attached())
      return Status::error(ErrCode::kFailedPrecondition, "no trace collector attached");
    trace_->detach();
    console_.println(strformat(
        "[Trace collector detached; %zu event(s) retained — `profile export` to save]",
        trace_->events().size()));
    return Status{};
  }
  if (args[0] == "stats") {
    if (trace_ == nullptr) return Status::error(ErrCode::kFailedPrecondition, "no trace collector — `trace on` first");
    console_.print(trace_->summary());
    return Status{};
  }
  if (args[0] == "shards") {
    // Shard time-attribution export reads the kernel's round ring directly;
    // no TraceCollector needed (it only fills under the parallel backend
    // with metrics enabled — see docs/OBSERVABILITY.md "Shard profile").
    if (args.size() != 2)
      return Status::error(ErrCode::kInvalidArgument, "usage: trace shards <file>");
    const sim::Kernel& k = session_.app().kernel();
    Status s = trace::write_shard_chrome_trace(args[1], k);
    if (!s.ok()) return s;
    console_.println(strformat("[Shard trace written to %s: %d worker track(s), %zu round(s)]",
                               args[1].c_str(), k.partition_count(),
                               k.round_records().size()));
    return Status{};
  }
  return Status::error(ErrCode::kInvalidArgument,
                       "usage: trace on [capacity] | off | stats | shards <file>");
}

Status Interpreter::cmd_profile(const std::vector<std::string>& args) {
  if (args.size() < 2 || args[0] != "export")
    return Status::error(ErrCode::kInvalidArgument, "usage: profile export <file.json>");
  if (trace_ == nullptr)
    return Status::error(ErrCode::kFailedPrecondition, "no trace collector — `trace on`, run, then export");
  trace::ChromeTraceOptions options;
  options.journal = &obs::Journal::global();  // overlay token flow arrows
  Status s = trace::write_chrome_trace(args[1], *trace_, session_.app(), options);
  if (!s.ok()) return s;
  console_.println(strformat(
      "Exported %zu event(s) to %s (load in https://ui.perfetto.dev or chrome://tracing)",
      trace_->events().size(), args[1].c_str()));
  return Status{};
}

Status Interpreter::cmd_journal(const std::vector<std::string>& args) {
  obs::Journal& j = obs::Journal::global();
  if (args.empty()) {
    console_.print(j.summary());
    return Status{};
  }
  if (args[0] == "last") {
    std::size_t n = 20;
    if (args.size() > 1) {
      n = std::strtoull(args[1].c_str(), nullptr, 0);
      if (n == 0) return Status::error(ErrCode::kInvalidArgument, "malformed count: " + args[1]);
    }
    console_.print(j.format_last(n, [this](std::uint32_t link) {
      pedf::Link* l = session_.app().link_by_id(pedf::LinkId(link));
      return l != nullptr ? l->name() : strformat("link#%u", link);
    }));
    return Status{};
  }
  if (args[0] == "dump") {
    if (args.size() < 2) return Status::error(ErrCode::kInvalidArgument, "usage: journal dump <file.json> [--json]");
    // `--json` writes the raw event window through the shared encoder
    // instead of the Chrome-trace flow-event projection.
    bool raw_json = std::find(args.begin() + 2, args.end(), "--json") != args.end();
    if (raw_json) {
      JsonWriter w;
      j.write_json(w, [this](std::uint32_t link) {
        pedf::Link* l = session_.app().link_by_id(pedf::LinkId(link));
        return l != nullptr ? l->name() : strformat("link#%u", link);
      });
      FILE* f = std::fopen(args[1].c_str(), "w");
      if (f == nullptr) return Status::error(ErrCode::kIo, "cannot write: " + args[1]);
      std::fputs(w.str().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      console_.println(strformat("Journal exported to %s: %zu raw event(s), %llu dropped",
                                 args[1].c_str(), j.size(),
                                 static_cast<unsigned long long>(j.dropped())));
      return Status{};
    }
    trace::ChromeTraceOptions options;
    options.dispatch_instants = true;
    Status s = trace::write_journal_chrome_trace(args[1], j, session_.app(), options);
    if (!s.ok()) return s;
    console_.println(strformat(
        "Journal exported to %s: %zu event(s), %llu dropped (Perfetto flow arrows included)",
        args[1].c_str(), j.size(), static_cast<unsigned long long>(j.dropped())));
    return Status{};
  }
  if (args[0] == "capacity") {
    if (args.size() < 2) return Status::error(ErrCode::kInvalidArgument, "usage: journal capacity <events>");
    std::size_t cap = std::strtoull(args[1].c_str(), nullptr, 0);
    if (cap == 0) return Status::error(ErrCode::kInvalidArgument, "malformed capacity: " + args[1]);
    j.set_capacity(cap);
    console_.println(strformat("[Journal capacity set to %zu event(s); window cleared]", cap));
    return Status{};
  }
  if (args[0] == "on" || args[0] == "off") {
    j.set_recording(args[0] == "on");
    console_.println(std::string("[Journal recording ") +
                     (j.recording() ? "enabled]" : "disabled]"));
    return Status{};
  }
  if (args[0] == "clear") {
    j.clear();
    console_.println("[Journal cleared]");
    return Status{};
  }
  if (args[0] == "tail") {
    // Cursor-based resumable read: `journal tail` continues from the last
    // tail (from "now" on first use); `journal tail <cursor>` resumes an
    // explicit position (0 = oldest retained, reporting what was lost).
    if (args.size() > 1) {
      char* end = nullptr;
      journal_cursor_ = std::strtoull(args[1].c_str(), &end, 0);
      if (end == args[1].c_str())
        return Status::error(ErrCode::kInvalidArgument, "malformed cursor: " + args[1]);
    } else if (!journal_tailing_) {
      journal_cursor_ = j.cursor();
    }
    journal_tailing_ = true;
    auto namer = [this](std::uint32_t link) {
      pedf::Link* l = session_.app().link_by_id(pedf::LinkId(link));
      return l != nullptr ? l->name() : strformat("link#%u", link);
    };
    obs::Journal::Slice s =
        j.read_from(journal_cursor_, SIZE_MAX,
                    [&](const obs::JournalEvent& ev) { console_.println(j.format_event(ev, namer)); });
    if (s.gap > 0)
      console_.println(strformat("[gap: %llu event(s) evicted before the cursor]",
                                 static_cast<unsigned long long>(s.gap)));
    journal_cursor_ = s.next;
    console_.println(strformat("[%zu event(s); next cursor %llu]", s.count,
                               static_cast<unsigned long long>(s.next)));
    return Status{};
  }
  return Status::error(ErrCode::kInvalidArgument,
                       "usage: journal [last N | tail [cursor] | dump <file> | capacity N | on | off | clear]");
}

Status Interpreter::cmd_whence(const std::vector<std::string>& args_in) {
  // `--json` switches to the wire encoding (the same serializer the debug
  // server uses); it may appear anywhere on the line.
  std::vector<std::string> args;
  bool json = false;
  for (const std::string& a : args_in) {
    if (a == "--json") json = true;
    else args.push_back(a);
  }
  if (args.empty())
    return Status::error(ErrCode::kInvalidArgument, "usage: whence <actor::port> <slot> [depth] [--json]");
  std::size_t slot = args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 0) : 0;
  std::size_t depth = args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 0) : 8;
  if (depth == 0) return Status::error(ErrCode::kInvalidArgument, "depth must be >= 1");
  auto v = session_.whence_chain(args[0], slot, depth);
  if (json) {
    if (!v.ok()) return v.status();
    JsonWriter w;
    dbg::to_json(w, *v);
    console_.println(w.take());
    return Status{};
  }
  console_.print(v.ok() ? render_text(*v) : render_error(v.status()));
  return Status{};
}

std::string Interpreter::help_text() {
  return
      "Dataflow debugging commands (paper syntax):\n"
      "  run / continue [until]            start or resume the execution\n"
      "  filter <f> catch work             stop when <f>'s WORK method fires\n"
      "  filter <f> catch A=1,B=2          stop after the given token counts\n"
      "  filter <f> catch *in=N            same condition on every input\n"
      "  filter <f> catch <port>           stop on every reception on <port>\n"
      "  filter <f> catch schedule         stop when a controller schedules <f>\n"
      "  filter <f> configure splitter|pipeline|merger   provenance behaviour\n"
      "  filter <f> info [last_token]      actor state / token provenance chain\n"
      "  filter print last_token           $N = payload of the last token\n"
      "  iface <a::p> record [bounded N]   record token contents\n"
      "  iface <a::p> print                dump the recording\n"
      "  iface <a::p> tokens               tokens currently in flight\n"
      "  step                              stop at the next source line\n"
      "  iface <a::p> catch [occupancy N | from <actor> | if <f> <op> <n>]\n"
      "  filter <f> catch <port> if <field|value> <op> <n>   content condition\n"
      "  step_both [out-iface]             temp breakpoints at both link ends\n"
      "  module <m> break step_begin|step_end|predicate <p>\n"
      "  break <f>:<line> / watch <f> data|attribute <name>   two-level debugging\n"
      "  list [<f> [line]] / print <expr>  source listing, $N / <f>.data.<x> eval\n"
      "  tok insert|del|set <iface> ...    alter the token flow (while stopped)\n"
      "  graph [tokens] [> file]           reconstructed graph as DOT\n"
      "  info links|breakpoints|sched <m>|actors|tokens|profile|shards\n"
      "  ignore <bp> <count>               skip the next <count> triggers\n"
      "  enable|disable <bp|data-exchange> breakpoint control (option 1)\n"
      "  focus <iface...> / unfocus        framework cooperation (option 2)\n"
      "  save <file> / source <script>     persist & replay the session setup\n"
      "  export [file]                     session state as JSON (for UIs)\n"
      "  stats [reset|json|delta|prom]     debugger self-metrics (obs registry)\n"
      "  trace on [capacity] | off | stats offline event collection window\n"
      "  trace shards <file>               shard attribution as Perfetto JSON\n"
      "  profile export <file.json>        trace window as Chrome/Perfetto JSON\n"
      "  journal [last N|tail [cur]|dump <f> [--json]|capacity N|on|off|clear]  flight recorder\n"
      "  whence <a::p> <slot> [depth] [--json]   causal chain of a queued token\n"
      "  info flow                         live occupancy + journal window per link\n"
      "  delete <bp> / help\n";
}

// ---------------------------------------------------------------------------
// Values & expressions
// ---------------------------------------------------------------------------

Result<Value> Interpreter::parse_value(const TypeDesc& type, const std::string& text) {
  if (!type.is_struct()) {
    char* end = nullptr;
    std::uint64_t bits = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str()) return Status::error(ErrCode::kInvalidArgument, "malformed scalar value: " + text);
    Value v = Value::zero_of(type);
    v.set_scalar_u64(bits);
    return v;
  }
  Value v = Value::make_struct(type.struct_type());
  for (const std::string& part : split(text, ',')) {
    if (part.empty()) continue;
    auto eq = part.find('=');
    if (eq == std::string::npos)
      return Status::error(ErrCode::kInvalidArgument, "malformed struct field assignment: " + part);
    std::string field = part.substr(0, eq);
    if (type.struct_type()->field_index(field) < 0)
      return Status::error(ErrCode::kNotFound, "struct " + type.name() + " has no field '" + field + "'");
    v.set_field(field, std::strtoull(part.c_str() + eq + 1, nullptr, 0));
  }
  return v;
}

Result<std::pair<std::function<bool(const Value&)>, std::string>> Interpreter::parse_condition(
    const TypeDesc& type, const std::vector<std::string>& words) {
  if (words.size() != 3)
    return Status::error(ErrCode::kInvalidArgument, "condition must be `<value|field> <op> <number>`");
  const std::string& lhs = words[0];
  const std::string& op = words[1];
  char* end = nullptr;
  std::uint64_t rhs = std::strtoull(words[2].c_str(), &end, 0);
  if (end == words[2].c_str()) return Status::error(ErrCode::kInvalidArgument, "malformed number: " + words[2]);

  int field_index = -1;
  if (lhs == "value") {
    if (type.is_struct())
      return Status::error(ErrCode::kInvalidArgument, "tokens of type " + type.name() + " need a field name, not `value`");
  } else {
    if (!type.is_struct())
      return Status::error(ErrCode::kInvalidArgument, "scalar tokens are addressed as `value`, not `" + lhs + "`");
    field_index = type.struct_type()->field_index(lhs);
    if (field_index < 0)
      return Status::error(ErrCode::kNotFound, "struct " + type.name() + " has no field '" + lhs + "'");
  }

  std::function<bool(std::uint64_t, std::uint64_t)> cmp;
  if (op == "==") cmp = [](std::uint64_t a, std::uint64_t b) { return a == b; };
  else if (op == "!=") cmp = [](std::uint64_t a, std::uint64_t b) { return a != b; };
  else if (op == "<") cmp = [](std::uint64_t a, std::uint64_t b) { return a < b; };
  else if (op == "<=") cmp = [](std::uint64_t a, std::uint64_t b) { return a <= b; };
  else if (op == ">") cmp = [](std::uint64_t a, std::uint64_t b) { return a > b; };
  else if (op == ">=") cmp = [](std::uint64_t a, std::uint64_t b) { return a >= b; };
  else return Status::error(ErrCode::kInvalidArgument, "unknown comparison operator: " + op);

  auto pred = [field_index, cmp, rhs](const Value& v) {
    std::uint64_t actual = field_index < 0
                               ? v.as_u64()
                               : v.field_u64_at(static_cast<std::size_t>(field_index));
    return cmp(actual, rhs);
  };
  std::string desc = lhs + " " + op + " " + words[2];
  return std::make_pair(std::function<bool(const Value&)>(pred), desc);
}

Result<Value> Interpreter::eval(const std::string& expr_in) const {
  std::string expr(trim(expr_in));
  // $N or $N.field
  if (!expr.empty() && expr[0] == '$') {
    auto dot = expr.find('.');
    int n = std::atoi(expr.c_str() + 1);
    auto v = session_.value_history(n);
    if (!v.ok()) return v.status();
    if (dot == std::string::npos) return *v;
    std::string field = expr.substr(dot + 1);
    if (!v->type().is_struct()) return Status::error(ErrCode::kInvalidArgument, "$" + std::to_string(n) + " is not a struct");
    if (v->type().struct_type()->field_index(field) < 0)
      return Status::error(ErrCode::kNotFound, "no field '" + field + "' in " + v->type().name());
    return Value::u32(static_cast<std::uint32_t>(v->field_u64(field)));
  }
  // last_token[.field] — of the current stop's filter
  if (starts_with(expr, "last_token")) {
    const std::string& cur = session_.current_actor();
    if (cur.empty()) return Status::error(ErrCode::kFailedPrecondition, "no current filter");
    const dbg::DToken* t = session_.last_token(cur);
    if (t == nullptr) return Status::error(ErrCode::kFailedPrecondition, "filter " + cur + " has no last token");
    if (expr == "last_token") return t->value;
    if (expr.size() > 11 && expr[10] == '.') {
      std::string field = expr.substr(11);
      if (!t->value.type().is_struct()) return Status::error(ErrCode::kInvalidArgument, "last_token is not a struct");
      if (t->value.type().struct_type()->field_index(field) < 0)
        return Status::error(ErrCode::kNotFound, "no field '" + field + "' in " + t->value.type().name());
      return Value::u32(static_cast<std::uint32_t>(t->value.field_u64(field)));
    }
    return Status::error(ErrCode::kInvalidArgument, "malformed expression: " + expr);
  }
  // <filter>.data.<name> / <filter>.attribute.<name>
  std::vector<std::string> parts = split(expr, '.');
  if (parts.size() == 3 && (parts[1] == "data" || parts[1] == "attribute"))
    return session_.read_variable(parts[0], parts[1], parts[2]);
  return Status::error(ErrCode::kInvalidArgument, "cannot evaluate expression: " + expr);
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

std::vector<std::string> Interpreter::complete(const std::string& partial) const {
  static const std::vector<std::string> kCommands = {
      "run",    "continue", "filter", "iface",  "step_both", "break",   "watch",
      "list",   "print",    "graph",  "info",   "module",    "tok",     "delete",
      "enable", "disable",  "focus",  "unfocus", "stats",    "trace",   "profile",
      "journal", "whence"};
  static const std::vector<std::string> kFilterVerbs = {"catch", "configure", "info", "print"};
  static const std::vector<std::string> kIfaceVerbs = {"record", "print", "catch"};

  std::vector<std::string> words = split_ws(partial);
  bool fresh_word = partial.empty() || std::isspace(static_cast<unsigned char>(partial.back()));
  std::string stem = fresh_word || words.empty() ? "" : words.back();
  std::size_t done = words.size() - (fresh_word ? 0 : 1);

  std::vector<std::string> pool;
  if (done == 0) {
    pool = kCommands;
  } else if (words[0] == "filter" && done == 1) {
    for (const dbg::DActor& a : session_.graph().actors())
      if (a.kind == dbg::DActorKind::kFilter) pool.push_back(a.name);
    pool.push_back("print");
  } else if (words[0] == "filter" && done == 2) {
    pool = kFilterVerbs;
  } else if (words[0] == "filter" && done == 3 && words[2] == "catch") {
    // interface names of that filter, plus work/schedule/*in
    const dbg::DActor* a = session_.graph().actor_by_name(words[1]);
    if (a != nullptr) {
      for (std::uint32_t ci : a->in_conns)
        pool.push_back(session_.graph().connections()[ci].port);
    }
    pool.push_back("work");
    pool.push_back("schedule");
    pool.push_back("*in=1");
  } else if (words[0] == "iface" && done == 1) {
    for (const dbg::DConnection& c : session_.graph().connections()) pool.push_back(c.iface());
  } else if (words[0] == "iface" && done == 2) {
    pool = kIfaceVerbs;
  } else if ((words[0] == "step_both" || words[0] == "tok" || words[0] == "focus" ||
              words[0] == "whence") &&
             done >= 1) {
    for (const dbg::DConnection& c : session_.graph().connections()) pool.push_back(c.iface());
  } else {
    pool = session_.graph().completion_names();
  }

  std::vector<std::string> out;
  for (const std::string& cand : pool)
    if (starts_with(cand, stem)) out.push_back(cand);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace dfdbg::cli
