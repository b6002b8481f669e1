#include "dfdbg/dbgcli/cli.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
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

namespace {

/// A dispatch word (a verb or its alias) and the slot of its
/// `cli.cmd.<word>` counter in Interpreter::cmd_counters_.
struct Word {
  const Verb* verb;
  std::size_t slot;
};

const std::unordered_map<std::string_view, Word>& dispatch_words() {
  static const auto kWords = [] {
    std::unordered_map<std::string_view, Word> words;
    for (const Verb& v : Interpreter::verbs()) {
      words.emplace(v.word, Word{&v, words.size()});
      if (!v.alias.empty()) words.emplace(v.alias, Word{&v, words.size()});
    }
    return words;
  }();
  return kWords;
}

/// Whether a successful `<verb> args` line is setup that `save` writes.
bool is_setup(const Verb& v, const std::vector<std::string>& args) {
  for (const SubVerb& sub : v.subs)
    if (sub.at < args.size() && args[sub.at] == sub.word) return v.replayable && sub.replayable;
  return v.replayable && v.subs.empty();
}

/// A malformed command: usage text, unknown sub-verb or bad literal.
Status invalid(std::string message) {
  return Status::error(ErrCode::kInvalidArgument, std::move(message));
}

/// A numeric operand: all of `text` as an unsigned number (decimal, 0x hex,
/// leading-0 octal) no larger than `max`, else kInvalidArgument naming
/// `what` — so `delete xyz` is refused instead of deleting breakpoint 0.
Result<std::uint64_t> number(const char* what, const std::string& text,
                             std::uint64_t max = UINT64_MAX) {
  if (std::optional<std::uint64_t> v = parse_uint(text, max)) return *v;
  return invalid(strformat("malformed %s: %s", what, text.c_str()));
}

/// A breakpoint id operand.
Result<BpId> bp_id(const std::string& text) {
  auto id = number("breakpoint id", text, UINT32_MAX);
  if (!id.ok()) return id.status();
  return BpId(static_cast<std::uint32_t>(*id));
}

}  // namespace

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

  const auto& table = dispatch_words();
  auto found = table.find(cmd);
  const Verb* verb = found != table.end() ? found->second.verb : nullptr;

  // Debugger self-profiling: per-command latency and per-command counts.
  // Unknown words share one counter: the debug server's `exec` verb passes
  // client text here, and a counter per word would grow without bound.
  auto& reg = obs::Registry::global();
  static obs::Histogram& cmd_ns = reg.histogram("cli.cmd_ns");
  static obs::Counter& cmd_count = reg.counter("cli.cmd");
  obs::ScopedTimer cmd_timer(cmd_ns);
  if (obs::enabled()) {
    cmd_count.add();
    if (cmd_counters_.empty()) cmd_counters_.resize(table.size() + 1, nullptr);
    obs::Counter*& counter = cmd_counters_[verb != nullptr ? found->second.slot : table.size()];
    if (counter == nullptr)
      counter = &reg.counter(verb != nullptr ? "cli.cmd." + cmd : "cli.cmd.unknown");
    counter->add();
  }

  Status s = verb != nullptr ? (this->*verb->run)(args) : invalid("unknown command: " + cmd);
  if (!s.ok()) console_.println("error: " + s.message());
  if (s.ok() && is_setup(*verb, args)) replayable_.push_back(norm);
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

Status Interpreter::report(const Result<BpId>& id, const char* what, const std::string& tail) {
  if (!id.ok()) return id.status();
  return println_ok(strformat("%s %u", what, id->value()) + tail);
}

Status Interpreter::print_ok(const std::string& text) {
  console_.print(text);
  return Status{};
}

Status Interpreter::println_ok(const std::string& line) {
  console_.println(line);
  return Status{};
}

void Interpreter::report_outcome(const dbg::RunOutcome& outcome) {
  flush_notes();
  for (const dbg::StopEvent& ev : outcome.stops) console_.println(ev.message);
}

// `run` and `continue` share semantics on a live kernel.
Status Interpreter::cmd_run(const std::vector<std::string>& args) {
  sim::SimTime until = sim::kMaxSimTime;
  if (!args.empty()) {
    auto t = number("time", args[0]);
    if (!t.ok()) return t.status();
    until = *t;
  }
  report_outcome(session_.run(until));
  return Status{};
}

Status Interpreter::cmd_step(const std::vector<std::string>&) {
  Status s = session_.step_line();
  return s.ok() ? cmd_run({}) : s;
}

Status Interpreter::cmd_ignore(const std::vector<std::string>& args) {
  if (args.size() < 2) return invalid("usage: ignore <bp-id> <count>");
  auto id = bp_id(args[0]);
  if (!id.ok()) return id.status();
  auto count = number("count", args[1]);
  if (!count.ok()) return count.status();
  return session_.set_breakpoint_ignore(*id, *count);
}

Status Interpreter::cmd_unfocus(const std::vector<std::string>&) {
  session_.clear_selective_data_hooks();
  return println_ok("[Data-exchange breakpoints restored on every interface]");
}

Status Interpreter::cmd_help(const std::vector<std::string>&) {
  console_.print("Dataflow debugging commands (paper syntax):\n");
  for (const Verb& v : verbs()) {
    for (const std::string& line : split(v.help, '\n')) {
      const std::size_t tab = line.find('\t');  // "<syntax>\t<effect>"
      console_.println(strformat("  %-33s %s", line.substr(0, tab).c_str(), line.c_str() + tab + 1));
    }
  }
  return Status{};
}

Status Interpreter::cmd_filter(const std::vector<std::string>& args) {
  if (args.empty()) return invalid("usage: filter <name|print> ...");
  // `filter print last_token` — applies to the filter of the current stop.
  if (args[0] == "print") {
    if (args.size() < 2 || args[1] != "last_token")
      return invalid("usage: filter print last_token");
    return cmd_print({"last_token"});
  }

  if (args.size() < 2) return invalid("usage: filter <name> <catch|configure|info> ...");
  const std::string& name = args[0];
  const std::string& verb = args[1];

  if (verb == "catch") {
    if (args.size() < 3) return invalid("usage: filter <name> catch <spec>");
    if (args[2] == "work") {
      return report(session_.catch_work(name), "Catchpoint",
                    strformat(": stop when WORK of filter `%s' is triggered", name.c_str()));
    }
    if (args[2] == "schedule") {
      return report(session_.break_on_schedule(name), "Catchpoint",
                    strformat(": stop when a controller schedules `%s'", name.c_str()));
    }
    // Content condition: `filter pipe catch <port> if <lhs> <op> <rhs>`.
    if (args.size() >= 4 && args[3] == "if") {
      std::string iface = name + "::" + args[2];
      auto type = session_.link_type(iface);
      if (!type.ok()) return type.status();
      auto cond = parse_condition(**type, std::vector<std::string>(args.begin() + 4, args.end()));
      if (!cond.ok()) return cond.status();
      return report(session_.catch_token_content(iface, cond->first, cond->second),
                    "Catchpoint", strformat(": stop when a token on `%s' matches %s",
                                            iface.c_str(), cond->second.c_str()));
    }
    // Token-count spec: "Pipe_in=1,Hwcfg_in=1" or "*in=1", or a bare
    // interface name meaning stop on every reception.
    std::string spec;
    for (std::size_t i = 2; i < args.size(); ++i) spec += args[i];
    if (spec.find('=') == std::string::npos) {
      return report(session_.break_on_receive(name + "::" + spec), "Catchpoint",
                    strformat(": stop after receiving on `%s::%s'", name.c_str(), spec.c_str()));
    }
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    bool all_inputs = false;
    std::uint64_t all_count = 0;
    for (const std::string& part : split(spec, ',')) {
      if (part.empty()) continue;
      auto eq = part.find('=');
      if (eq == std::string::npos) return invalid("malformed catch condition: " + part);
      std::string port = part.substr(0, eq);
      auto n = number("count", part.substr(eq + 1));
      if (!n.ok()) return n.status();
      if (port == "*in") {
        all_inputs = true;
        all_count = *n;
      } else {
        counts.emplace_back(port, *n);
      }
    }
    return report(all_inputs ? session_.catch_all_inputs(name, all_count)
                             : session_.catch_tokens(name, std::move(counts)),
                  "Catchpoint", strformat(": filter `%s' catch %s", name.c_str(), spec.c_str()));
  }

  if (verb == "configure") {
    if (args.size() < 3) return invalid("usage: filter <name> configure <behavior>");
    ActorBehavior b;
    if (args[2] == "splitter") b = ActorBehavior::kSplitter;
    else if (args[2] == "pipeline") b = ActorBehavior::kPipeline;
    else if (args[2] == "merger") b = ActorBehavior::kMerger;
    else return invalid("unknown behavior: " + args[2]);
    if (Status s = session_.configure_behavior(name, b); !s.ok()) return s;
    return println_ok("Filter `" + name + "' configured as " + args[2]);
  }

  if (verb == "info") {
    if (args.size() >= 3 && args[2] == "last_token")
      return print_ok(render_or_error(session_.last_token_view(name)));
    return print_ok(render_or_error(session_.filter_view(name)));
  }

  return invalid("unknown filter verb: " + verb);
}

Status Interpreter::cmd_iface(const std::vector<std::string>& args) {
  if (args.size() < 2) return invalid("usage: iface <actor::port> <record|print|catch>");
  const std::string& iface = args[0];
  const std::string& verb = args[1];
  if (verb == "record") {
    RecordPolicy policy = RecordPolicy::kUnbounded;
    std::size_t bound = 256;
    if (args.size() >= 3 && args[2] == "bounded") {
      policy = RecordPolicy::kBounded;
      if (args.size() >= 4) {
        auto n = number("bound", args[3], SIZE_MAX);
        if (!n.ok()) return n.status();
        bound = *n;
      }
    }
    if (Status s = session_.record_iface(iface, policy, bound); !s.ok()) return s;
    return println_ok("Recording tokens on `" + iface + "'");
  }
  if (verb == "print") return print_ok(session_.print_recorded(iface));
  if (verb == "tokens") return print_ok(render_or_error(session_.link_tokens_view(iface)));
  if (verb == "catch") {
    if (args.size() >= 4 && args[2] == "occupancy") {
      auto threshold = number("occupancy", args[3], SIZE_MAX);
      if (!threshold.ok()) return threshold.status();
      return report(session_.break_on_occupancy(iface, *threshold), "Catchpoint",
                    strformat(": stop when `%s' holds >= %zu tokens", iface.c_str(),
                              static_cast<std::size_t>(*threshold)));
    }
    if (args.size() >= 4 && args[2] == "from") {
      return report(session_.catch_token_from(iface, args[3]), "Catchpoint",
                    strformat(": stop when `%s' receives a token derived from `%s'",
                              iface.c_str(), args[3].c_str()));
    }
    if (args.size() >= 3 && args[2] == "if") {
      auto type = session_.link_type(iface);
      if (!type.ok()) return type.status();
      auto cond = parse_condition(**type, std::vector<std::string>(args.begin() + 3, args.end()));
      if (!cond.ok()) return cond.status();
      return report(session_.catch_token_content(iface, cond->first, cond->second),
                    "Catchpoint", strformat(": stop when a token on `%s' matches %s",
                                            iface.c_str(), cond->second.c_str()));
    }
    const dbg::DConnection* c = session_.graph().connection_by_iface(iface);
    if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
    return report(c->is_input ? session_.break_on_receive(iface) : session_.break_on_send(iface),
                  "Catchpoint", strformat(" on interface `%s'", iface.c_str()));
  }
  return invalid("unknown iface verb: " + verb);
}

Status Interpreter::cmd_step_both(const std::vector<std::string>& args) {
  Status s = args.empty() ? session_.step_both() : session_.step_both_iface(args[0]);
  if (!s.ok()) return s;
  flush_notes();
  return Status{};
}

Status Interpreter::cmd_break(const std::vector<std::string>& args) {
  if (args.empty()) return invalid("usage: break <filter>:<line>");
  auto colon = args[0].find(':');
  if (colon == std::string::npos) return invalid("usage: break <filter>:<line>");
  std::string filter = args[0].substr(0, colon);
  auto line = number("line", args[0].substr(colon + 1), INT_MAX);
  if (!line.ok()) return line.status();
  return report(session_.break_source_line(filter, static_cast<int>(*line)), "Breakpoint",
                strformat(" at %s:%d", filter.c_str(), static_cast<int>(*line)));
}

Status Interpreter::cmd_watch(const std::vector<std::string>& args) {
  if (args.size() < 3) return invalid("usage: watch <filter> <data|attribute> <name>");
  return report(session_.watch_variable(args[0], args[1], args[2]), "Watchpoint",
                strformat(": %s.%s.%s", args[0].c_str(), args[1].c_str(), args[2].c_str()));
}

Status Interpreter::cmd_list(const std::vector<std::string>& args) {
  if (args.empty()) {
    const std::string& cur = session_.current_actor();
    if (cur.empty()) return invalid("usage: list <filter> [line]");
    return print_ok(session_.list_source(cur));
  }
  std::uint64_t line = 0;
  if (args.size() >= 2) {
    auto n = number("line", args[1], INT_MAX);
    if (!n.ok()) return n.status();
    line = *n;
  }
  return print_ok(session_.list_source(args[0], static_cast<int>(line)));
}

Status Interpreter::cmd_print(const std::vector<std::string>& args) {
  if (args.empty()) return invalid("usage: print <expr>");
  std::string expr = join(args, " ");
  auto v = eval(expr);
  if (!v.ok()) return v.status();
  int n = session_.store_value(*v);
  return println_ok(strformat("$%d = %s", n, v->to_string().c_str()));
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
      return println_ok("Graph written to " + args[i + 1]);
    }
  }
  return print_ok(dot);
}

Status Interpreter::cmd_info(const std::vector<std::string>& args) {
  if (args.empty()) return invalid("usage: info <links|breakpoints|sched|actors|tokens|profile|shards|flow>");
  if (args[0] == "links") return print_ok(render_text(session_.links_view()));
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
    if (args.size() < 2) return invalid("usage: info sched <module>");
    return print_ok(render_or_error(session_.sched_view(args[1])));
  }
  if (args[0] == "actors") {
    for (const dbg::DActor& a : session_.graph().actors()) {
      console_.println(strformat("%-20s %-12s pe=%-8s %s", a.path.c_str(),
                                 dbg::to_string(a.kind), a.pe.c_str(), to_string(a.sched)));
    }
    return Status{};
  }
  if (args[0] == "profile") return print_ok(render_text(session_.profile_snapshot()));
  if (args[0] == "shards") return print_ok(render_text(session_.shard_profile()));
  if (args[0] == "tokens") {
    return println_ok(strformat(
        "tokens: retained=%zu observed=%llu memory=%zu bytes", session_.graph().token_count(),
        static_cast<unsigned long long>(session_.graph().tokens_observed()),
        session_.graph().token_memory_bytes()));
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
    return print_ok(j.summary());
  }
  return invalid("unknown info topic: " + args[0]);
}

Status Interpreter::cmd_module(const std::vector<std::string>& args) {
  if (args.size() < 3 || args[1] != "break")
    return invalid("usage: module <name> break <step_begin|step_end|predicate <p>>");
  if (args[2] == "predicate") {
    if (args.size() < 4) return invalid("usage: module <name> break predicate <name>");
    return report(session_.break_on_predicate(args[0], args[3]), "Breakpoint",
                  strformat(" on predicate `%s' of module `%s'", args[3].c_str(), args[0].c_str()));
  }
  bool at_end = args[2] == "step_end";
  if (!at_end && args[2] != "step_begin")
    return invalid("usage: module <name> break <step_begin|step_end|predicate <p>>");
  return report(session_.break_on_step(args[0], at_end), "Breakpoint",
                strformat(" at %s of module `%s'", args[2].c_str(), args[0].c_str()));
}

Status Interpreter::cmd_tok(const std::vector<std::string>& args) {
  if (args.size() < 2) return invalid("usage: tok <insert|del|set> <iface> ...");
  const std::string& verb = args[0];
  const std::string& iface = args[1];
  auto type = session_.link_type(iface);
  if (!type.ok()) return type.status();

  if (verb == "insert") {
    if (args.size() < 3) return invalid("usage: tok insert <iface> <value>");
    auto v = parse_value(**type, args[2]);
    if (!v.ok()) return v.status();
    if (Status s = session_.inject_token(iface, std::move(*v)); !s.ok()) return s;
    return println_ok("Token inserted on `" + iface + "'");
  }
  if (verb == "del") {
    if (args.size() < 3) return invalid("usage: tok del <iface> <idx>");
    auto idx = number("slot", args[2], SIZE_MAX);
    if (!idx.ok()) return idx.status();
    if (Status s = session_.remove_token(iface, *idx); !s.ok()) return s;
    return println_ok(strformat("Token %zu deleted from `%s'", static_cast<std::size_t>(*idx),
                                iface.c_str()));
  }
  if (verb == "set") {
    if (args.size() < 4) return invalid("usage: tok set <iface> <idx> <value>");
    auto idx = number("slot", args[2], SIZE_MAX);
    if (!idx.ok()) return idx.status();
    auto v = parse_value(**type, args[3]);
    if (!v.ok()) return v.status();
    if (Status s = session_.replace_token(iface, *idx, std::move(*v)); !s.ok()) return s;
    return println_ok(strformat("Token %zu of `%s' modified", static_cast<std::size_t>(*idx),
                                iface.c_str()));
  }
  return invalid("unknown tok verb: " + verb);
}

Status Interpreter::cmd_delete(const std::vector<std::string>& args) {
  if (args.empty()) return invalid("usage: delete <bp-id>");
  auto id = bp_id(args[0]);
  if (!id.ok()) return id.status();
  return session_.delete_breakpoint(*id);
}

Status Interpreter::set_enabled(const std::vector<std::string>& args, bool enable) {
  if (args.empty()) return invalid("usage: enable|disable <bp-id|data-exchange>");
  if (args[0] == "data-exchange") {
    session_.set_data_exchange_hooks(enable);
    return println_ok(std::string("[Data-exchange breakpoints ") +
                      (enable ? "enabled]" : "disabled]"));
  }
  auto id = bp_id(args[0]);
  if (!id.ok()) return id.status();
  return session_.set_breakpoint_enabled(*id, enable);
}

Status Interpreter::cmd_focus(const std::vector<std::string>& args) {
  if (args.empty()) return invalid("usage: focus <iface> [iface...]");
  if (Status s = session_.use_selective_data_hooks(args); !s.ok()) return s;
  return println_ok(strformat(
      "[Framework cooperation: data-exchange breakpoints restricted to %zu interface(s)]",
      args.size()));
}

Status Interpreter::cmd_source(const std::vector<std::string>& args) {
  if (args.empty()) return invalid("usage: source <script-file>");
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
  if (args.empty()) return invalid("usage: save <script-file>");
  FILE* f = std::fopen(args[0].c_str(), "w");
  if (f == nullptr) return Status::error(ErrCode::kIo, "cannot write script: " + args[0]);
  std::fputs("# dataflow-dbg session script (replay with `source`)\n", f);
  for (const std::string& line : replayable_) {
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
  return println_ok(
      strformat("Saved %zu command(s) to %s", replayable_.size(), args[0].c_str()));
}

Status Interpreter::cmd_export(const std::vector<std::string>& args) {
  std::string json = dbg::export_state_json(session_);
  if (args.empty()) return print_ok(json);
  FILE* f = std::fopen(args[0].c_str(), "w");
  if (f == nullptr) return Status::error(ErrCode::kIo, "cannot write: " + args[0]);
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return println_ok(strformat("State exported to %s (%zu bytes)", args[0].c_str(), json.size()));
}

Status Interpreter::cmd_stats(const std::vector<std::string>& args) {
  auto& reg = obs::Registry::global();
  if (args.empty()) return print_ok(reg.to_text());
  if (args[0] == "reset") {
    reg.reset();
    return println_ok("[All metric instruments reset to zero]");
  }
  if (args[0] == "json") {
    console_.print(reg.to_json());
    return print_ok("\n");
  }
  if (args[0] == "delta") {
    // Changed keys since the previous `stats delta` (the first call prints
    // the whole registry) — the CLI's view of the server's stats.delta push
    // stream, backed by the same snapshot API.
    std::size_t changed = 0;
    console_.print(reg.snapshot_delta(stats_prev_, &changed));
    console_.print("\n");
    return println_ok(strformat("[%zu instrument(s) changed]", changed));
  }
  if (args[0] == "prom") return print_ok(reg.to_prometheus());
  return invalid("usage: stats [reset|json|delta|prom]");
}

Status Interpreter::cmd_trace(const std::vector<std::string>& args) {
  if (args.empty()) return invalid("usage: trace on [capacity] | off | stats | shards <file>");
  if (args[0] == "on") {
    if (trace_ != nullptr && trace_->attached())
      return Status::error(ErrCode::kFailedPrecondition, "trace collector already attached");
    std::size_t capacity = 65536;
    if (args.size() > 1) {
      auto n = number("capacity", args[1], SIZE_MAX);
      if (!n.ok()) return n.status();
      if (*n == 0) return invalid("malformed capacity: " + args[1]);
      capacity = *n;
    }
    // `trace on` after `trace off` starts a fresh window: the old collector
    // (still readable via `trace stats` / `profile export`) is replaced.
    trace_ = std::make_unique<trace::TraceCollector>(session_.app(), capacity);
    trace_->attach();
    return println_ok(strformat("[Trace collector attached, window capacity %zu]", capacity));
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
    return print_ok(trace_->summary());
  }
  if (args[0] == "shards") {
    // Shard time-attribution export reads the kernel's round ring directly;
    // no TraceCollector needed (it only fills under the parallel backend
    // with metrics enabled — see docs/OBSERVABILITY.md "Shard profile").
    if (args.size() != 2) return invalid("usage: trace shards <file>");
    const sim::Kernel& k = session_.app().kernel();
    Status s = trace::write_shard_chrome_trace(args[1], k);
    if (!s.ok()) return s;
    return println_ok(strformat("[Shard trace written to %s: %d worker track(s), %zu round(s)]",
                                args[1].c_str(), k.partition_count(),
                                k.round_records().size()));
  }
  return invalid("usage: trace on [capacity] | off | stats | shards <file>");
}

Status Interpreter::cmd_profile(const std::vector<std::string>& args) {
  if (args.size() < 2 || args[0] != "export") return invalid("usage: profile export <file.json>");
  if (trace_ == nullptr)
    return Status::error(ErrCode::kFailedPrecondition, "no trace collector — `trace on`, run, then export");
  trace::ChromeTraceOptions options;
  options.journal = &obs::Journal::global();  // overlay token flow arrows
  Status s = trace::write_chrome_trace(args[1], *trace_, session_.app(), options);
  if (!s.ok()) return s;
  return println_ok(strformat(
      "Exported %zu event(s) to %s (load in https://ui.perfetto.dev or chrome://tracing)",
      trace_->events().size(), args[1].c_str()));
}

Status Interpreter::cmd_journal(const std::vector<std::string>& args) {
  obs::Journal& j = obs::Journal::global();
  if (args.empty()) return print_ok(j.summary());
  if (args[0] == "last") {
    std::size_t n = 20;
    if (args.size() > 1) {
      auto count = number("count", args[1], SIZE_MAX);
      if (!count.ok()) return count.status();
      if (*count == 0) return invalid("malformed count: " + args[1]);
      n = *count;
    }
    return print_ok(j.format_last(n, session_.app().link_namer()));
  }
  if (args[0] == "dump") {
    if (args.size() < 2) return invalid("usage: journal dump <file.json> [--json]");
    // `--json` writes the raw event window through the shared encoder
    // instead of the Chrome-trace flow-event projection.
    bool raw_json = std::find(args.begin() + 2, args.end(), "--json") != args.end();
    if (raw_json) {
      JsonWriter w;
      j.write_json(w, session_.app().link_namer());
      FILE* f = std::fopen(args[1].c_str(), "w");
      if (f == nullptr) return Status::error(ErrCode::kIo, "cannot write: " + args[1]);
      std::fputs(w.str().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      return println_ok(strformat("Journal exported to %s: %zu raw event(s), %llu dropped",
                                  args[1].c_str(), j.size(),
                                  static_cast<unsigned long long>(j.dropped())));
    }
    trace::ChromeTraceOptions options;
    options.dispatch_instants = true;
    Status s = trace::write_journal_chrome_trace(args[1], j, session_.app(), options);
    if (!s.ok()) return s;
    return println_ok(strformat(
        "Journal exported to %s: %zu event(s), %llu dropped (Perfetto flow arrows included)",
        args[1].c_str(), j.size(), static_cast<unsigned long long>(j.dropped())));
  }
  if (args[0] == "capacity") {
    if (args.size() < 2) return invalid("usage: journal capacity <events>");
    auto cap = number("capacity", args[1], SIZE_MAX);
    if (!cap.ok()) return cap.status();
    if (*cap == 0) return invalid("malformed capacity: " + args[1]);
    j.set_capacity(*cap);
    console_.println(strformat("[Journal capacity set to %zu event(s); window cleared]",
                               static_cast<std::size_t>(*cap)));
    return Status{};
  }
  if (args[0] == "on" || args[0] == "off") {
    j.set_recording(args[0] == "on");
    return println_ok(std::string("[Journal recording ") +
                      (j.recording() ? "enabled]" : "disabled]"));
  }
  if (args[0] == "clear") {
    j.clear();
    return println_ok("[Journal cleared]");
  }
  if (args[0] == "tail") {
    // Cursor-based resumable read: `journal tail` continues from the last
    // tail (from "now" on first use); `journal tail <cursor>` resumes an
    // explicit position (0 = oldest retained, reporting what was lost).
    if (args.size() > 1) {
      auto cursor = number("cursor", args[1]);
      if (!cursor.ok()) return cursor.status();
      journal_cursor_ = *cursor;
    } else if (!journal_tailing_) {
      journal_cursor_ = j.cursor();
    }
    journal_tailing_ = true;
    const obs::Journal::LinkNamer namer = session_.app().link_namer();
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
  if (args.empty()) return invalid("usage: whence <actor::port> <slot> [depth] [--json]");
  std::uint64_t slot = 0;
  std::uint64_t depth = 8;
  if (args.size() > 1) {
    auto n = number("slot", args[1], SIZE_MAX);
    if (!n.ok()) return n.status();
    slot = *n;
  }
  if (args.size() > 2) {
    auto n = number("depth", args[2], SIZE_MAX);
    if (!n.ok()) return n.status();
    depth = *n;
  }
  if (depth == 0) return invalid("depth must be >= 1");
  auto v = session_.whence_chain(args[0], slot, depth);
  if (json) {
    if (!v.ok()) return v.status();
    JsonWriter w;
    dbg::to_json(w, *v);
    return println_ok(w.take());
  }
  return print_ok(v.ok() ? render_text(*v) : render_error(v.status()));
}

// ---------------------------------------------------------------------------
// Values & expressions
// ---------------------------------------------------------------------------

Result<std::pair<std::function<bool(const Value&)>, std::string>> Interpreter::parse_condition(
    const TypeDesc& type, const std::vector<std::string>& words) {
  if (words.size() != 3) return invalid("condition must be `<value|field> <op> <number>`");
  const std::string& lhs = words[0];
  const std::string& op = words[1];
  auto number_rhs = number("number", words[2]);
  if (!number_rhs.ok()) return number_rhs.status();
  const std::uint64_t rhs = *number_rhs;

  int field_index = -1;
  if (lhs == "value") {
    if (type.is_struct())
      return invalid("tokens of type " + type.name() + " need a field name, not `value`");
  } else {
    if (!type.is_struct())
      return invalid("scalar tokens are addressed as `value`, not `" + lhs + "`");
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
  else return invalid("unknown comparison operator: " + op);

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
    auto index = number("value history index", expr.substr(1, dot - 1), INT_MAX);
    if (!index.ok()) return index.status();
    const int n = static_cast<int>(*index);
    auto v = session_.value_history(n);
    if (!v.ok()) return v.status();
    if (dot == std::string::npos) return *v;
    std::string field = expr.substr(dot + 1);
    if (!v->type().is_struct()) return invalid("$" + std::to_string(n) + " is not a struct");
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
      if (!t->value.type().is_struct()) return invalid("last_token is not a struct");
      if (t->value.type().struct_type()->field_index(field) < 0)
        return Status::error(ErrCode::kNotFound, "no field '" + field + "' in " + t->value.type().name());
      return Value::u32(static_cast<std::uint32_t>(t->value.field_u64(field)));
    }
    return invalid("malformed expression: " + expr);
  }
  // <filter>.data.<name> / <filter>.attribute.<name>
  std::vector<std::string> parts = split(expr, '.');
  if (parts.size() == 3 && (parts[1] == "data" || parts[1] == "attribute"))
    return session_.read_variable(parts[0], parts[1], parts[2]);
  return invalid("cannot evaluate expression: " + expr);
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

std::vector<std::string> Interpreter::complete(const std::string& partial) const {
  std::vector<std::string> words = split_ws(partial);
  bool fresh_word = partial.empty() || std::isspace(static_cast<unsigned char>(partial.back()));
  std::string stem = fresh_word || words.empty() ? "" : words.back();
  std::size_t done = words.size() - (fresh_word ? 0 : 1);

  std::vector<std::string> pool;
  const dbg::GraphModel& graph = session_.graph();
  auto add_operands = [&](Operand kind) {
    if (kind == Operand::kName) {
      for (std::string& n : graph.completion_names()) pool.push_back(std::move(n));
    } else if (kind == Operand::kFilter) {
      for (const dbg::DActor& a : graph.actors())
        if (a.kind == dbg::DActorKind::kFilter) pool.push_back(a.name);
    } else if (kind == Operand::kIface) {
      for (const dbg::DConnection& c : graph.connections()) pool.push_back(c.iface());
    }
  };
  if (done == 0) {
    for (const Verb& v : verbs()) {
      pool.emplace_back(v.word);
      if (!v.alias.empty()) pool.emplace_back(v.alias);
    }
  } else if (auto found = dispatch_words().find(words[0]); found != dispatch_words().end()) {
    const Verb& v = *found->second.verb;
    const std::size_t at = done - 1;  // the argument being completed
    bool sub_position = false;
    for (const SubVerb& sub : v.subs) {
      if (sub.at != at) continue;
      pool.emplace_back(sub.word);
      sub_position = true;
    }
    if (v.operand_at < 0 ? !sub_position : static_cast<std::size_t>(v.operand_at) == at)
      add_operands(v.operand);
    // `filter <f> catch `: that filter's inputs, plus the catch forms.
    if (v.word == "filter" && at == 2 && words[2] == "catch") {
      if (const dbg::DActor* a = graph.actor_by_name(words[1]); a != nullptr)
        for (std::uint32_t ci : a->in_conns) pool.push_back(graph.connections()[ci].port);
      for (const char* form : {"work", "schedule", "*in=1"}) pool.emplace_back(form);
    }
  }

  std::vector<std::string> out;
  for (const std::string& cand : pool)
    if (starts_with(cand, stem)) out.push_back(cand);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// The command table
// ---------------------------------------------------------------------------

std::span<const Verb> Interpreter::verbs() {
  using I = Interpreter;
  static constexpr SubVerb kFilterSubs[] = {
      {"print", 0, false}, {"catch", 1, true}, {"configure", 1, true}, {"info", 1, false}};
  static constexpr SubVerb kIfaceSubs[] = {
      {"record", 1, true}, {"print", 1, false}, {"tokens", 1, false}, {"catch", 1, true}};
  static constexpr SubVerb kModuleSubs[] = {{"break", 1, true}};
  static constexpr SubVerb kInfoSubs[] = {{"links"},  {"breakpoints"}, {"sched"},  {"actors"},
                                          {"tokens"}, {"profile"},     {"shards"}, {"flow"}};
  static constexpr SubVerb kGraphSubs[] = {{"tokens"}};
  static constexpr SubVerb kTokSubs[] = {{"insert"}, {"del"}, {"set"}};
  static constexpr SubVerb kToggleSubs[] = {{"data-exchange"}};
  static constexpr SubVerb kStatsSubs[] = {{"reset"}, {"json"}, {"delta"}, {"prom"}};
  static constexpr SubVerb kTraceSubs[] = {{"on"}, {"off"}, {"stats"}, {"shards"}};
  static constexpr SubVerb kProfileSubs[] = {{"export"}};
  static constexpr SubVerb kJournalSubs[] = {{"last"}, {"tail"}, {"dump"}, {"capacity"},
                                             {"on"},   {"off"},  {"clear"}};
  static constexpr Verb kVerbs[] = {
      {.word = "run", .alias = "r", .run = &I::cmd_run,
       .help = "run / r [until]\tstart the execution (up to sim time <until>)"},
      {.word = "continue", .alias = "c", .run = &I::cmd_run,
       .help = "continue / c [until]\tresume the execution"},
      {.word = "step", .alias = "s", .run = &I::cmd_step,
       .help = "step / s\tstop at the next source line"},
      {.word = "step_both", .run = &I::cmd_step_both, .operand = Operand::kIface,
       .help = "step_both [out-iface]\ttemp breakpoints at both link ends"},
      {.word = "filter", .run = &I::cmd_filter, .replayable = true, .subs = kFilterSubs,
       .operand = Operand::kFilter, .operand_at = 0,
       .help = "filter <f> catch work\tstop when <f>'s WORK method fires\n"
               "filter <f> catch A=1,B=2\tstop after the given token counts\n"
               "filter <f> catch *in=N\tsame condition on every input\n"
               "filter <f> catch <port>\tstop on every reception on <port>\n"
               "filter <f> catch <port> if <field|value> <op> <n>\tcontent condition\n"
               "filter <f> catch schedule\tstop when a controller schedules <f>\n"
               "filter <f> configure splitter|pipeline|merger\tprovenance behaviour\n"
               "filter <f> info [last_token]\tactor state / token provenance chain\n"
               "filter print last_token\t$N = payload of the last token"},
      {.word = "iface", .run = &I::cmd_iface, .replayable = true, .subs = kIfaceSubs,
       .operand = Operand::kIface, .operand_at = 0,
       .help = "iface <a::p> record [bounded N]\trecord token contents\n"
               "iface <a::p> print\tdump the recording\n"
               "iface <a::p> tokens\ttokens currently in flight\n"
               "iface <a::p> catch\tstop on every send/receive\n"
               "iface <a::p> catch occupancy N | from <actor> | if <f> <op> <n>\t"
               "stall, provenance or content condition"},
      {.word = "module", .run = &I::cmd_module, .replayable = true, .subs = kModuleSubs,
       .operand = Operand::kName, .operand_at = 0,
       .help = "module <m> break step_begin|step_end|predicate <p>\tcontroller breakpoints"},
      {.word = "break", .alias = "b", .run = &I::cmd_break, .replayable = true,
       .operand = Operand::kFilter, .operand_at = 0,
       .help = "break / b <f>:<line>\tsource-line breakpoint (two-level debugging)"},
      {.word = "watch", .run = &I::cmd_watch, .replayable = true, .operand = Operand::kFilter,
       .operand_at = 0, .help = "watch <f> data|attribute <name>\tvariable watchpoint"},
      {.word = "list", .alias = "l", .run = &I::cmd_list, .operand = Operand::kFilter,
       .operand_at = 0, .help = "list / l [<f> [line]]\tsource listing"},
      {.word = "print", .alias = "p", .run = &I::cmd_print, .operand = Operand::kName,
       .help = "print / p <expr>\t$N / last_token / <f>.data.<x> eval"},
      {.word = "graph", .run = &I::cmd_graph, .subs = kGraphSubs,
       .help = "graph [tokens] [> file]\treconstructed graph as DOT"},
      {.word = "info", .run = &I::cmd_info, .subs = kInfoSubs, .operand = Operand::kName,
       .help = "info links|breakpoints|actors|tokens\tlinks, breakpoints, actors, token mirror\n"
               "info sched <m>\tscheduling monitor of module <m>\n"
               "info profile|shards\tper-actor profile / parallel shard profile\n"
               "info flow\tlive occupancy + journal window per link"},
      {.word = "tok", .run = &I::cmd_tok, .subs = kTokSubs, .operand = Operand::kIface,
       .operand_at = 1,
       .help = "tok insert|del|set <iface> ...\talter the token flow (while stopped)"},
      {.word = "delete", .run = &I::cmd_delete, .help = "delete <bp>\tremove a breakpoint"},
      {.word = "ignore", .run = &I::cmd_ignore,
       .help = "ignore <bp> <count>\tskip the next <count> triggers"},
      {.word = "enable", .run = &I::cmd_enable, .subs = kToggleSubs,
       .help = "enable <bp|data-exchange>\tbreakpoint control (option 1)"},
      {.word = "disable", .run = &I::cmd_disable, .subs = kToggleSubs,
       .help = "disable <bp|data-exchange>\tbreakpoint control (option 1)"},
      {.word = "focus", .run = &I::cmd_focus, .operand = Operand::kIface,
       .help = "focus <iface...>\tframework cooperation (option 2)"},
      {.word = "unfocus", .run = &I::cmd_unfocus,
       .help = "unfocus\tdata-exchange breakpoints on every interface again"},
      {.word = "save", .run = &I::cmd_save, .help = "save <file>\tpersist the session setup"},
      {.word = "source", .run = &I::cmd_source, .help = "source <script>\treplay a script"},
      {.word = "export", .run = &I::cmd_export,
       .help = "export [file]\tsession state as JSON (for UIs)"},
      {.word = "stats", .run = &I::cmd_stats, .subs = kStatsSubs,
       .help = "stats [reset|json|delta|prom]\tdebugger self-metrics (obs registry)"},
      {.word = "trace", .run = &I::cmd_trace, .subs = kTraceSubs,
       .help = "trace on [capacity] | off | stats\toffline event collection window\n"
               "trace shards <file>\tshard attribution as Perfetto JSON"},
      {.word = "profile", .run = &I::cmd_profile, .subs = kProfileSubs,
       .help = "profile export <file.json>\ttrace window as Chrome/Perfetto JSON"},
      {.word = "journal", .run = &I::cmd_journal, .subs = kJournalSubs,
       .help = "journal [last N|tail [cur]|dump <f> [--json]|capacity N|on|off|clear]\t"
               "flight recorder"},
      {.word = "whence", .run = &I::cmd_whence, .operand = Operand::kIface, .operand_at = 0,
       .help = "whence <a::p> <slot> [depth] [--json]\tcausal chain of a queued token"},
      {.word = "help", .alias = "h", .run = &I::cmd_help, .help = "help / h\tthis summary"},
  };
  return kVerbs;
}

}  // namespace dfdbg::cli
