#include "dfdbg/debug/session.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/pedf/symbols.hpp"

namespace dfdbg::dbg {

using sim::ArgValue;
using sim::Frame;

const char* to_string(StopKind k) {
  switch (k) {
    case StopKind::kCatchWork: return "catch-work";
    case StopKind::kTokenReceived: return "token-received";
    case StopKind::kTokenSent: return "token-sent";
    case StopKind::kCatchTokens: return "catch-tokens";
    case StopKind::kTokenContent: return "token-content";
    case StopKind::kStepBegin: return "step-begin";
    case StopKind::kStepEnd: return "step-end";
    case StopKind::kActorScheduled: return "actor-scheduled";
    case StopKind::kSourceLine: return "source-line";
    case StopKind::kWatchpoint: return "watchpoint";
    case StopKind::kTokenProvenance: return "token-provenance";
    case StopKind::kLinkOccupancy: return "link-occupancy";
    case StopKind::kPredicateEval: return "predicate-eval";
    case StopKind::kDeadlock: return "deadlock";
    case StopKind::kFinished: return "finished";
    case StopKind::kTimeLimit: return "time-limit";
  }
  return "?";
}

/// One registered breakpoint-like rule.
struct Session::Rule {
  enum class Type {
    kWork,
    kTokenCounts,
    kReceive,
    kSend,
    kContent,
    kSchedule,
    kStepBegin,
    kStepEnd,
    kLine,
    kWatch,
    kStepBothSend,
    kStepBothRecv,
    kStepBothArm,
    kTokenFrom,
    kOccupancy,
    kPredicate,
    kStepLine,
  };

  BpId id;
  Type type = Type::kWork;
  bool enabled = true;
  bool temporary = false;
  bool fired = false;  ///< temporary that has done its job; run() deletes it
  std::uint64_t hits = 0;
  std::string actor;  ///< short name
  std::uint32_t actor_id = GraphModel::kNoActor;  ///< framework id of that actor
  std::string iface;
  std::uint32_t link = UINT32_MAX;
  bool match_src = false;
  int line = 0;
  struct CountCond {
    std::uint32_t link;
    std::string iface;
    std::uint64_t needed;
    std::uint64_t cur = 0;
  };
  std::vector<CountCond> counts;
  std::function<bool(const pedf::Value&)> pred;
  std::string desc;
  std::string var_kind, var_name;
  pedf::Value last_value;
  bool has_last = false;
  std::string from_actor;        ///< kTokenFrom: provenance source
  std::size_t depth = 8;         ///< kTokenFrom: hop limit
  std::size_t threshold = 0;     ///< kOccupancy
  std::string predicate_name;    ///< kPredicate
  std::uint64_t ignore = 0;      ///< suppress this many further triggers
};

namespace {
std::string bracket(const std::string& body) { return "[" + body + "]"; }
}  // namespace

// rules_ stays in id order (ids grow, rules are appended and only ever
// erased), so the visit resumes after the last id it saw instead of copying
// the ids up front: rules deleted meanwhile are skipped, rules added from
// `end` on wait for the next scan.
template <typename F>
void Session::scan_rules(F&& fn) {
  const std::uint32_t end = next_bp_;
  std::size_t pos = 0;
  while (pos < rules_.size() && rules_[pos]->id.value() < end) {
    const BpId id = rules_[pos]->id;
    if (rules_[pos]->enabled && !rules_[pos]->fired) fn(*rules_[pos]);
    pos = pos < rules_.size() && rules_[pos]->id == id
              ? pos + 1
              : static_cast<std::size_t>(
                    std::upper_bound(rules_.begin(), rules_.end(), id,
                                     [](BpId v, const std::unique_ptr<Rule>& r) {
                                       return v < r->id;
                                     }) -
                    rules_.begin());
  }
}

Session::Session(pedf::Application& app) : app_(app) {}

Session::~Session() {
  if (attached_) detach();
}

// ---------------------------------------------------------------------------
// Attach / detach
// ---------------------------------------------------------------------------

void Session::attach() {
  DFDBG_CHECK_MSG(!attached_, "session already attached");
  auto& port = app_.kernel().instrument();
  port.set_enabled(true);
  install_core_hooks();
  install_data_hooks();
  attached_ = true;
  if (app_.elaborated() && !model_.ready()) app_.replay_registration();
}

void Session::detach() {
  if (!attached_) return;
  auto& port = app_.kernel().instrument();
  for (sim::HookId h : core_hooks_) port.remove_hook(h);
  core_hooks_.clear();
  line_hook_ = sim::HookId{};
  port.remove_hook(push_hook_);
  port.remove_hook(pop_hook_);
  for (sim::HookId h : selective_hooks_) port.remove_hook(h);
  selective_hooks_.clear();
  port.set_enabled(false);
  attached_ = false;
}

sim::ArgPos Session::arg_pos(sim::SymbolId symbol, std::string_view name) const {
  return app_.kernel().instrument().param(symbol, name);
}

void Session::install_core_hooks() {
  auto& port = app_.kernel().instrument();
  const auto& syms = app_.syms();
  auto add = [&](sim::SymbolId sym, sim::Hook hook) {
    core_hooks_.push_back(port.add_enter_hook(sym, std::move(hook)));
  };
  // Every hook reads its arguments at positions resolved here, once, from
  // the symbol's declared layout.

  // Contribution #1: graph reconstruction during framework initialization.
  {
    const sim::SymbolId s = syms.register_actor;
    add(s, [this, kind = arg_pos(s, "kind"), name = arg_pos(s, "name"), path = arg_pos(s, "path"),
             pe = arg_pos(s, "pe"), parent = arg_pos(s, "parent"),
             id = arg_pos(s, "id")](Frame& f) {
      model_.on_register_actor(parse_actor_kind(f.arg(kind).str), f.arg(name).str,
                               f.arg(path).str, f.arg(pe).str, f.arg(parent).str,
                               static_cast<std::uint32_t>(f.arg(id).u64));
    });
  }
  {
    const sim::SymbolId s = syms.register_port;
    add(s, [this, actor = arg_pos(s, "actor"), port_name = arg_pos(s, "port"),
             dir = arg_pos(s, "dir"), type = arg_pos(s, "type")](Frame& f) {
      model_.on_register_port(f.arg(actor).str, f.arg(port_name).str,
                              std::string_view(f.arg(dir).str) == "in", f.arg(type).str);
    });
  }
  {
    const sim::SymbolId s = syms.register_link;
    add(s, [this, link = arg_pos(s, "link"), name = arg_pos(s, "name"),
             src_actor = arg_pos(s, "src_actor"), src_port = arg_pos(s, "src_port"),
             dst_actor = arg_pos(s, "dst_actor"), dst_port = arg_pos(s, "dst_port"),
             type = arg_pos(s, "type"), transport = arg_pos(s, "transport")](Frame& f) {
      model_.on_register_link(static_cast<std::uint32_t>(f.arg(link).u64), f.arg(name).str,
                              f.arg(src_actor).str, f.arg(src_port).str, f.arg(dst_actor).str,
                              f.arg(dst_port).str, f.arg(type).str, f.arg(transport).str);
    });
  }
  add(syms.graph_ready, [this](Frame&) { model_.on_graph_ready(); });

  // Contribution #2: scheduling monitoring.
  {
    const sim::SymbolId s = syms.work_enter;
    add(s, [this, path = arg_pos(s, "actor"), actor = arg_pos(s, "actor_id"),
             firing = arg_pos(s, "firing")](Frame& f) {
      const auto id = static_cast<std::uint32_t>(f.arg(actor).u64);
      model_.on_work_enter(id, f.arg(firing).u64);
      scan_rules([&](Rule& r) {
        if (r.type == Rule::Type::kWork && r.actor_id == id) {
          const DActor* a = model_.actor_by_id(id);
          const std::string name = a != nullptr ? a->name : std::string(f.arg(path).str);
          StopEvent ev;
          ev.kind = StopKind::kCatchWork;
          ev.actor = name;
          ev.message = bracket("Stopped at WORK entry of filter `" + name + "'");
          trigger_stop(std::move(ev), &r);
        }
      });
      sample_watchpoints(id);
    });
  }
  {
    const sim::SymbolId s = syms.work_exit;
    add(s, [this, actor = arg_pos(s, "actor_id")](Frame& f) {
      const auto id = static_cast<std::uint32_t>(f.arg(actor).u64);
      model_.on_work_exit(id);
      sample_watchpoints(id);
    });
  }
  {
    const sim::SymbolId s = syms.actor_start;
    add(s, [this, filter = arg_pos(s, "filter_id"), name = arg_pos(s, "name"),
             step = arg_pos(s, "step")](Frame& f) {
      const auto id = static_cast<std::uint32_t>(f.arg(filter).u64);
      model_.on_actor_start(id);
      scan_rules([&](Rule& r) {
        if (r.type == Rule::Type::kSchedule && r.actor_id == id) {
          StopEvent ev;
          ev.kind = StopKind::kActorScheduled;
          ev.actor = f.arg(name).str;
          ev.message = bracket("Stopped: controller scheduled filter `" + ev.actor +
                               "' for execution (step " + std::to_string(f.arg(step).u64) +
                               ")");
          trigger_stop(std::move(ev), &r);
        }
      });
    });
  }
  {
    const sim::SymbolId s = syms.step_begin;
    add(s, [this, module = arg_pos(s, "module_id"), step_pos = arg_pos(s, "step")](Frame& f) {
      const auto id = static_cast<std::uint32_t>(f.arg(module).u64);
      const std::uint64_t step = f.arg(step_pos).u64;
      model_.on_step_begin(id, step);
      scan_rules([&](Rule& r) {
        if (r.type == Rule::Type::kStepBegin && r.actor_id == id) {
          StopEvent ev;
          ev.kind = StopKind::kStepBegin;
          ev.actor = r.actor;
          ev.message = bracket("Stopped at beginning of step " + std::to_string(step) +
                               " of module `" + r.actor + "'");
          trigger_stop(std::move(ev), &r);
        }
      });
    });
  }
  {
    const sim::SymbolId s = syms.step_end;
    add(s, [this, module = arg_pos(s, "module_id"), step_pos = arg_pos(s, "step")](Frame& f) {
      const auto id = static_cast<std::uint32_t>(f.arg(module).u64);
      const std::uint64_t step = f.arg(step_pos).u64;
      model_.on_step_end(id);
      scan_rules([&](Rule& r) {
        if (r.type == Rule::Type::kStepEnd && r.actor_id == id) {
          StopEvent ev;
          ev.kind = StopKind::kStepEnd;
          ev.actor = r.actor;
          ev.message = bracket("Stopped at end of step " + std::to_string(step) +
                               " of module `" + r.actor + "'");
          trigger_stop(std::move(ev), &r);
        }
      });
    });
  }
  {
    const sim::SymbolId s = syms.wait_actor_sync;
    core_hooks_.push_back(
        port.add_exit_hook(s, [this, module = arg_pos(s, "module_id")](Frame& f) {
          model_.on_wait_sync_done(static_cast<std::uint32_t>(f.arg(module).u64));
        }));
  }
  {
    const sim::SymbolId s = syms.predicate_eval;
    core_hooks_.push_back(port.add_exit_hook(s, [this, module = arg_pos(s, "module_id"),
                                                 name_pos = arg_pos(s, "name")](Frame& f) {
      const auto id = static_cast<std::uint32_t>(f.arg(module).u64);
      const std::string_view name = f.arg(name_pos).str;
      bool result = f.ret() != nullptr && f.ret()->i64 != 0;
      scan_rules([&](Rule& r) {
        if (r.type == Rule::Type::kPredicate && r.actor_id == id && r.predicate_name == name) {
          StopEvent ev;
          ev.kind = StopKind::kPredicateEval;
          ev.actor = r.actor;
          ev.message = bracket("Stopped: predicate `" + std::string(name) + "' of module `" +
                               r.actor + "' evaluated to " + (result ? "true" : "false"));
          trigger_stop(std::move(ev), &r);
        }
      });
    }));
  }

  // Two-level debugging: the source-line hook is installed lazily by
  // ensure_line_hook() — tracking every executed line is exactly the kind
  // of per-statement trap a real debugger only pays for when a line
  // breakpoint or watchpoint exists.

  // Debugger-initiated alterations are observable events too.
  {
    const sim::SymbolId s = syms.debug_inject;
    add(s, [this, link_pos = arg_pos(s, "link"), value = arg_pos(s, "value"),
             index = arg_pos(s, "index")](Frame& f) {
      auto link = static_cast<std::uint32_t>(f.arg(link_pos).u64);
      auto* v = static_cast<const pedf::Value*>(f.arg(value).ptr);
      pedf::Link* fl = app_.link_by_id(pedf::LinkId(link));
      model_.on_push(link, f.arg(index).u64, *v, GraphModel::kNoActor, app_.kernel().now(),
                     /*injected=*/true, fl != nullptr ? fl->last_pushed_uid() : 0);
    });
  }
  {
    const sim::SymbolId s = syms.debug_remove;
    add(s, [this, link = arg_pos(s, "link"), slot = arg_pos(s, "slot")](Frame& f) {
      model_.on_remove(static_cast<std::uint32_t>(f.arg(link).u64),
                       static_cast<std::size_t>(f.arg(slot).u64));
    });
  }
  {
    const sim::SymbolId s = syms.debug_replace;
    add(s, [this, link = arg_pos(s, "link"), slot = arg_pos(s, "slot"),
             value = arg_pos(s, "value")](Frame& f) {
      auto* v = static_cast<const pedf::Value*>(f.arg(value).ptr);
      model_.on_replace(static_cast<std::uint32_t>(f.arg(link).u64),
                        static_cast<std::size_t>(f.arg(slot).u64), *v);
    });
  }
}

void Session::ensure_line_hook() {
  if (line_hook_.valid()) return;
  auto& port = app_.kernel().instrument();
  const sim::SymbolId s = app_.syms().filter_line;
  line_hook_ = port.add_enter_hook(s, [this, actor = arg_pos(s, "actor_id"),
                                       line_pos = arg_pos(s, "line")](Frame& f) {
    const auto id = static_cast<std::uint32_t>(f.arg(actor).u64);
    int line = static_cast<int>(f.arg(line_pos).i64);
    model_.on_filter_line(id, line);
    scan_rules([&](Rule& r) {
      if (r.type == Rule::Type::kLine && r.actor_id == id && r.line == line) {
        StopEvent ev;
        ev.kind = StopKind::kSourceLine;
        ev.actor = r.actor;
        ev.line = line;
        ev.message = bracket("Breakpoint: filter `" + r.actor + "' at line " +
                             std::to_string(line));
        trigger_stop(std::move(ev), &r);
      } else if (r.type == Rule::Type::kStepLine && r.actor_id == id) {
        StopEvent ev;
        ev.kind = StopKind::kSourceLine;
        ev.actor = r.actor;
        ev.line = line;
        ev.message = bracket("Stepped: filter `" + r.actor + "' now at line " +
                             std::to_string(line));
        trigger_stop(std::move(ev), &r);
      }
    });
    sample_watchpoints(id);
  });
  core_hooks_.push_back(line_hook_);
}

Session::LinkArgs Session::link_args(sim::SymbolId symbol, bool push) const {
  LinkArgs at;
  at.link = arg_pos(symbol, "link");
  at.index = arg_pos(symbol, "index");
  at.actor_id = arg_pos(symbol, "actor_id");
  if (push) at.value = arg_pos(symbol, "value");
  return at;
}

sim::HookId Session::add_data_hook(sim::SymbolId symbol, bool push) {
  auto& port = app_.kernel().instrument();
  if (push) {
    return port.add_exit_hook(
        symbol, [this, at = link_args(symbol, true)](Frame& f) { handle_push(f, at); });
  }
  return port.add_exit_hook(
      symbol, [this, at = link_args(symbol, false)](Frame& f) { handle_pop_exit(f, at); });
}

void Session::install_data_hooks() {
  push_hook_ = add_data_hook(app_.syms().link_push, /*push=*/true);
  pop_hook_ = add_data_hook(app_.syms().link_pop, /*push=*/false);
}

// ---------------------------------------------------------------------------
// Data-exchange event handling (Contribution #3)
// ---------------------------------------------------------------------------

void Session::handle_push(const Frame& frame, const LinkArgs& at) {
  auto link = static_cast<std::uint32_t>(frame.arg(at.link).u64);
  const auto* value = static_cast<const pedf::Value*>(frame.arg(at.value).ptr);
  std::uint64_t index = frame.ret() != nullptr ? frame.ret()->u64 : frame.arg(at.index).u64;
  const auto actor = static_cast<std::uint32_t>(frame.arg(at.actor_id).u64);
  sim::SimTime now = app_.kernel().now();

  // The exit hook runs synchronously in the pushing process, before any
  // context switch: the link's last-pushed provenance id still belongs to
  // this very event.
  pedf::Link* fl = app_.link_by_id(pedf::LinkId(link));
  std::uint64_t uid = fl != nullptr ? fl->last_pushed_uid() : 0;
  TokenId tok = model_.on_push(link, index, *value, actor, now, /*injected=*/false, uid);
  const DLink* dl = model_.link(link);
  if (dl == nullptr) return;
  recorder_.on_token(dl->src_iface, index, *value, now, uid);

  scan_rules([&](Rule& r) {
    switch (r.type) {
      case Rule::Type::kSend:
      case Rule::Type::kStepBothSend: {
        if (r.link != link) break;
        StopEvent ev;
        ev.kind = StopKind::kTokenSent;
        ev.actor = dl->src_actor;
        ev.iface = dl->src_iface;
        ev.token = tok;
        ev.message = bracket("Stopped after sending token on `" + dl->src_iface + "'");
        trigger_stop(std::move(ev), &r);
        break;
      }
      case Rule::Type::kContent: {
        if (r.link != link || !r.match_src) break;
        if (r.pred && r.pred(*value)) {
          StopEvent ev;
          ev.kind = StopKind::kTokenContent;
          ev.actor = dl->src_actor;
          ev.iface = dl->src_iface;
          ev.token = tok;
          ev.message = bracket("Stopped: token on `" + dl->src_iface + "' matched " + r.desc);
          trigger_stop(std::move(ev), &r);
        }
        break;
      }
      case Rule::Type::kOccupancy: {
        if (r.link != link) break;
        if (fl == nullptr || fl->occupancy() < r.threshold) break;
        StopEvent ev;
        ev.kind = StopKind::kLinkOccupancy;
        ev.actor = dl->dst_actor;
        ev.iface = dl->dst_iface;
        ev.token = tok;
        ev.message = bracket(strformat("Stopped: link `%s' holds %zu token(s) (threshold %zu)",
                                       dl->name.c_str(), fl->occupancy(), r.threshold));
        trigger_stop(std::move(ev), &r);
        break;
      }
      case Rule::Type::kStepBothArm: {
        if (r.actor_id != actor) break;
        // The armed filter just pushed: this identifies the link. Retire
        // the arm rule, plant the receive end, and report the send stop.
        r.fired = true;
        auto recv = std::make_unique<Rule>();
        recv->id = BpId(next_bp_++);
        recv->type = Rule::Type::kStepBothRecv;
        recv->temporary = true;
        recv->link = link;
        recv->iface = dl->dst_iface;
        recv->desc = "step_both (receive end) on " + dl->dst_iface;
        rules_.push_back(std::move(recv));
        notes_.push_back(bracket("Temporary breakpoint inserted after input interface `" +
                                 dl->dst_iface + "'"));
        StopEvent ev;
        ev.kind = StopKind::kTokenSent;
        ev.actor = dl->src_actor;
        ev.iface = dl->src_iface;
        ev.token = tok;
        ev.message = bracket("Stopped after sending token on `" + dl->src_iface + "'");
        trigger_stop(std::move(ev), &r);
        break;
      }
      default:
        break;
    }
  });
}

void Session::handle_pop_exit(const Frame& frame, const LinkArgs& at) {
  auto link = static_cast<std::uint32_t>(frame.arg(at.link).u64);
  const auto actor = static_cast<std::uint32_t>(frame.arg(at.actor_id).u64);
  sim::SimTime now = app_.kernel().now();
  const auto* value = frame.ret() != nullptr
                          ? static_cast<const pedf::Value*>(frame.ret()->ptr)
                          : nullptr;

  TokenId tok = model_.on_pop(link, actor, now);
  const DLink* dl = model_.link(link);
  if (dl == nullptr) return;
  if (value != nullptr) {
    pedf::Link* fl = app_.link_by_id(pedf::LinkId(link));
    recorder_.on_token(dl->dst_iface, frame.arg(at.index).u64, *value, now,
                       fl != nullptr ? fl->last_popped_uid() : 0);
  }

  scan_rules([&](Rule& r) {
    switch (r.type) {
      case Rule::Type::kReceive:
      case Rule::Type::kStepBothRecv: {
        if (r.link != link) break;
        StopEvent ev;
        ev.kind = StopKind::kTokenReceived;
        ev.actor = dl->dst_actor;
        ev.iface = dl->dst_iface;
        ev.token = tok;
        ev.message = bracket("Stopped after receiving token from `" + dl->dst_iface + "'");
        trigger_stop(std::move(ev), &r);
        break;
      }
      case Rule::Type::kContent: {
        if (r.link != link || r.match_src) break;
        if (value != nullptr && r.pred && r.pred(*value)) {
          StopEvent ev;
          ev.kind = StopKind::kTokenContent;
          ev.actor = dl->dst_actor;
          ev.iface = dl->dst_iface;
          ev.token = tok;
          ev.message =
              bracket("Stopped: token from `" + dl->dst_iface + "' matched " + r.desc);
          trigger_stop(std::move(ev), &r);
        }
        break;
      }
      case Rule::Type::kTokenFrom: {
        if (r.link != link || !tok.valid()) break;
        // Walk the provenance chain; stop if any ancestor was sent by the
        // watched actor. Skips hop 0 (the received token itself counts too
        // when its own producer matches).
        bool matched = false;
        for (const DToken* t : model_.token_path(tok, r.depth)) {
          const DLink* hop = model_.link(t->link);
          if (hop != nullptr && hop->src_actor == r.from_actor) {
            matched = true;
            break;
          }
        }
        if (!matched) break;
        StopEvent ev;
        ev.kind = StopKind::kTokenProvenance;
        ev.actor = dl->dst_actor;
        ev.iface = dl->dst_iface;
        ev.token = tok;
        ev.message = bracket("Stopped: token received on `" + dl->dst_iface +
                             "' derives from `" + r.from_actor + "'");
        trigger_stop(std::move(ev), &r);
        break;
      }
      case Rule::Type::kTokenCounts: {
        bool relevant = false;
        for (auto& c : r.counts) {
          if (c.link == link) {
            c.cur++;
            relevant = true;
          }
        }
        if (!relevant) break;
        bool all = std::all_of(r.counts.begin(), r.counts.end(),
                               [](const Rule::CountCond& c) { return c.cur >= c.needed; });
        if (all) {
          std::vector<std::string> parts;
          for (auto& c : r.counts) {
            parts.push_back(c.iface + "=" + std::to_string(c.needed));
            c.cur = 0;  // re-arm
          }
          StopEvent ev;
          ev.kind = StopKind::kCatchTokens;
          ev.actor = r.actor;
          ev.token = tok;
          ev.message = bracket("Stopped: filter `" + r.actor + "' received required tokens (" +
                               join(parts, ", ") + ")");
          trigger_stop(std::move(ev), &r);
        }
        break;
      }
      default:
        break;
    }
  });
}

void Session::sample_watchpoints(std::uint32_t actor) {
  scan_rules([&](Rule& r) {
    if (r.type != Rule::Type::kWatch || r.actor_id != actor) return;
    pedf::Filter* f = app_.filter_by_name(r.actor);
    if (f == nullptr) return;
    pedf::Value* v = r.var_kind == "attribute" ? f->attribute(r.var_name) : f->data(r.var_name);
    if (v == nullptr) return;
    if (r.has_last && !(*v == r.last_value)) {
      StopEvent ev;
      ev.kind = StopKind::kWatchpoint;
      ev.actor = r.actor;
      ev.message = bracket("Watchpoint: " + r.actor + "." + r.var_kind + "." + r.var_name +
                           " changed from " + r.last_value.to_string() + " to " +
                           v->to_string());
      r.last_value = *v;
      trigger_stop(std::move(ev), &r);
    } else if (!r.has_last) {
      r.has_last = true;
      r.last_value = *v;
    } else {
      r.last_value = *v;
    }
  });
}

// ---------------------------------------------------------------------------
// Stop machinery
// ---------------------------------------------------------------------------

// A stop parks the simulated process inside debug_break() below, deep in a
// scan_rules() visit that holds `rule`. run() deletes fired temporaries
// before it returns, so when the process resumes `rule` may be gone: nothing
// may touch it after debug_break(), and the scan re-finds the rules it has
// not visited yet by id.
void Session::trigger_stop(StopEvent ev, Rule* rule) {
  if (rule != nullptr) {
    rule->hits++;
    ev.breakpoint = rule->id;
    if (rule->ignore > 0) {
      rule->ignore--;  // GDB ignore count: counted but not stopped on
      return;
    }
    if (rule->temporary) rule->fired = true;
  }
  ev.time = app_.kernel().now();
  current_actor_ = ev.actor;
  if (obs::Journal& j = app_.kernel().record_journal(); j.recording_now()) {
    auto it = stop_jnames_.find(ev.actor);
    if (it == stop_jnames_.end())
      it = stop_jnames_.emplace(ev.actor, app_.kernel().journal().intern_name(ev.actor)).first;
    obs::JournalEvent jev;
    jev.time = ev.time;
    jev.kind = obs::JournalKind::kCatchpoint;
    jev.actor = it->second;
    jev.index = ev.breakpoint.valid() ? ev.breakpoint.value() : 0;
    j.append(jev);
  }
  if (stop_observer_) stop_observer_(ev);
  pending_.push_back(std::move(ev));
  if (app_.kernel().current() != nullptr) app_.kernel().debug_break();
}

RunOutcome Session::run(sim::SimTime until) {
  pending_.clear();
  // Self-profiling: the latency of one run/continue command in host
  // wall-clock nanoseconds and in consumed simulated cycles.
  auto& reg = obs::Registry::global();
  static obs::Histogram& run_wall_ns = reg.histogram("dbg.run_wall_ns");
  static obs::Histogram& run_cycles = reg.histogram("dbg.run_cycles");
  static obs::Counter& runs = reg.counter("dbg.run");
  static obs::Counter& stops = reg.counter("dbg.stop");
  runs.add();
  obs::ScopedTimer wall(run_wall_ns);
  obs::ScopedDelta cycles(run_cycles, [this] { return app_.kernel().now(); });
  sim::RunResult r = app_.kernel().run(until);
  // Like GDB's tbreak, a temporary is deleted once it fired (its stop event
  // keeps the id), so the rule list does not grow with every step_both.
  std::erase_if(rules_, [](const std::unique_ptr<Rule>& rule) { return rule->fired; });
  stops.add(pending_.size());
  RunOutcome out;
  out.result = r;
  switch (r) {
    case sim::RunResult::kStopped:
      out.stops = std::move(pending_);
      pending_.clear();
      break;
    case sim::RunResult::kDeadlock: {
      StopEvent ev;
      ev.kind = StopKind::kDeadlock;
      ev.time = app_.kernel().now();
      std::vector<std::string> blocked;
      for (const pedf::Actor* a : app_.actors()) {
        const pedf::BlockInfo& b = a->blocked();
        if (b.kind == pedf::BlockInfo::Kind::kLinkEmpty && b.link != nullptr)
          blocked.push_back(a->name() + " waiting for data on `" + b.link->name() + "'");
        else if (b.kind == pedf::BlockInfo::Kind::kLinkFull && b.link != nullptr)
          blocked.push_back(a->name() + " waiting for space on `" + b.link->name() + "'");
        else if (b.kind == pedf::BlockInfo::Kind::kStep)
          blocked.push_back(a->name() + " waiting for step completion");
      }
      ev.message = bracket("Deadlock detected: " +
                           (blocked.empty() ? std::string("no runnable process")
                                            : join(blocked, "; ")));
      out.stops.push_back(std::move(ev));
      break;
    }
    case sim::RunResult::kFinished: {
      StopEvent ev;
      ev.kind = StopKind::kFinished;
      ev.time = app_.kernel().now();
      ev.message = bracket("Application finished");
      out.stops.push_back(std::move(ev));
      break;
    }
    case sim::RunResult::kTimeLimit: {
      StopEvent ev;
      ev.kind = StopKind::kTimeLimit;
      ev.time = app_.kernel().now();
      ev.message = bracket("Simulated time limit reached");
      out.stops.push_back(std::move(ev));
      break;
    }
  }
  // Catchpoint/breakpoint stops were observed from trigger_stop() as they
  // fired; the synthesized terminal stops are observed here.
  if (r != sim::RunResult::kStopped && stop_observer_)
    for (const StopEvent& ev : out.stops) stop_observer_(ev);
  history_.insert(history_.end(), out.stops.begin(), out.stops.end());
  return out;
}

std::vector<std::string> Session::take_notes() {
  std::vector<std::string> out = std::move(notes_);
  notes_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Breakpoint registration
// ---------------------------------------------------------------------------

namespace {
Status unknown_filter(const std::string& name) {
  return Status::error(ErrCode::kNotFound, "no such filter: " + name);
}
}  // namespace

Result<BpId> Session::catch_work(const std::string& filter) {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return unknown_filter(filter);
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kWork;
  r->actor = filter;
  r->actor_id = a->id;
  r->desc = "filter " + filter + " catch work";
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::catch_tokens(
    const std::string& filter, std::vector<std::pair<std::string, std::uint64_t>> port_counts) {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return unknown_filter(filter);
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kTokenCounts;
  r->actor = filter;
  r->actor_id = a->id;
  std::vector<std::string> parts;
  for (auto& [port, count] : port_counts) {
    std::string iface = filter + "::" + port;
    const DConnection* c = model_.connection_by_iface(iface);
    if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
    if (!c->is_input) return Status::error(ErrCode::kInvalidArgument, iface + " is not an inbound interface");
    if (c->link == UINT32_MAX) return Status::error(ErrCode::kInvalidArgument, iface + " is not bound to a link");
    // Stop messages use the bare port name, matching the command syntax.
    r->counts.push_back(Rule::CountCond{c->link, port, count});
    parts.push_back(port + "=" + std::to_string(count));
  }
  if (r->counts.empty()) return Status::error(ErrCode::kInvalidArgument, "catch condition lists no interfaces");
  r->desc = "filter " + filter + " catch " + join(parts, ",");
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::catch_all_inputs(const std::string& filter, std::uint64_t count) {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return unknown_filter(filter);
  std::vector<std::pair<std::string, std::uint64_t>> ports;
  for (std::uint32_t ci : a->in_conns) {
    const DConnection& c = model_.connections()[ci];
    if (c.link == UINT32_MAX) continue;
    ports.emplace_back(c.port, count);
  }
  if (ports.empty()) return Status::error(ErrCode::kFailedPrecondition, "filter " + filter + " has no bound inputs");
  return catch_tokens(filter, std::move(ports));
}

Result<BpId> Session::break_on_receive(const std::string& iface) {
  const DConnection* c = model_.connection_by_iface(iface);
  if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
  if (!c->is_input) return Status::error(ErrCode::kInvalidArgument, iface + " is not an inbound interface");
  if (c->link == UINT32_MAX) return Status::error(ErrCode::kInvalidArgument, iface + " is not bound to a link");
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kReceive;
  r->actor = c->actor;
  r->iface = iface;
  r->link = c->link;
  r->desc = "stop after receive on " + iface;
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::break_on_send(const std::string& iface) {
  const DConnection* c = model_.connection_by_iface(iface);
  if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
  if (c->is_input) return Status::error(ErrCode::kInvalidArgument, iface + " is not an outbound interface");
  if (c->link == UINT32_MAX) return Status::error(ErrCode::kInvalidArgument, iface + " is not bound to a link");
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kSend;
  r->actor = c->actor;
  r->iface = iface;
  r->link = c->link;
  r->desc = "stop after send on " + iface;
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::catch_token_content(const std::string& iface,
                                          std::function<bool(const pedf::Value&)> pred,
                                          std::string description) {
  const DConnection* c = model_.connection_by_iface(iface);
  if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
  if (c->link == UINT32_MAX) return Status::error(ErrCode::kInvalidArgument, iface + " is not bound to a link");
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kContent;
  r->actor = c->actor;
  r->iface = iface;
  r->link = c->link;
  r->match_src = !c->is_input;
  r->pred = std::move(pred);
  r->desc = std::move(description);
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::catch_token_from(const std::string& iface, const std::string& src_actor,
                                       std::size_t depth) {
  const DConnection* c = model_.connection_by_iface(iface);
  if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
  if (!c->is_input) return Status::error(ErrCode::kInvalidArgument, iface + " is not an inbound interface");
  if (c->link == UINT32_MAX) return Status::error(ErrCode::kInvalidArgument, iface + " is not bound to a link");
  if (model_.actor_by_name(src_actor) == nullptr)
    return Status::error(ErrCode::kNotFound, "no such actor: " + src_actor);
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kTokenFrom;
  r->actor = c->actor;
  r->iface = iface;
  r->link = c->link;
  r->from_actor = src_actor;
  r->depth = depth;
  r->desc = "stop when " + iface + " receives a token derived from " + src_actor;
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::break_on_occupancy(const std::string& iface, std::size_t threshold) {
  const DLink* dl = model_.link_by_iface(iface);
  if (dl == nullptr) return Status::error(ErrCode::kNotFound, "no link on interface: " + iface);
  if (threshold == 0) return Status::error(ErrCode::kInvalidArgument, "occupancy threshold must be >= 1");
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kOccupancy;
  r->actor = dl->dst_actor;
  r->iface = iface;
  r->link = dl->id;
  r->threshold = threshold;
  r->desc = strformat("stop when `%s' holds >= %zu tokens", dl->name.c_str(), threshold);
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::break_on_predicate(const std::string& module,
                                         const std::string& predicate) {
  const DActor* a = model_.actor_by_name(module);
  if (a == nullptr) a = model_.actor_by_path(module);
  if (a == nullptr || a->kind != DActorKind::kModule)
    return Status::error(ErrCode::kNotFound, "no such module: " + module);
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kPredicate;
  r->actor = a->name;
  r->actor_id = a->id;
  r->predicate_name = predicate;
  r->desc = "stop when predicate " + module + "::" + predicate + " is evaluated";
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::break_on_schedule(const std::string& filter) {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return unknown_filter(filter);
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kSchedule;
  r->actor = filter;
  r->actor_id = a->id;
  r->desc = "stop when controller schedules " + filter;
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::break_on_step(const std::string& module, bool at_end) {
  const DActor* a = model_.actor_by_name(module);
  if (a == nullptr) a = model_.actor_by_path(module);
  if (a == nullptr || a->kind != DActorKind::kModule)
    return Status::error(ErrCode::kNotFound, "no such module: " + module);
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = at_end ? Rule::Type::kStepEnd : Rule::Type::kStepBegin;
  r->actor = a->name;
  r->actor_id = a->id;
  r->desc = std::string("stop at step ") + (at_end ? "end" : "begin") + " of " + a->name;
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::break_source_line(const std::string& filter, int line) {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return unknown_filter(filter);
  ensure_line_hook();
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kLine;
  r->actor = filter;
  r->actor_id = a->id;
  r->line = line;
  r->desc = "breakpoint at " + filter + ":" + std::to_string(line);
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Result<BpId> Session::watch_variable(const std::string& filter, const std::string& kind,
                                     const std::string& name) {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return unknown_filter(filter);
  if (kind != "data" && kind != "attribute")
    return Status::error(ErrCode::kInvalidArgument, "watch kind must be 'data' or 'attribute'");
  pedf::Filter* f = app_.filter_by_name(filter);
  if (f == nullptr) return unknown_filter(filter);
  pedf::Value* v = kind == "attribute" ? f->attribute(name) : f->data(name);
  if (v == nullptr) return Status::error(ErrCode::kNotFound, filter + " has no " + kind + " '" + name + "'");
  ensure_line_hook();  // watchpoints sample at line markers too
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kWatch;
  r->actor = filter;
  r->actor_id = a->id;
  r->var_kind = kind;
  r->var_name = name;
  r->has_last = true;
  r->last_value = *v;
  r->desc = "watch " + filter + "." + kind + "." + name;
  BpId id = r->id;
  rules_.push_back(std::move(r));
  return id;
}

Session::Rule* Session::find_rule(BpId id) {
  for (auto& r : rules_)
    if (r->id == id) return r.get();
  return nullptr;
}

Status Session::delete_breakpoint(BpId id) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if ((*it)->id == id) {
      rules_.erase(it);
      return Status{};
    }
  }
  return Status::error(ErrCode::kNotFound, "no such breakpoint: " + std::to_string(id.value()));
}

Status Session::set_breakpoint_enabled(BpId id, bool enabled) {
  Rule* r = find_rule(id);
  if (r == nullptr) return Status::error(ErrCode::kNotFound, "no such breakpoint: " + std::to_string(id.value()));
  r->enabled = enabled;
  return Status{};
}

Status Session::set_breakpoint_ignore(BpId id, std::uint64_t count) {
  Rule* r = find_rule(id);
  if (r == nullptr) return Status::error(ErrCode::kNotFound, "no such breakpoint: " + std::to_string(id.value()));
  r->ignore = count;
  return Status{};
}

std::vector<BreakpointInfo> Session::breakpoints() const {
  std::vector<BreakpointInfo> out;
  for (const auto& r : rules_) {
    BreakpointInfo info;
    info.id = r->id;
    info.description = r->desc;
    info.enabled = r->enabled;
    info.temporary = r->temporary;
    info.hits = r->hits;
    out.push_back(std::move(info));
  }
  return out;
}

// ---------------------------------------------------------------------------
// step_both
// ---------------------------------------------------------------------------

Status Session::step_both_iface(const std::string& out_iface) {
  const DConnection* c = model_.connection_by_iface(out_iface);
  if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + out_iface);
  if (c->is_input) return Status::error(ErrCode::kInvalidArgument, out_iface + " is not an outbound interface");
  if (c->link == UINT32_MAX) return Status::error(ErrCode::kInvalidArgument, out_iface + " is not bound to a link");
  const DLink* dl = model_.link(c->link);
  DFDBG_CHECK(dl != nullptr);

  auto recv = std::make_unique<Rule>();
  recv->id = BpId(next_bp_++);
  recv->type = Rule::Type::kStepBothRecv;
  recv->temporary = true;
  recv->link = c->link;
  recv->iface = dl->dst_iface;
  recv->desc = "step_both (receive end) on " + dl->dst_iface;
  rules_.push_back(std::move(recv));
  notes_.push_back(
      bracket("Temporary breakpoint inserted after input interface `" + dl->dst_iface + "'"));

  auto send = std::make_unique<Rule>();
  send->id = BpId(next_bp_++);
  send->type = Rule::Type::kStepBothSend;
  send->temporary = true;
  send->link = c->link;
  send->iface = out_iface;
  send->desc = "step_both (send end) on " + out_iface;
  rules_.push_back(std::move(send));
  notes_.push_back(
      bracket("Temporary breakpoint inserted after output interface `" + out_iface + "'"));
  return Status{};
}

Status Session::step_both() {
  if (current_actor_.empty())
    return Status::error(ErrCode::kFailedPrecondition, "step_both: no current filter (execution never stopped)");
  const DActor* a = model_.actor_by_name(current_actor_);
  if (a == nullptr) return Status::error(ErrCode::kNotFound, "step_both: unknown current actor " + current_actor_);
  auto arm = std::make_unique<Rule>();
  arm->id = BpId(next_bp_++);
  arm->type = Rule::Type::kStepBothArm;
  arm->temporary = true;
  arm->actor = a->name;
  arm->actor_id = a->id;
  arm->desc = "step_both (arming next send of " + a->name + ")";
  rules_.push_back(std::move(arm));
  notes_.push_back(bracket("step_both armed on next dataflow assignment of `" + a->name + "'"));
  return Status{};
}

Status Session::step_line() {
  if (current_actor_.empty())
    return Status::error(ErrCode::kFailedPrecondition, "step: no current filter (execution never stopped)");
  const DActor* a = model_.actor_by_name(current_actor_);
  if (a == nullptr) return Status::error(ErrCode::kNotFound, "step: unknown current actor " + current_actor_);
  ensure_line_hook();
  auto r = std::make_unique<Rule>();
  r->id = BpId(next_bp_++);
  r->type = Rule::Type::kStepLine;
  r->temporary = true;
  r->actor = a->name;
  r->actor_id = a->id;
  r->desc = "single step in " + a->name;
  rules_.push_back(std::move(r));
  return Status{};
}

// ---------------------------------------------------------------------------
// State inspection
// ---------------------------------------------------------------------------

const DToken* Session::last_token(const std::string& filter) const {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return nullptr;
  return model_.token(a->last_token_in);
}

// The structured view builders (links_view, filter_view, whence_chain, ...)
// live in views.cpp; the deprecated string-rendered shims (info_links,
// whence, ...) are defined with the text renderers in src/dbgcli/render.cpp.

Status Session::configure_behavior(const std::string& filter, ActorBehavior behavior) {
  DActor* a = model_.actor_by_name_mut(filter);
  if (a == nullptr) return unknown_filter(filter);
  a->behavior = behavior;
  return Status{};
}

Status Session::record_iface(const std::string& iface, RecordPolicy policy, std::size_t bound) {
  const DConnection* c = model_.connection_by_iface(iface);
  if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
  recorder_.enable(iface, policy, bound);
  return Status{};
}

std::string Session::print_recorded(const std::string& iface) const {
  return recorder_.format(iface);
}

// ---------------------------------------------------------------------------
// Alteration
// ---------------------------------------------------------------------------

Result<pedf::Link*> Session::link_on(const std::string& iface) const {
  const DLink* dl = model_.link_by_iface(iface);
  if (dl == nullptr) return Status::error(ErrCode::kNotFound, "no link on interface: " + iface);
  pedf::Link* fl = app_.link_by_id(pedf::LinkId(dl->id));
  DFDBG_CHECK(fl != nullptr);
  return fl;
}

Result<const pedf::TypeDesc*> Session::link_type(const std::string& iface) const {
  auto fl = link_on(iface);
  if (!fl.ok()) return fl.status();
  return &(*fl)->type();
}

namespace {
/// A payload number: all of `text` as decimal, 0x hex or leading-0 octal,
/// and a leading '-' stores the two's complement bits, as strtoull would.
std::optional<std::uint64_t> payload_bits(std::string_view text) {
  const bool negative = !text.empty() && text.front() == '-';
  std::optional<std::uint64_t> bits = parse_uint(negative ? text.substr(1) : text);
  if (bits && negative) *bits = 0 - *bits;
  return bits;
}
}  // namespace

Result<pedf::Value> Session::parse_value(const pedf::TypeDesc& type, const std::string& text) {
  if (!type.is_struct()) {
    const std::optional<std::uint64_t> bits = payload_bits(text);
    if (!bits) return Status::error(ErrCode::kInvalidArgument, "malformed scalar value: " + text);
    pedf::Value v = pedf::Value::zero_of(type);
    v.set_scalar_u64(*bits);
    return v;
  }
  pedf::Value v = pedf::Value::make_struct(type.struct_type());
  for (const std::string& part : split(text, ',')) {
    if (part.empty()) continue;
    auto eq = part.find('=');
    if (eq == std::string::npos)
      return Status::error(ErrCode::kInvalidArgument, "malformed struct field assignment: " + part);
    std::string field = part.substr(0, eq);
    if (type.struct_type()->field_index(field) < 0)
      return Status::error(ErrCode::kNotFound, "struct " + type.name() + " has no field '" + field + "'");
    const std::optional<std::uint64_t> bits = payload_bits(std::string_view(part).substr(eq + 1));
    if (!bits)
      return Status::error(ErrCode::kInvalidArgument,
                           "malformed value of field '" + field + "': " + part.substr(eq + 1));
    v.set_field(field, *bits);
  }
  return v;
}

Status Session::inject_token(const std::string& iface, pedf::Value v) {
  if (app_.kernel().current() != nullptr)
    return Status::error(ErrCode::kFailedPrecondition, "inject_token only while the execution is stopped");
  auto link = link_on(iface);
  if (!link.ok()) return link.status();
  pedf::Link* fl = *link;
  if (!(v.type() == fl->type()))
    return Status::error(ErrCode::kFailedPrecondition, "token type " + v.type().name() + " does not match link type " +
                         fl->type().name());
  if (fl->full()) return Status::error(ErrCode::kFailedPrecondition, "link is full: " + fl->name());
  app_.debug_inject(*fl, std::move(v));
  return Status{};
}

Status Session::remove_token(const std::string& iface, std::size_t idx) {
  if (app_.kernel().current() != nullptr)
    return Status::error(ErrCode::kFailedPrecondition, "remove_token only while the execution is stopped");
  auto link = link_on(iface);
  if (!link.ok()) return link.status();
  pedf::Link* fl = *link;
  if (idx >= fl->occupancy())
    return Status::error(ErrCode::kOutOfRange, strformat("link holds %zu token(s), cannot remove slot %zu",
                                   fl->occupancy(), idx));
  app_.debug_remove(*fl, idx);
  return Status{};
}

Status Session::replace_token(const std::string& iface, std::size_t idx, pedf::Value v) {
  if (app_.kernel().current() != nullptr)
    return Status::error(ErrCode::kFailedPrecondition, "replace_token only while the execution is stopped");
  auto link = link_on(iface);
  if (!link.ok()) return link.status();
  pedf::Link* fl = *link;
  if (idx >= fl->occupancy())
    return Status::error(ErrCode::kOutOfRange, strformat("link holds %zu token(s), cannot replace slot %zu",
                                   fl->occupancy(), idx));
  if (!(v.type() == fl->type()))
    return Status::error(ErrCode::kFailedPrecondition, "token type " + v.type().name() + " does not match link type " +
                         fl->type().name());
  app_.debug_replace(*fl, idx, std::move(v));
  return Status{};
}

// ---------------------------------------------------------------------------
// Intrusiveness controls
// ---------------------------------------------------------------------------

void Session::resync_all_links() {
  for (const auto& l : app_.links()) model_.resync_link(l->id().value(), l->occupancy());
}

void Session::set_data_exchange_hooks(bool enabled) {
  if (enabled == data_hooks_enabled_) return;
  auto& port = app_.kernel().instrument();
  if (enabled) {
    install_data_hooks();
    data_hooks_enabled_ = true;
    resync_all_links();  // the mirror went stale while off
  } else {
    // Like GDB removing the trap instruction: the framework's fast path
    // sees the symbol as unarmed and pays a single branch per exchange.
    port.remove_hook(push_hook_);
    port.remove_hook(pop_hook_);
    push_hook_ = sim::HookId{};
    pop_hook_ = sim::HookId{};
    data_hooks_enabled_ = false;
  }
}

Status Session::use_selective_data_hooks(const std::vector<std::string>& ifaces) {
  auto& port = app_.kernel().instrument();
  clear_selective_data_hooks();
  for (const std::string& iface : ifaces) {
    const DConnection* c = model_.connection_by_iface(iface);
    if (c == nullptr) return Status::error(ErrCode::kNotFound, "no such interface: " + iface);
    if (c->link == UINT32_MAX) return Status::error(ErrCode::kInvalidArgument, iface + " is not bound to a link");
    const pedf::LinkSymbols& ls = app_.link_syms(pedf::LinkId(c->link));
    selective_hooks_.push_back(c->is_input ? add_data_hook(ls.pop_iface, /*push=*/false)
                                           : add_data_hook(ls.push_iface, /*push=*/true));
  }
  // Remove the global data-exchange breakpoints; the framework starts
  // reporting per-interface instance symbols instead, and only the chosen
  // interfaces are armed.
  if (data_hooks_enabled_) {
    port.remove_hook(push_hook_);
    port.remove_hook(pop_hook_);
    push_hook_ = sim::HookId{};
    pop_hook_ = sim::HookId{};
    data_hooks_enabled_ = false;
  }
  selective_ = true;
  app_.set_cooperation(true);
  return Status{};
}

void Session::clear_selective_data_hooks() {
  if (!selective_) return;
  auto& port = app_.kernel().instrument();
  for (sim::HookId h : selective_hooks_) port.remove_hook(h);
  selective_hooks_.clear();
  app_.set_cooperation(false);
  selective_ = false;
  install_data_hooks();
  data_hooks_enabled_ = true;
  resync_all_links();
}

// ---------------------------------------------------------------------------
// Two-level debugging
// ---------------------------------------------------------------------------

std::string Session::list_source(const std::string& filter, int line, int context) const {
  pedf::Filter* f = app_.filter_by_name(filter);
  if (f == nullptr) return "<no such filter: " + filter + ">";
  const auto& lines = f->source_lines();
  if (lines.empty()) return "<no source registered for filter " + filter + ">";
  int first = f->source_first_line();
  int lo = line == 0 ? first : std::max(first, line - context);
  int hi = line == 0 ? first + static_cast<int>(lines.size()) - 1
                     : std::min(first + static_cast<int>(lines.size()) - 1, line + context);
  std::string out;
  for (int n = lo; n <= hi; ++n) {
    out += strformat("%d\t%s\n", n, lines[static_cast<std::size_t>(n - first)].c_str());
  }
  return out;
}

Result<pedf::Value> Session::read_variable(const std::string& filter, const std::string& kind,
                                           const std::string& name) const {
  pedf::Filter* f = app_.filter_by_name(filter);
  if (f == nullptr) return Status::error(ErrCode::kNotFound, "no such filter: " + filter);
  pedf::Value* v = kind == "attribute" ? f->attribute(name) : f->data(name);
  if (v == nullptr) return Status::error(ErrCode::kNotFound, filter + " has no " + kind + " '" + name + "'");
  return *v;
}

int Session::store_value(pedf::Value v) {
  value_history_.push_back(std::move(v));
  return static_cast<int>(value_history_.size());
}

Result<pedf::Value> Session::value_history(int n) const {
  if (n < 1 || static_cast<std::size_t>(n) > value_history_.size())
    return Status::error(ErrCode::kNotFound, "no value history entry $" + std::to_string(n));
  return value_history_[static_cast<std::size_t>(n - 1)];
}

}  // namespace dfdbg::dbg
