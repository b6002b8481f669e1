// Builders for the structured inspection views (dfdbg/debug/views.hpp) and
// their one JSON serialization. The legacy string-returning Session queries
// are thin wrappers over these builders, defined with the text renderers in
// src/dbgcli/render.cpp.
#include "dfdbg/debug/views.hpp"

#include "dfdbg/common/strings.hpp"
#include "dfdbg/debug/session.hpp"

namespace dfdbg::dbg {

namespace {

Status no_such_filter(const std::string& filter) {
  return Status::error(ErrCode::kNotFound, "no such filter: " + filter);
}

Status no_link_on_iface(const std::string& iface) {
  return Status::error(ErrCode::kNotFound, "no link on interface: " + iface);
}

TokenHop make_hop(const GraphModel& model, const DToken& t) {
  TokenHop hop;
  hop.uid = t.uid;
  hop.desc = model.describe_token(t.id);
  hop.pushed_at = t.pushed_at;
  hop.injected = t.injected;
  return hop;
}

}  // namespace

const char* to_string(FilterView::Blocked b) {
  switch (b) {
    case FilterView::Blocked::kNone: return "none";
    case FilterView::Blocked::kLinkEmpty: return "link-empty";
    case FilterView::Blocked::kLinkFull: return "link-full";
    case FilterView::Blocked::kStart: return "start";
    case FilterView::Blocked::kStep: return "step";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Session view builders
// ---------------------------------------------------------------------------

LinkView Session::links_view() const {
  LinkView v;
  v.links.reserve(app_.links().size());
  for (const auto& l : app_.links()) {
    LinkRow row;
    row.name = l->name();
    row.occupancy = l->occupancy();
    row.pushes = l->push_index();
    row.pops = l->pop_index();
    row.high_watermark = l->high_watermark();
    row.transport = to_string(l->transport());
    v.links.push_back(std::move(row));
  }
  return v;
}

Result<FilterView> Session::filter_view(const std::string& filter) const {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return no_such_filter(filter);
  FilterView v;
  v.name = a->name;
  v.path = a->path;
  v.state = to_string(a->sched);
  v.firings = a->firings;
  v.line = a->current_line;
  v.pe = a->pe;
  v.behavior = to_string(a->behavior);
  const pedf::Actor* fa = app_.actor_by_name(filter);
  if (fa != nullptr) {
    v.has_blocked = true;
    const pedf::BlockInfo& b = fa->blocked();
    switch (b.kind) {
      case pedf::BlockInfo::Kind::kNone: v.blocked = FilterView::Blocked::kNone; break;
      case pedf::BlockInfo::Kind::kLinkEmpty:
        v.blocked = FilterView::Blocked::kLinkEmpty;
        v.blocked_link = b.link->name();
        break;
      case pedf::BlockInfo::Kind::kLinkFull:
        v.blocked = FilterView::Blocked::kLinkFull;
        v.blocked_link = b.link->name();
        break;
      case pedf::BlockInfo::Kind::kStart: v.blocked = FilterView::Blocked::kStart; break;
      case pedf::BlockInfo::Kind::kStep: v.blocked = FilterView::Blocked::kStep; break;
    }
  }
  return v;
}

Result<SchedView> Session::sched_view(const std::string& module) const {
  const DActor* m = model_.actor_by_name(module);
  if (m == nullptr) m = model_.actor_by_path(module);
  if (m == nullptr || m->kind != DActorKind::kModule)
    return Status::error(ErrCode::kNotFound, "no such module: " + module);
  SchedView v;
  v.module = m->name;
  v.step = m->step;
  v.backend = sim::to_string(app_.kernel().backend());
  v.workers = app_.kernel().partition_count();
  for (std::uint32_t f : m->filters) {
    const DActor& a = model_.actors()[f];
    v.rows.push_back(SchedRow{a.name, to_string(a.sched), a.firings});
  }
  return v;
}

Result<TokenView> Session::last_token_view(const std::string& filter, std::size_t depth) const {
  const DActor* a = model_.actor_by_name(filter);
  if (a == nullptr) return no_such_filter(filter);
  if (!a->last_token_in.valid())
    return Status::error(ErrCode::kFailedPrecondition,
                         "filter " + filter + " has not received any token");
  TokenView v;
  v.filter = filter;
  for (const DToken* t : model_.token_path(a->last_token_in, depth))
    v.hops.push_back(make_hop(model_, *t));
  return v;
}

Result<WhenceChain> Session::whence_chain(const std::string& iface, std::size_t slot,
                                          std::size_t depth) const {
  const DLink* dl = model_.link_by_iface(iface);
  if (dl == nullptr) return no_link_on_iface(iface);
  if (slot >= dl->queue.size())
    return Status::error(ErrCode::kOutOfRange,
                         strformat("link `%s' holds %zu token(s), no slot %zu", dl->name.c_str(),
                                   dl->queue.size(), slot));
  auto path = model_.token_path(dl->queue[slot], depth);
  if (path.empty())
    return Status::error(ErrCode::kNotFound,
                         "token in slot " + std::to_string(slot) + " was pruned");
  WhenceChain v;
  v.link = dl->name;
  v.slot = slot;
  v.depth = depth;
  for (const DToken* t : path) v.hops.push_back(make_hop(model_, *t));
  v.truncated = path.size() == depth && path.back()->produced_from.valid();
  const DToken* root = path.back();
  if (!root->produced_from.valid()) {
    v.has_source = true;
    const DLink* rl = model_.link(root->link);
    v.source_actor = rl != nullptr ? rl->src_actor : std::string("?");
    v.source_injected = root->injected;
  }
  return v;
}

Result<LinkTokensView> Session::link_tokens_view(const std::string& iface) const {
  const DLink* dl = model_.link_by_iface(iface);
  if (dl == nullptr) return no_link_on_iface(iface);
  LinkTokensView v;
  v.link = dl->name;
  std::size_t slot = 0;
  for (TokenId id : dl->queue) {
    LinkTokenRow row;
    row.slot = slot++;
    const DToken* t = model_.token(id);
    if (t != nullptr) {
      row.value = t->value.to_string();
      row.pushed_at = t->pushed_at;
      row.injected = t->injected;
    } else {
      row.pruned = true;
    }
    v.tokens.push_back(std::move(row));
  }
  return v;
}

ProfileSnapshot Session::profile_snapshot() const {
  ProfileSnapshot v;
  v.now = app_.kernel().now();
  v.dispatches = app_.kernel().dispatch_count();
  for (const pedf::Actor* a : app_.actors()) {
    if (a->kind() == pedf::ActorKind::kModule) continue;
    const sim::Process* proc = app_.kernel().process_by_name(a->path());
    ProfileRow row;
    row.path = a->path();
    row.pe = a->pe() != nullptr ? a->pe()->name() : std::string("-");
    if (a->kind() == pedf::ActorKind::kFilter || a->kind() == pedf::ActorKind::kHostIo)
      row.firings = static_cast<const pedf::Filter*>(a)->firings();
    row.cycles = proc != nullptr ? proc->consumed_time() : 0;
    row.activations = proc != nullptr ? proc->activation_count() : 0;
    v.rows.push_back(std::move(row));
  }
  return v;
}

ShardProfileView Session::shard_profile() const {
  const sim::Kernel& k = app_.kernel();
  ShardProfileView v;
  v.backend = sim::to_string(k.backend());
  v.workers = k.partition_count();
  v.rounds = k.round_count();
  v.elided_rounds = k.elided_round_count();
  v.records = k.round_records().size();
  for (const sim::BarrierRoundRecord& r : k.round_records())
    if (r.boundary_hwm > v.boundary_hwm) v.boundary_hwm = r.boundary_hwm;
  if (!k.parallel()) return v;
  for (int p = 0; p < v.workers; ++p) {
    sim::Kernel::ShardTotals t = k.shard_totals(p);
    ShardRow row;
    row.partition = p;
    row.dispatches = t.dispatches;
    row.stalled_rounds = t.stalled_rounds;
    row.work_ns = t.work_ns;
    row.barrier_wait_ns = t.barrier_wait_ns;
    row.drain_ns = t.drain_ns;
    row.idle_ns = t.idle_ns;
    row.skipped_wakes = t.skipped_wakes;
    row.eager_drained = t.eager_drained;
    const std::uint64_t total = t.work_ns + t.barrier_wait_ns + t.drain_ns + t.idle_ns;
    if (total > 0)
      row.utilization = static_cast<double>(t.work_ns) / static_cast<double>(total);
    v.rows.push_back(row);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Wire encoding (the one serializer; schemas in docs/PROTOCOL.md)
// ---------------------------------------------------------------------------

namespace {

void hops_to_json(JsonWriter& w, const std::vector<TokenHop>& hops) {
  w.key("hops").begin_array();
  for (const TokenHop& h : hops) {
    w.begin_object()
        .kv("uid", h.uid)
        .kv("desc", h.desc)
        .kv("pushed_at", static_cast<std::uint64_t>(h.pushed_at))
        .kv("injected", h.injected)
        .end_object();
  }
  w.end_array();
}

}  // namespace

void to_json(JsonWriter& w, const LinkView& v) {
  w.begin_object().key("links").begin_array();
  for (const LinkRow& l : v.links) {
    w.begin_object()
        .kv("name", l.name)
        .kv("occupancy", static_cast<std::uint64_t>(l.occupancy))
        .kv("pushes", l.pushes)
        .kv("pops", l.pops)
        .kv("hwm", static_cast<std::uint64_t>(l.high_watermark))
        .kv("transport", l.transport)
        .end_object();
  }
  w.end_array().end_object();
}

void to_json(JsonWriter& w, const FilterView& v) {
  w.begin_object()
      .kv("name", v.name)
      .kv("path", v.path)
      .kv("state", v.state)
      .kv("firings", v.firings);
  if (v.line > 0) w.kv("line", v.line);
  w.kv("pe", v.pe).kv("behavior", v.behavior);
  if (v.has_blocked) {
    w.kv("blocked", to_string(v.blocked));
    if (!v.blocked_link.empty()) w.kv("blocked_link", v.blocked_link);
  }
  w.end_object();
}

void to_json(JsonWriter& w, const SchedView& v) {
  w.begin_object().kv("module", v.module).kv("step", v.step);
  w.kv("backend", v.backend).kv("workers", static_cast<std::uint64_t>(v.workers));
  w.key("filters").begin_array();
  for (const SchedRow& r : v.rows) {
    w.begin_object().kv("name", r.name).kv("state", r.state).kv("firings", r.firings).end_object();
  }
  w.end_array().end_object();
}

void to_json(JsonWriter& w, const TokenView& v) {
  w.begin_object().kv("filter", v.filter);
  hops_to_json(w, v.hops);
  w.end_object();
}

void to_json(JsonWriter& w, const WhenceChain& v) {
  w.begin_object()
      .kv("link", v.link)
      .kv("slot", static_cast<std::uint64_t>(v.slot))
      .kv("depth", static_cast<std::uint64_t>(v.depth));
  hops_to_json(w, v.hops);
  w.kv("truncated", v.truncated);
  if (v.has_source) {
    w.key("source")
        .begin_object()
        .kv("actor", v.source_actor)
        .kv("injected", v.source_injected)
        .end_object();
  }
  w.end_object();
}

void to_json(JsonWriter& w, const LinkTokensView& v) {
  w.begin_object().kv("link", v.link).key("tokens").begin_array();
  for (const LinkTokenRow& t : v.tokens) {
    w.begin_object().kv("slot", static_cast<std::uint64_t>(t.slot));
    if (t.pruned) {
      w.kv("pruned", true);
    } else {
      w.kv("value", t.value)
          .kv("pushed_at", static_cast<std::uint64_t>(t.pushed_at))
          .kv("injected", t.injected);
    }
    w.end_object();
  }
  w.end_array().end_object();
}

void to_json(JsonWriter& w, const ProfileSnapshot& v) {
  w.begin_object().kv("t", v.now).kv("dispatches", v.dispatches).key("actors").begin_array();
  for (const ProfileRow& r : v.rows) {
    w.begin_object()
        .kv("actor", r.path)
        .kv("pe", r.pe)
        .kv("firings", r.firings)
        .kv("cycles", r.cycles)
        .kv("activations", r.activations)
        .end_object();
  }
  w.end_array().end_object();
}

void to_json(JsonWriter& w, const ShardProfileView& v) {
  w.begin_object()
      .kv("backend", v.backend)
      .kv("workers", static_cast<std::uint64_t>(v.workers))
      .kv("rounds", v.rounds)
      .kv("elided_rounds", v.elided_rounds)
      .kv("records", v.records)
      .kv("boundary_hwm", v.boundary_hwm)
      .key("shards")
      .begin_array();
  for (const ShardRow& r : v.rows) {
    w.begin_object()
        .kv("partition", static_cast<std::uint64_t>(r.partition))
        .kv("dispatches", r.dispatches)
        .kv("stalled_rounds", r.stalled_rounds)
        .kv("work_ns", r.work_ns)
        .kv("barrier_wait_ns", r.barrier_wait_ns)
        .kv("drain_ns", r.drain_ns)
        .kv("idle_ns", r.idle_ns)
        .kv("skipped_wakes", r.skipped_wakes)
        .kv("eager_drained", r.eager_drained)
        .kv("utilization", r.utilization)
        .end_object();
  }
  w.end_array().end_object();
}

void to_json(JsonWriter& w, const sim::BarrierRoundRecord& r) {
  w.begin_object()
      .kv("round", r.round)
      .kv("vtime", static_cast<std::uint64_t>(r.vtime))
      .kv("wall_ns", r.wall_ns)
      .kv("drain_ns", r.drain_ns)
      .kv("boundary_hwm", r.boundary_hwm)
      .kv("elided", r.elided)
      .key("partitions")
      .begin_array();
  for (const auto& p : r.partitions) {
    w.begin_object()
        .kv("dispatches", p.dispatches)
        .kv("eager", p.eager)
        .kv("work_ns", p.work_ns)
        .kv("wait_ns", p.wait_ns)
        .kv("stalled", p.stalled)
        .kv("skipped", p.skipped)
        .end_object();
  }
  w.end_array().end_object();
}

void to_json(JsonWriter& w, const BreakpointInfo& v) {
  w.begin_object()
      .kv("id", static_cast<std::uint64_t>(v.id.value()))
      .kv("description", v.description)
      .kv("enabled", v.enabled)
      .kv("temporary", v.temporary)
      .kv("hits", v.hits)
      .end_object();
}

void to_json(JsonWriter& w, const StopEvent& v) {
  w.begin_object().kv("kind", to_string(v.kind)).kv("message", v.message);
  if (!v.actor.empty()) w.kv("actor", v.actor);
  if (!v.iface.empty()) w.kv("iface", v.iface);
  if (v.token.valid()) w.kv("token", static_cast<std::uint64_t>(v.token.value()));
  if (v.breakpoint.valid()) w.kv("breakpoint", static_cast<std::uint64_t>(v.breakpoint.value()));
  if (v.line > 0) w.kv("line", v.line);
  w.kv("time", static_cast<std::uint64_t>(v.time)).end_object();
}

void to_json(JsonWriter& w, const RunOutcome& v) {
  w.begin_object().kv("result", sim::to_string(v.result)).key("stops").begin_array();
  for (const StopEvent& s : v.stops) to_json(w, s);
  w.end_array().end_object();
}

}  // namespace dfdbg::dbg
