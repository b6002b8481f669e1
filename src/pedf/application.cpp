#include "dfdbg/pedf/application.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/pedf/boundary.hpp"
#include "dfdbg/pedf/symbols.hpp"

namespace dfdbg::pedf {

using sim::ArgValue;

namespace {
/// Firing sequence number of an actor, for journal provenance stamps
/// (controllers and modules do not fire; they journal as firing 0).
std::uint64_t firing_of(const Actor& actor) {
  if (actor.kind() == ActorKind::kFilter || actor.kind() == ActorKind::kHostIo)
    return static_cast<const Filter&>(actor).firings();
  return 0;
}

/// Host I/O that never calls Pe::execute — every sink, and a source with no
/// inter-token host work. Nothing ever waits on such an actor's PE, so the
/// co-PE partition constraint protects nothing for it.
bool never_takes_pe(const Actor& a) {
  if (a.kind() != ActorKind::kHostIo) return false;
  const auto* src = dynamic_cast<const HostSource*>(&a);
  return src == nullptr || src->period() == 0;
}

/// The actor at the other end of a host I/O actor's single link.
const Actor& host_io_peer(const Actor& a) {
  const Port& p = *a.ports().front();
  return p.dir() == PortDir::kOut ? p.link()->dst()->owner() : p.link()->src()->owner();
}
}  // namespace

Application::Application(sim::Platform& platform, std::string name)
    : platform_(platform), name_(std::move(name)) {
  // The framework API symbols exist as soon as the framework is loaded
  // (a debugger can set breakpoints on them before any graph exists).
  intern_symbols();
}

Application::~Application() = default;

Module& Application::set_root(std::unique_ptr<Module> root) {
  DFDBG_CHECK(root != nullptr && root_ == nullptr);
  root_ = std::move(root);
  return *root_;
}

HostSource& Application::add_host_source(std::string name, const std::string& target,
                                         std::vector<Value> stream, sim::SimTime period) {
  DFDBG_CHECK_MSG(!elaborated_, "add_host_source after elaborate");
  DFDBG_CHECK_MSG(!stream.empty(), "empty host source stream");
  TypeDesc type = stream.front().type();
  auto src = std::make_unique<HostSource>(std::move(name), type, std::move(stream), period);
  HostSource* raw = src.get();
  host_io_.push_back(std::move(src));
  host_bindings_.push_back(HostBinding{raw, target, /*is_source=*/true});
  return *raw;
}

HostSink& Application::add_host_sink(std::string name, const std::string& target,
                                     std::size_t expected) {
  DFDBG_CHECK_MSG(!elaborated_, "add_host_sink after elaborate");
  // The sink port type is resolved against the target port at elaboration;
  // start permissive with U32 and fix it up in resolve_bindings().
  auto sink = std::make_unique<HostSink>(std::move(name), TypeDesc(), expected);
  HostSink* raw = sink.get();
  host_io_.push_back(std::move(sink));
  host_bindings_.push_back(HostBinding{raw, target, /*is_source=*/false});
  return *raw;
}

void Application::map_actor(std::string path, std::string pe_name) {
  DFDBG_CHECK_MSG(!elaborated_, "map_actor after elaborate");
  pinned_[std::move(path)] = std::move(pe_name);
}

// ---------------------------------------------------------------------------
// Elaboration
// ---------------------------------------------------------------------------

void Application::collect_actors(Module& m) {
  actors_.push_back(&m);
  if (m.controller() != nullptr) {
    m.controller()->set_path(m.path() + "." + m.controller()->name());
    actors_.push_back(m.controller());
  }
  for (const auto& f : m.filters()) {
    f->set_path(m.path() + "." + f->name());
    actors_.push_back(f.get());
  }
  for (const auto& sub : m.modules()) {
    sub->set_path(m.path() + "." + sub->name());
    collect_actors(*sub);
  }
}

Status Application::resolve_bindings() {
  // Endpoint = a concrete Port*. Edges follow the `binds src to dst`
  // declarations; module boundary ports are pass-through nodes that the
  // flattening walks straight through.
  std::map<Port*, Port*> edge;       // data flows key -> value
  std::set<Port*> edge_targets;

  auto add_edge = [&](Port* a, Port* b) -> Status {
    if (edge.count(a) != 0)
      return Status::error("port bound twice as source: " + a->owner().path() + "." + a->name());
    if (edge_targets.count(b) != 0)
      return Status::error("port bound twice as target: " + b->owner().path() + "." + b->name());
    edge[a] = b;
    edge_targets.insert(b);
    return Status{};
  };

  // Resolve one "child.port" / "this.port" endpoint within module `m`.
  auto resolve_endpoint = [&](Module& m, const std::string& text) -> Result<Port*> {
    auto dot = text.find('.');
    if (dot == std::string::npos)
      return Status::error(m.path() + ": malformed endpoint '" + text + "'");
    std::string who = text.substr(0, dot);
    std::string pname = text.substr(dot + 1);
    Actor* owner = nullptr;
    if (who == "this") {
      owner = &m;
    } else {
      owner = m.child(who);
      if (owner == nullptr)
        return Status::error(m.path() + ": no child '" + who + "' in binding '" + text + "'");
    }
    Port* p = owner->port(pname);
    if (p == nullptr)
      return Status::error(m.path() + ": no port '" + pname + "' on '" + who + "'");
    return p;
  };

  // Gather edges from the whole hierarchy.
  std::vector<Module*> mods;
  std::function<void(Module&)> walk = [&](Module& m) {
    mods.push_back(&m);
    for (const auto& sub : m.modules()) walk(*sub);
  };
  walk(*root_);
  for (Module* m : mods) {
    for (const BindingDecl& b : m->bindings()) {
      auto src = resolve_endpoint(*m, b.src);
      if (!src.ok()) return src.status();
      auto dst = resolve_endpoint(*m, b.dst);
      if (!dst.ok()) return dst.status();
      if (Status s = add_edge(*src, *dst); !s.ok()) return s;
    }
  }

  // Host I/O edges.
  for (HostBinding& hb : host_bindings_) {
    // target format: "<module path relative to root, no root prefix>.<port>"
    // or "<root>.<...>.<port>". Resolve by longest actor-path prefix match.
    Actor* owner = nullptr;
    Port* p = nullptr;
    for (Actor* a : actors_) {
      const std::string& path = a->path();
      if (hb.target.size() > path.size() + 1 && starts_with(hb.target, path) &&
          hb.target[path.size()] == '.') {
        std::string pname = hb.target.substr(path.size() + 1);
        if (Port* cand = a->port(pname); cand != nullptr) {
          if (owner == nullptr || path.size() > owner->path().size()) {
            owner = a;
            p = cand;
          }
        }
      }
    }
    if (p == nullptr) return Status::error("host binding: cannot resolve target '" + hb.target + "'");
    if (hb.is_source) {
      if (Status s = add_edge(hb.host_actor->port("out"), p); !s.ok()) return s;
    } else {
      // Fix up the sink's port type to match the graph output it drains.
      auto* sink_port = hb.host_actor->port("in");
      *sink_port = Port(hb.host_actor, "in", PortDir::kIn, p->type());
      if (Status s = add_edge(p, hb.host_actor->port("in")); !s.ok()) return s;
    }
  }

  // Flatten chains from every real producer port.
  auto is_real = [](Port* p) { return p->owner().kind() != ActorKind::kModule; };

  for (Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule) continue;
    for (const auto& pp : a->ports()) {
      Port* out = pp.get();
      if (out->dir() != PortDir::kOut) continue;
      Port* cur = out;
      std::size_t hops = 0;
      while (true) {
        auto it = edge.find(cur);
        if (it == edge.end())
          return Status::error("unbound output port: " + cur->owner().path() + "." + cur->name() +
                               (cur == out ? "" : " (reached from " + out->owner().path() + "." +
                                                      out->name() + ")"));
        Port* nxt = it->second;
        if (!(nxt->type() == out->type()))
          return Status::error("type mismatch on binding into " + nxt->owner().path() + "." +
                               nxt->name() + ": " + out->type().name() + " vs " +
                               nxt->type().name());
        if (is_real(nxt)) {
          if (nxt->dir() != PortDir::kIn)
            return Status::error("binding targets an output port: " + nxt->owner().path() + "." +
                                 nxt->name());
          auto id = LinkId(static_cast<std::uint32_t>(links_.size()));
          std::string lname = out->owner().name() + "::" + out->name() + " -> " +
                              nxt->owner().name() + "::" + nxt->name();
          links_.push_back(std::make_unique<Link>(id, lname, out->type(), out, nxt));
          out->set_link(links_.back().get());
          nxt->set_link(links_.back().get());
          break;
        }
        cur = nxt;  // module boundary port: pass through
        if (++hops > 1000)
          return Status::error("binding cycle through module ports at " + cur->owner().path() +
                               "." + cur->name());
      }
    }
  }

  // Every real input port must have ended up on a link.
  for (Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule) continue;
    for (const auto& pp : a->ports()) {
      if (pp->dir() == PortDir::kIn && pp->link() == nullptr)
        return Status::error("unbound input port: " + a->path() + "." + pp->name());
    }
  }
  return Status{};
}

void Application::assign_mapping() {
  std::size_t host_rr = 0;
  for (Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule) continue;
    auto it = pinned_.find(a->path());
    if (it != pinned_.end()) {
      sim::Pe* pe = platform_.pe_by_name(it->second);
      DFDBG_CHECK_MSG(pe != nullptr, "unknown PE '" + it->second + "' for " + a->path());
      a->set_pe(pe);
      continue;
    }
    if (a->kind() == ActorKind::kHostIo) {
      const auto& hosts = platform_.host_pes();
      a->set_pe(hosts[host_rr++ % hosts.size()].get());
    } else {
      a->set_pe(&platform_.allocate_fabric_pe());
    }
  }
  // Link transports follow the mapping.
  for (auto& l : links_) {
    sim::Pe* s = l->src()->owner().pe();
    sim::Pe* d = l->dst()->owner().pe();
    if (s->kind() == sim::PeKind::kHost || d->kind() == sim::PeKind::kHost)
      l->set_transport(LinkTransport::kHostDma);
    else if (s->cluster_index() == d->cluster_index())
      l->set_transport(LinkTransport::kLocal);
    else
      l->set_transport(LinkTransport::kInterCluster);
  }
}

void Application::intern_symbols() {
  // Each symbol with its argument layout: the names, in order, of the
  // arguments its shim reports (what a debugger would read from DWARF).
  auto& port = platform_.kernel().instrument();
  syms_.register_actor =
      port.intern(symbols::kRegisterActor, {"kind", "name", "path", "pe", "parent", "id"});
  syms_.register_port = port.intern(symbols::kRegisterPort, {"actor", "port", "dir", "type"});
  syms_.register_link =
      port.intern(symbols::kRegisterLink, {"link", "name", "src_actor", "src_port", "dst_actor",
                                           "dst_port", "type", "transport"});
  syms_.graph_ready = port.intern(symbols::kGraphReady, {"app", "actors", "links"});
  syms_.link_push =
      port.intern(symbols::kLinkPush, {"link", "index", "value", "actor", "actor_id", "port"});
  syms_.link_pop = port.intern(symbols::kLinkPop, {"link", "index", "actor", "actor_id", "port"});
  syms_.work_enter = port.intern(symbols::kWorkEnter, {"actor", "actor_id", "step", "firing"});
  syms_.work_exit = port.intern(symbols::kWorkExit, {"actor", "actor_id", "step", "firing"});
  syms_.filter_line = port.intern(symbols::kFilterLine, {"actor", "actor_id", "line"});
  syms_.actor_start =
      port.intern(symbols::kActorStart, {"controller", "filter", "filter_id", "name", "step"});
  syms_.actor_sync =
      port.intern(symbols::kActorSync, {"controller", "filter", "filter_id", "name", "step"});
  syms_.wait_actor_init = port.intern(symbols::kWaitActorInit, {"module", "module_id", "step"});
  syms_.wait_actor_sync = port.intern(symbols::kWaitActorSync, {"module", "module_id", "step"});
  syms_.step_begin =
      port.intern(symbols::kStepBegin, {"module", "module_id", "controller", "step"});
  syms_.step_end = port.intern(symbols::kStepEnd, {"module", "module_id", "controller", "step"});
  syms_.predicate_eval =
      port.intern(symbols::kPredicateEval, {"module", "module_id", "controller", "name"});
  syms_.debug_inject = port.intern(symbols::kDebugInject, {"link", "index", "value"});
  syms_.debug_remove = port.intern(symbols::kDebugRemove, {"link", "slot", "value"});
  syms_.debug_replace = port.intern(symbols::kDebugReplace, {"link", "slot", "value"});
}

void Application::intern_link_symbols() {
  auto& port = platform_.kernel().instrument();
  link_syms_.clear();
  link_syms_.reserve(links_.size());
  for (const auto& l : links_) {
    LinkSymbols ls;
    ls.push_iface = port.intern_instance(
        symbols::instance(symbols::kLinkPush,
                          l->src()->owner().name() + "::" + l->src()->name()),
        syms_.link_push);
    ls.pop_iface = port.intern_instance(
        symbols::instance(symbols::kLinkPop, l->dst()->owner().name() + "::" + l->dst()->name()),
        syms_.link_pop);
    link_syms_.push_back(ls);
  }
}

void Application::replay_registration() {
  auto& port = platform_.kernel().instrument();
  sim::Kernel& k = platform_.kernel();
  for (Actor* a : actors_) {
    const char* pe_name = a->pe() != nullptr ? a->pe()->name().c_str() : "";
    const char* parent = a->parent() != nullptr ? a->parent()->path().c_str() : "";
    const ArgValue args[] = {
        ArgValue::of_str("kind", to_string(a->kind())),
        ArgValue::of_str("name", a->name().c_str()),
        ArgValue::of_str("path", a->path().c_str()),
        ArgValue::of_str("pe", pe_name),
        ArgValue::of_str("parent", parent),
        ArgValue::of_u64("id", a->id().value()),
    };
    port.fire_enter(k, syms_.register_actor, args);
    for (const auto& p : a->ports()) {
      std::string tname = p->type().name();
      const ArgValue pargs[] = {
          ArgValue::of_str("actor", a->path().c_str()),
          ArgValue::of_str("port", p->name().c_str()),
          ArgValue::of_str("dir", p->dir() == PortDir::kIn ? "in" : "out"),
          ArgValue::of_str("type", tname.c_str()),
      };
      port.fire_enter(k, syms_.register_port, pargs);
    }
  }
  for (const auto& l : links_) {
    std::string tname = l->type().name();
    const ArgValue largs[] = {
        ArgValue::of_u64("link", l->id().value()),
        ArgValue::of_str("name", l->name().c_str()),
        ArgValue::of_str("src_actor", l->src()->owner().path().c_str()),
        ArgValue::of_str("src_port", l->src()->name().c_str()),
        ArgValue::of_str("dst_actor", l->dst()->owner().path().c_str()),
        ArgValue::of_str("dst_port", l->dst()->name().c_str()),
        ArgValue::of_str("type", tname.c_str()),
        ArgValue::of_str("transport", to_string(l->transport())),
    };
    port.fire_enter(k, syms_.register_link, largs);
  }
  const ArgValue gargs[] = {ArgValue::of_str("app", name_.c_str()),
                            ArgValue::of_u64("actors", actors_.size()),
                            ArgValue::of_u64("links", links_.size())};
  port.fire_enter(k, syms_.graph_ready, gargs);
}

Status Application::elaborate() {
  DFDBG_CHECK_MSG(root_ != nullptr, "no root module");
  DFDBG_CHECK_MSG(!elaborated_, "elaborate called twice");

  actors_.clear();
  root_->set_path(root_->name());
  collect_actors(*root_);
  for (const auto& h : host_io_) {
    h->set_path("host." + h->name());
    actors_.push_back(h.get());
  }

  // Ids, journal names, path map, and short-name map (unique names only).
  // Names go into the journal the kernel captured, which a hosted session's
  // build already points at the session's journal.
  by_path_.clear();
  by_name_.clear();
  obs::Journal& journal = kernel().journal();
  debugger_jname_ = journal.intern_name("<debugger>");
  std::set<std::string> ambiguous;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    Actor* a = actors_[i];
    a->set_id(ActorId(static_cast<std::uint32_t>(i)));
    a->set_journal_name(journal.intern_name(a->path()));
    if (by_path_.count(a->path()) != 0)
      return Status::error("duplicate actor path: " + a->path());
    by_path_[a->path()] = a;
    if (ambiguous.count(a->name()) != 0) continue;
    auto [it, inserted] = by_name_.emplace(a->name(), a);
    if (!inserted) {
      // Two filters with the same short name would make the paper's CLI
      // addressing ambiguous; reject that. Other kinds just lose the alias.
      if (it->second->kind() == ActorKind::kFilter && a->kind() == ActorKind::kFilter)
        return Status::error("duplicate filter name: " + a->name());
      by_name_.erase(it);
      ambiguous.insert(a->name());
    }
  }

  if (Status s = resolve_bindings(); !s.ok()) return s;
  assign_mapping();
  intern_link_symbols();
  replay_registration();
  elaborated_ = true;
  return Status{};
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Actor* Application::actor_by_path(std::string_view path) const {
  auto it = by_path_.find(std::string(path));
  return it == by_path_.end() ? nullptr : it->second;
}

Actor* Application::actor_by_name(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : it->second;
}

Filter* Application::filter_by_name(std::string_view name) const {
  Actor* a = actor_by_name(name);
  if (a == nullptr) return nullptr;
  if (a->kind() != ActorKind::kFilter && a->kind() != ActorKind::kHostIo) return nullptr;
  return static_cast<Filter*>(a);
}

Link* Application::link_by_id(LinkId id) const {
  if (!id.valid() || id.value() >= links_.size()) return nullptr;
  return links_[id.value()].get();
}

std::function<std::string(std::uint32_t)> Application::link_namer() const {
  return [this](std::uint32_t id) {
    const Link* l = link_by_id(LinkId(id));
    return l != nullptr ? l->name() : strformat("link#%u", id);
  };
}

Link* Application::link_by_iface(std::string_view iface) const {
  auto pos = iface.find("::");
  if (pos == std::string_view::npos) return nullptr;
  Port* p = find_port(iface.substr(0, pos), iface.substr(pos + 2));
  return p == nullptr ? nullptr : p->link();
}

Port* Application::find_port(std::string_view actor, std::string_view port) const {
  Actor* a = actor_by_name(actor);
  if (a == nullptr) a = actor_by_path(actor);
  if (a == nullptr) return nullptr;
  return a->port(port);
}

const LinkSymbols& Application::link_syms(LinkId id) const {
  DFDBG_CHECK(id.valid() && id.value() < link_syms_.size());
  return link_syms_[id.value()];
}

// ---------------------------------------------------------------------------
// Process spawning
// ---------------------------------------------------------------------------

void Application::set_partition(const std::string& path, int partition) {
  DFDBG_CHECK_MSG(!started_, "set_partition after start");
  partition_override_[path] = partition;
}

void Application::prepare_partitions() {
  sim::Kernel& k = kernel();
  const int K = k.partition_count();
  partition_of_.assign(actors_.size(), 0);

  // (1) Platform-derived defaults: one partition per cluster, folded onto
  // the available workers. Host-mapped actors (no cluster) go to 0; step 3b
  // moves those that never take their PE next to their data.
  for (Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule) continue;
    int c = a->pe() != nullptr ? a->pe()->cluster_index() : -1;
    partition_of_[a->id().value()] = c < 0 ? 0 : c % K;
  }

  // (1b) Adaptive policy: rewrite the defaults from the recorded load
  // profile. Runs before the overrides so explicit set_partition still wins.
  if (partition_policy_ == PartitionPolicy::kAdaptive) rebalance_partitions_adaptive(K);

  // (2) Explicit overrides. A module path stands for its controller and its
  // filters. `forced` remembers user intent so step 3 can tell a genuine
  // conflict from a default it is allowed to rewrite.
  std::vector<char> forced(actors_.size(), 0);
  for (const auto& [path, p] : partition_override_) {
    Actor* a = actor_by_path(path);
    if (a == nullptr) a = actor_by_name(path);
    DFDBG_CHECK_MSG(a != nullptr, "set_partition: unknown actor '" + path + "'");
    DFDBG_CHECK_MSG(p >= 0 && p < K, "set_partition('" + path + "'): partition " +
                                         std::to_string(p) + " outside [0, " +
                                         std::to_string(K) + ")");
    std::vector<Actor*> members;
    if (a->kind() == ActorKind::kModule) {
      auto* m = static_cast<Module*>(a);
      if (m->controller() != nullptr) members.push_back(m->controller());
      for (const auto& f : m->filters()) members.push_back(f.get());
    } else {
      members.push_back(a);
    }
    for (Actor* mem : members) {
      partition_of_[mem->id().value()] = p;
      forced[mem->id().value()] = 1;
    }
  }

  // (3) Atomicity: a controller and the filters it schedules are one unit —
  // the controller mutates their step state and start events directly, which
  // only stays race-free when they share a partition. Overrides on members
  // of one unit must agree; absent an override the controller's slot wins.
  for (Actor* a : actors_) {
    if (a->kind() != ActorKind::kModule) continue;
    auto* m = static_cast<Module*>(a);
    Controller* c = m->controller();
    if (c == nullptr) continue;
    std::vector<Actor*> unit{c};
    for (const auto& f : m->filters()) unit.push_back(f.get());
    int want = -1;
    const Actor* first = nullptr;
    for (Actor* mem : unit) {
      if (forced[mem->id().value()] == 0) continue;
      int p = partition_of_[mem->id().value()];
      if (want < 0) {
        want = p;
        first = mem;
        continue;
      }
      DFDBG_CHECK_MSG(p == want,
                      "set_partition: " + mem->path() + " (partition " + std::to_string(p) +
                          ") and " + first->path() + " (partition " + std::to_string(want) +
                          ") belong to module " + m->path() +
                          ", whose controller and filters must share a partition "
                          "(controllers drive filter scheduling state directly; "
                          "see docs/KERNEL.md)");
    }
    if (want < 0) want = partition_of_[c->id().value()];
    for (Actor* mem : unit) partition_of_[mem->id().value()] = want;
  }

  // (3b) Host I/O that never takes its PE follows the actor at the other end
  // of its link, so each lane's source and sink live with the lane's data
  // instead of pinning every host endpoint to one partition. Overrides win.
  for (Actor* a : actors_) {
    if (!never_takes_pe(*a) || forced[a->id().value()] != 0) continue;
    partition_of_[a->id().value()] = partition_of_[host_io_peer(*a).id().value()];
  }

  // (4) Actors sharing a PE must share a partition: the PE's exclusivity
  // event (busy/free) can only serve waiters from one partition. Actors that
  // never take their PE never wait on that event and are exempt.
  std::map<sim::Pe*, Actor*> pe_owner;
  for (Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule || a->pe() == nullptr || never_takes_pe(*a)) continue;
    auto [it, fresh] = pe_owner.emplace(a->pe(), a);
    if (!fresh) {
      DFDBG_CHECK_MSG(
          partition_of_[it->second->id().value()] == partition_of_[a->id().value()],
          "set_partition: " + a->path() + " and " + it->second->path() + " share PE " +
              a->pe()->name() +
              " but landed in different partitions; co-mapped actors must be "
              "co-partitioned (see docs/KERNEL.md)");
    }
  }

  // (5) Pre-bind every runtime event to its (single) waiting partition, and
  // give each partition-crossing link a boundary channel. data_avail is
  // waited by the consumer, space_avail by the producer; module step events
  // by the controller; start events by the filter itself.
  for (Actor* a : actors_) {
    switch (a->kind()) {
      case ActorKind::kFilter:
      case ActorKind::kHostIo:
        static_cast<Filter*>(a)->start_event_.bind_partition(actor_partition(*a));
        break;
      case ActorKind::kController: {
        auto* c = static_cast<Controller*>(a);
        c->module()->init_done_.bind_partition(actor_partition(*a));
        c->module()->sync_done_.bind_partition(actor_partition(*a));
        break;
      }
      case ActorKind::kModule:
        break;
    }
  }
  inbound_by_shard_.assign(static_cast<std::size_t>(K), {});
  for (const auto& l : links_) {
    const int ps = actor_partition(l->src()->owner());
    const int pd = actor_partition(l->dst()->owner());
    l->data_avail().bind_partition(pd);
    if (ps == pd) {
      l->space_avail().bind_partition(ps);
      continue;
    }
    // A boundary link's space_avail is only ever *notified* — by the
    // consumer's pops — never waited on (the producer blocks on the
    // channel's own space event instead). Binding it to the consumer lets
    // those notifies coalesce locally instead of deferring a useless
    // cross-partition wake every pop, which would force a barrier on every
    // otherwise-elidable round.
    l->space_avail().bind_partition(pd);
    std::size_t cap = l->capacity() == SIZE_MAX
                          ? BoundaryChannel::kDefaultSlots
                          : std::min(l->capacity(), BoundaryChannel::kDefaultSlots);
    boundaries_.push_back(std::make_unique<BoundaryChannel>(*l, cap));
    boundaries_.back()->space_avail().bind_partition(ps);
    l->set_outbox(boundaries_.back().get());
    inbound_by_shard_[static_cast<std::size_t>(pd)].push_back(boundaries_.back().get());
  }
  k.add_barrier_task([this] { return drain_boundaries(); });
  if (!boundaries_.empty()) {
    // Relaxed-synchrony integration (see boundary.hpp and docs/KERNEL.md):
    // consumer shards drain published tokens during the round; the
    // coordinator publishes/reclaims only on rounds with cross-partition
    // effects and wakes only shards whose channels can deliver.
    sim::Kernel::BoundaryHooks hooks;
    hooks.eager_drain = [this](int p) { return eager_drain_boundaries(p); };
    hooks.activity = [this] {
      for (const auto& ch : boundaries_)
        if (ch->has_unpublished()) return true;
      return false;
    };
    hooks.publish = [this] { return publish_boundaries(); };
    hooks.pending = [this](std::vector<std::uint8_t>& mask) {
      for (std::size_t p = 0; p < inbound_by_shard_.size() && p < mask.size(); ++p) {
        for (const BoundaryChannel* ch : inbound_by_shard_[p]) {
          if (ch->eligible()) {
            mask[p] = 1;
            break;
          }
        }
      }
    };
    k.set_boundary_hooks(std::move(hooks));
  }
  // Shard time attribution: the coordinator samples this every round —
  // elided ones included — for the round record's boundary occupancy
  // high-water mark.
  k.set_boundary_probe([this] {
    std::uint64_t hwm = 0;
    for (const auto& ch : boundaries_)
      hwm = std::max(hwm, static_cast<std::uint64_t>(ch->pending()));
    return hwm;
  });
}

std::map<std::string, std::uint64_t> Application::dispatch_profile() const {
  std::map<std::string, std::uint64_t> out;
  for (const Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule) continue;
    const sim::Process* p = platform_.kernel().process_by_name(a->path());
    if (p != nullptr) out[a->path()] = p->activation_count();
  }
  return out;
}

std::map<std::string, std::uint64_t> Application::dispatch_time_profile() const {
  std::map<std::string, std::uint64_t> out;
  for (const Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule) continue;
    const sim::Process* p = platform_.kernel().process_by_name(a->path());
    // Zero entries are omitted so an unobserved run yields an empty profile
    // and kAdaptive falls back to the activation profile.
    if (p != nullptr && p->consumed_wall_ns() != 0) out[a->path()] = p->consumed_wall_ns();
  }
  return out;
}

void Application::rebalance_partitions_adaptive(int workers) {
  if (workers <= 1) return;
  // Time-weighted LPT when a time profile is installed (observed fire
  // nanoseconds close the loop better than activation counts when firings
  // have uneven cost); activation-weighted otherwise.
  const std::map<std::string, std::uint64_t>& profile =
      partition_time_profile_.empty() ? partition_profile_ : partition_time_profile_;
  if (profile.empty()) return;
  // Atomic placement units mirror the constraints steps 3–4 validate: a
  // module's controller and filters move together, and PE co-residents move
  // together — except host I/O that never takes its PE, which joins the unit
  // of its link peer (where step 3b places it). Union-find over actor ids.
  const std::size_t n = actors_.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto unite = [&](std::size_t a, std::size_t b) { parent[find(a)] = find(b); };
  for (Actor* a : actors_) {
    if (a->kind() != ActorKind::kModule) continue;
    auto* m = static_cast<Module*>(a);
    Controller* c = m->controller();
    if (c == nullptr) continue;
    for (const auto& f : m->filters()) unite(f->id().value(), c->id().value());
  }
  std::map<sim::Pe*, std::size_t> pe_first;
  for (Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule || a->pe() == nullptr) continue;
    if (never_takes_pe(*a)) {
      unite(a->id().value(), host_io_peer(*a).id().value());
      continue;
    }
    auto [it, fresh] = pe_first.emplace(a->pe(), a->id().value());
    if (!fresh) unite(a->id().value(), it->second);
  }
  // Weigh each unit by its recorded load — fire nanoseconds or activations
  // (actors missing from the profile weigh 1, so a stale profile still
  // spreads them) — and place
  // heaviest-first onto the least-loaded partition (LPT). Units enumerate in
  // root-id order and every tie breaks on lowest id / lowest partition: the
  // resulting map is a pure function of (graph, profile, worker count).
  struct Unit {
    std::uint64_t weight = 0;
    std::vector<Actor*> members;  // actor-id order
  };
  std::map<std::size_t, Unit> units;  // root id -> unit
  for (Actor* a : actors_) {
    if (a->kind() == ActorKind::kModule) continue;
    Unit& u = units[find(a->id().value())];
    auto it = profile.find(a->path());
    u.weight += it != profile.end() ? std::max<std::uint64_t>(it->second, 1) : 1;
    u.members.push_back(a);
  }
  std::vector<const Unit*> order;
  order.reserve(units.size());
  for (const auto& [root, u] : units) order.push_back(&u);
  std::stable_sort(order.begin(), order.end(),
                   [](const Unit* a, const Unit* b) { return a->weight > b->weight; });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(workers), 0);
  for (const Unit* u : order) {
    int best = 0;
    for (int p = 1; p < workers; ++p)
      if (load[p] < load[best]) best = p;
    load[best] += u->weight;
    for (Actor* mem : u->members) partition_of_[mem->id().value()] = best;
  }
}

bool Application::drain_boundaries() {
  bool progress = false;
  for (auto& ch : boundaries_) progress |= ch->drain(kernel());
  return progress;
}

std::size_t Application::eager_drain_boundaries(int partition) {
  std::size_t moved = 0;
  for (BoundaryChannel* ch : inbound_by_shard_[static_cast<std::size_t>(partition)])
    moved += ch->drain_eligible(kernel());
  return moved;
}

bool Application::publish_boundaries() {
  bool woke = false;
  for (auto& ch : boundaries_) woke |= ch->publish(kernel());
  return woke;
}

void Application::spawn_filter_process(Filter* f) {
  f->bind(f->pedf_.emplace(*this, *f));
  kernel().spawn_in(actor_partition(*f), f->path(), [this, f] {
    FilterContext& ctx = *f->pedf_;
    for (;;) {
      if (!f->free_running_) {
        while (f->step_state_ != StepState::kScheduled && !f->terminate_) {
          f->set_blocked(BlockInfo{BlockInfo::Kind::kStart, nullptr});
          kernel().wait(f->start_event_);
        }
        f->set_blocked(BlockInfo{});
        if (f->terminate_) break;
      } else if (f->terminate_) {
        break;
      }
      rt_work_enter(*f);
      f->work(ctx);
      rt_work_exit(*f);
    }
  });
}

void Application::spawn_controller_process(Controller* c, Module* m) {
  kernel().spawn_in(actor_partition(*c), c->path(), [this, c, m] {
    ControllerContext ctx(*this, *c, *m);
    c->control(ctx);
    if (m->step_ > 0) rt_step_end(*c, *m);
    // Module done: release its filters.
    for (const auto& f : m->filters()) {
      f->terminate_ = true;
      kernel().notify(f->start_event_);
    }
  });
}

void Application::start() {
  DFDBG_CHECK_MSG(elaborated_, "start before elaborate");
  DFDBG_CHECK_MSG(!started_, "start called twice");
  if (kernel().parallel()) prepare_partitions();
  for (Actor* a : actors_) {
    switch (a->kind()) {
      case ActorKind::kFilter:
      case ActorKind::kHostIo:
        spawn_filter_process(static_cast<Filter*>(a));
        break;
      case ActorKind::kController: {
        auto* c = static_cast<Controller*>(a);
        spawn_controller_process(c, c->module());
        break;
      }
      case ActorKind::kModule:
        break;
    }
  }
  started_ = true;
}

void Application::finish_io() {
  io_finishing_ = true;
  for (const auto& h : host_io_) h->terminate_ = true;
  for (const auto& l : links_) kernel().notify(l->data_avail());
}

// ---------------------------------------------------------------------------
// Runtime shims (the framework API the debugger breakpoints)
// ---------------------------------------------------------------------------

void Application::model_transfer_cost(Link& link, std::size_t n) {
  sim::Kernel& k = kernel();
  if (k.current() == nullptr) return;  // debugger-context access: free
  std::uint64_t bytes = link.type().byte_size() * n;
  switch (link.transport()) {
    case LinkTransport::kLocal: {
      int c = link.src()->owner().pe()->cluster_index();
      if (c < 0) c = link.dst()->owner().pe()->cluster_index();
      if (c >= 0)
        platform_.fabric()[static_cast<std::size_t>(c)].l1->access(k, bytes);
      break;
    }
    case LinkTransport::kInterCluster:
      platform_.l2().access(k, bytes);
      break;
    case LinkTransport::kHostDma: {
      auto& dmas = platform_.dmas();
      DFDBG_CHECK(!dmas.empty());
      dmas[link.id().value() % dmas.size()]->transfer(k, platform_.l2(), platform_.l3(), bytes);
      break;
    }
  }
}

sim::SymbolId Application::link_instance(const Link& link, bool push) const {
  if (!cooperation_) return sim::SymbolId{};
  const LinkSymbols& ls = link_syms_[link.id().value()];
  return push ? ls.push_iface : ls.pop_iface;
}

bool Application::data_hook_armed(const Link& link, bool push) {
  return kernel().instrument().armed(push ? syms_.link_push : syms_.link_pop,
                                     link_instance(link, push));
}

void Application::rt_link_push(Actor& actor, Port& port, const Value& v) {
  Link* link = port.link();
  DFDBG_CHECK_MSG(link != nullptr, actor.path() + "." + port.name() + " is not bound");
  DFDBG_CHECK_MSG(v.type() == link->type(),
                  "type mismatch pushing " + v.type().name() + " on " + link->name());
  if (link->outbox() != nullptr) {
    rt_link_push_boundary(actor, port, *link, v);
    return;
  }
  const ArgValue args[] = {
      ArgValue::of_u64("link", link->id().value()),
      ArgValue::of_u64("index", link->push_index()),
      ArgValue::of_ptr("value", const_cast<Value*>(&v)),
      ArgValue::of_str("actor", actor.path().c_str()),
      ArgValue::of_u64("actor_id", actor.id().value()),
      ArgValue::of_str("port", port.name().c_str()),
  };
  sim::InstrScope scope(kernel(), syms_.link_push, args, link_instance(*link, /*push=*/true));
  while (link->full()) {
    actor.set_blocked(BlockInfo{BlockInfo::Kind::kLinkFull, link});
    kernel().wait(link->space_avail());
  }
  actor.set_blocked(BlockInfo{});
  if (model_latencies_) model_transfer_cost(*link);
  std::uint64_t idx = link->push_raw(v);
  if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
    obs::JournalEvent ev;
    ev.time = kernel().now();
    ev.kind = obs::JournalKind::kTokenPush;
    ev.link = link->id().value();
    ev.actor = actor.journal_name();
    ev.token = link->last_pushed_uid();
    ev.index = idx;
    ev.firing = firing_of(actor);
    j.append(ev);
  }
  scope.set_return(ArgValue::of_u64("index", idx));
  // Coalesced wakeup: a consumer only ever blocks on the empty->non-empty
  // edge, so when nobody is waiting the notify would wake nobody — skip it
  // (scheduling-identical, and the hot path saves the call per token).
  kernel().notify_if_waiting(link->data_avail());
}

void Application::rt_link_push_boundary(Actor& actor, Port& port, Link& link, const Value& v) {
  BoundaryChannel& ob = *link.outbox();
  // Same observable surface as the direct path: identical symbol, identical
  // args — the channel's send index *is* the link's eventual push index.
  const ArgValue args[] = {
      ArgValue::of_u64("link", link.id().value()),
      ArgValue::of_u64("index", ob.sent()),
      ArgValue::of_ptr("value", const_cast<Value*>(&v)),
      ArgValue::of_str("actor", actor.path().c_str()),
      ArgValue::of_u64("actor_id", actor.id().value()),
      ArgValue::of_str("port", port.name().c_str()),
  };
  sim::InstrScope scope(kernel(), syms_.link_push, args, link_instance(link, /*push=*/true));
  while (ob.full()) {
    actor.set_blocked(BlockInfo{BlockInfo::Kind::kLinkFull, &link});
    kernel().wait(ob.space_avail());
  }
  actor.set_blocked(BlockInfo{});
  if (model_latencies_) model_transfer_cost(link);
  // The producer's shard allocates the uid (disjoint per-partition ranges)
  // and journals the push at send time in its own shard; delivery into the
  // link at the barrier adds no further journal traffic.
  const std::uint64_t uid = kernel().record_journal().alloc_token();
  const std::uint64_t idx = ob.send(Value(v), uid);
  if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
    obs::JournalEvent ev;
    ev.time = kernel().now();
    ev.kind = obs::JournalKind::kTokenPush;
    ev.link = link.id().value();
    ev.actor = actor.journal_name();
    ev.token = uid;
    ev.index = idx;
    ev.firing = firing_of(actor);
    j.append(ev);
  }
  scope.set_return(ArgValue::of_u64("index", idx));
  // No data_avail notify here: the token is not in the link yet. The
  // coordinator wakes the consumer when it drains the channel.
}

void Application::rt_link_push_n(Actor& actor, Port& port, const Value* vs, std::size_t n) {
  if (n == 0) return;
  if (n == 1) {  // the batch API degenerates to the paper-faithful shim
    rt_link_push(actor, port, vs[0]);
    return;
  }
  Link* link = port.link();
  DFDBG_CHECK_MSG(link != nullptr, actor.path() + "." + port.name() + " is not bound");
  if (link->outbox() != nullptr || data_hook_armed(*link, /*push=*/true)) {
    // Partition-crossing link, or a debugger watches this exchange: degrade
    // to token-at-a-time pushes, so the channel's journal/provenance stream
    // and the hook stream are exactly n single pushes (the batch API is a
    // fast path, never a semantic change).
    for (std::size_t i = 0; i < n; ++i) rt_link_push(actor, port, vs[i]);
    return;
  }
  for (std::size_t i = 0; i < n; ++i)
    DFDBG_CHECK_MSG(vs[i].type() == link->type(),
                    "type mismatch pushing " + vs[i].type().name() + " on " + link->name());
  std::size_t done = 0;
  while (done < n) {
    while (link->full()) {
      actor.set_blocked(BlockInfo{BlockInfo::Kind::kLinkFull, link});
      kernel().wait(link->space_avail());
    }
    actor.set_blocked(BlockInfo{});
    const std::size_t chunk = std::min(n - done, link->capacity() - link->occupancy());
    if (model_latencies_) model_transfer_cost(*link, chunk);
    const std::uint64_t idx0 = link->push_raw_n(vs + done, chunk);
    if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
      obs::JournalEvent ev;
      ev.time = kernel().now();
      ev.kind = obs::JournalKind::kTokenPush;
      ev.link = link->id().value();
      ev.actor = actor.journal_name();
      ev.firing = firing_of(actor);
      const std::uint64_t uid0 = link->last_pushed_uid() - chunk + 1;
      for (std::size_t i = 0; i < chunk; ++i) {
        ev.token = uid0 + i;
        ev.index = idx0 + i;
        j.append(ev);
      }
    }
    done += chunk;
    kernel().notify_if_waiting(link->data_avail());
  }
}

std::optional<Value> Application::rt_link_pop(Actor& actor, Port& port) {
  Link* link = port.link();
  DFDBG_CHECK_MSG(link != nullptr, actor.path() + "." + port.name() + " is not bound");
  std::optional<Value> result;
  {
    const ArgValue args[] = {
        ArgValue::of_u64("link", link->id().value()),
        ArgValue::of_u64("index", link->pop_index()),
        ArgValue::of_str("actor", actor.path().c_str()),
        ArgValue::of_u64("actor_id", actor.id().value()),
        ArgValue::of_str("port", port.name().c_str()),
    };
    sim::InstrScope scope(kernel(), syms_.link_pop, args, link_instance(*link, /*push=*/false));
    auto* as_filter =
        (actor.kind() == ActorKind::kFilter || actor.kind() == ActorKind::kHostIo)
            ? static_cast<Filter*>(&actor)
            : nullptr;
    while (link->empty()) {
      if (as_filter != nullptr && as_filter->terminate_requested()) return std::nullopt;
      actor.set_blocked(BlockInfo{BlockInfo::Kind::kLinkEmpty, link});
      kernel().wait(link->data_avail());
    }
    actor.set_blocked(BlockInfo{});
    if (model_latencies_) model_transfer_cost(*link);
    std::uint64_t idx = link->pop_index();
    result = link->pop_raw();
    if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
      obs::JournalEvent ev;
      ev.time = kernel().now();
      ev.kind = obs::JournalKind::kTokenPop;
      ev.link = link->id().value();
      ev.actor = actor.journal_name();
      ev.token = link->last_popped_uid();
      ev.index = idx;
      ev.firing = firing_of(actor);
      j.append(ev);
    }
    scope.set_return(ArgValue::of_ptr("value", &*result));
    // Producers only block on the full->non-full edge (see rt_link_push).
    kernel().notify_if_waiting(link->space_avail());
  }
  return result;
}

std::size_t Application::rt_link_pop_n(Actor& actor, Port& port, Value* out, std::size_t n) {
  if (n == 0) return 0;
  if (n == 1) {
    std::optional<Value> v = rt_link_pop(actor, port);
    if (!v.has_value()) return 0;
    out[0] = std::move(*v);
    return 1;
  }
  Link* link = port.link();
  DFDBG_CHECK_MSG(link != nullptr, actor.path() + "." + port.name() + " is not bound");
  if (data_hook_armed(*link, /*push=*/false)) {
    // A debugger watches this exchange: token-at-a-time pops (see push_n).
    std::size_t done = 0;
    while (done < n) {
      std::optional<Value> v = rt_link_pop(actor, port);
      if (!v.has_value()) break;
      out[done++] = std::move(*v);
    }
    return done;
  }
  auto* as_filter =
      (actor.kind() == ActorKind::kFilter || actor.kind() == ActorKind::kHostIo)
          ? static_cast<Filter*>(&actor)
          : nullptr;
  std::size_t done = 0;
  while (done < n) {
    while (link->empty()) {
      if (as_filter != nullptr && as_filter->terminate_requested()) return done;
      actor.set_blocked(BlockInfo{BlockInfo::Kind::kLinkEmpty, link});
      kernel().wait(link->data_avail());
    }
    actor.set_blocked(BlockInfo{});
    const std::size_t chunk = std::min(n - done, link->occupancy());
    if (model_latencies_) model_transfer_cost(*link, chunk);
    const std::uint64_t idx0 = link->pop_index();
    if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
      // With the journal recording take the token-at-a-time pops so its
      // records are identical in content and order to `chunk` single pops.
      obs::JournalEvent ev;
      ev.time = kernel().now();
      ev.kind = obs::JournalKind::kTokenPop;
      ev.link = link->id().value();
      ev.actor = actor.journal_name();
      ev.firing = firing_of(actor);
      for (std::size_t i = 0; i < chunk; ++i) {
        out[done + i] = link->pop_raw();
        ev.token = link->last_popped_uid();
        ev.index = idx0 + i;
        j.append(ev);
      }
    } else {
      link->pop_raw_n(out + done, chunk);
    }
    done += chunk;
    kernel().notify_if_waiting(link->space_avail());
  }
  return done;
}

void Application::rt_work_enter(Filter& f) {
  Module* m = f.parent();
  std::uint64_t step = m != nullptr ? m->step() : f.firings() + 1;
  f.step_state_ = StepState::kRunning;
  f.firings_++;
  const ArgValue args[] = {
      ArgValue::of_str("actor", f.path().c_str()),
      ArgValue::of_u64("actor_id", f.id().value()),
      ArgValue::of_u64("step", step),
      ArgValue::of_u64("firing", f.firings()),
  };
  kernel().instrument().fire_enter(kernel(), syms_.work_enter, args);
  if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
    obs::JournalEvent ev;
    ev.time = kernel().now();
    ev.kind = obs::JournalKind::kFireBegin;
    ev.actor = f.journal_name();
    ev.index = step;
    ev.firing = f.firings();
    j.append(ev);
  }
  if (m != nullptr && !f.free_running_) {
    m->started_count_++;
    kernel().notify(m->init_done_);
  }
}

void Application::rt_work_exit(Filter& f) {
  Module* m = f.parent();
  f.step_state_ = f.free_running_ ? StepState::kIdle : StepState::kDone;
  const ArgValue args[] = {
      ArgValue::of_str("actor", f.path().c_str()),
      ArgValue::of_u64("actor_id", f.id().value()),
      ArgValue::of_u64("step", m != nullptr ? m->step() : f.firings()),
      ArgValue::of_u64("firing", f.firings()),
  };
  kernel().instrument().fire_enter(kernel(), syms_.work_exit, args);
  if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
    obs::JournalEvent ev;
    ev.time = kernel().now();
    ev.kind = obs::JournalKind::kFireEnd;
    ev.actor = f.journal_name();
    ev.index = m != nullptr ? m->step() : f.firings();
    ev.firing = f.firings();
    j.append(ev);
  }
  if (m != nullptr && !f.free_running_) {
    m->done_count_++;
    kernel().notify(m->sync_done_);
  }
}

void Application::rt_filter_line(Filter& f, int line) {
  f.current_line_ = line;
  if (!kernel().instrument().armed(syms_.filter_line)) return;
  const ArgValue args[] = {
      ArgValue::of_str("actor", f.path().c_str()),
      ArgValue::of_u64("actor_id", f.id().value()),
      ArgValue::of_i64("line", line),
  };
  kernel().instrument().fire_enter(kernel(), syms_.filter_line, args);
}

void Application::rt_actor_start(Controller& c, Filter& f) {
  DFDBG_CHECK_MSG(f.step_state_ == StepState::kIdle,
                  "ACTOR_START on non-idle filter " + f.path());
  Module& m = *c.module();
  const ArgValue args[] = {
      ArgValue::of_str("controller", c.path().c_str()),
      ArgValue::of_str("filter", f.path().c_str()),
      ArgValue::of_u64("filter_id", f.id().value()),
      ArgValue::of_str("name", f.name().c_str()),
      ArgValue::of_u64("step", m.step()),
  };
  kernel().instrument().fire_enter(kernel(), syms_.actor_start, args);
  f.step_state_ = StepState::kScheduled;
  f.sync_requested_ = false;
  m.sched_count_++;
  kernel().notify(f.start_event_);
}

void Application::rt_actor_sync(Controller& c, Filter& f) {
  Module& m = *c.module();
  const ArgValue args[] = {
      ArgValue::of_str("controller", c.path().c_str()),
      ArgValue::of_str("filter", f.path().c_str()),
      ArgValue::of_u64("filter_id", f.id().value()),
      ArgValue::of_str("name", f.name().c_str()),
      ArgValue::of_u64("step", m.step()),
  };
  kernel().instrument().fire_enter(kernel(), syms_.actor_sync, args);
  f.sync_requested_ = true;
}

void Application::rt_wait_actor_init(Controller& c, Module& m) {
  const ArgValue args[] = {ArgValue::of_str("module", m.path().c_str()),
                           ArgValue::of_u64("module_id", m.id().value()),
                           ArgValue::of_u64("step", m.step())};
  sim::InstrScope scope(kernel(), syms_.wait_actor_init, args);
  while (m.started_count_ < m.sched_count_) {
    c.set_blocked(BlockInfo{BlockInfo::Kind::kStep, nullptr});
    kernel().wait(m.init_done_);
  }
  c.set_blocked(BlockInfo{});
}

void Application::rt_wait_actor_sync(Controller& c, Module& m) {
  const ArgValue args[] = {ArgValue::of_str("module", m.path().c_str()),
                           ArgValue::of_u64("module_id", m.id().value()),
                           ArgValue::of_u64("step", m.step())};
  sim::InstrScope scope(kernel(), syms_.wait_actor_sync, args);
  while (m.done_count_ < m.sched_count_) {
    c.set_blocked(BlockInfo{BlockInfo::Kind::kStep, nullptr});
    kernel().wait(m.sync_done_);
  }
  c.set_blocked(BlockInfo{});
  for (const auto& f : m.filters()) {
    if (f->step_state_ == StepState::kDone) f->step_state_ = StepState::kIdle;
  }
  m.sched_count_ = 0;
  m.started_count_ = 0;
  m.done_count_ = 0;
}

void Application::rt_step_begin(Controller& c, Module& m) {
  m.step_++;
  const ArgValue args[] = {
      ArgValue::of_str("module", m.path().c_str()),
      ArgValue::of_u64("module_id", m.id().value()),
      ArgValue::of_str("controller", c.path().c_str()),
      ArgValue::of_u64("step", m.step()),
  };
  kernel().instrument().fire_enter(kernel(), syms_.step_begin, args);
}

void Application::rt_step_end(Controller& c, Module& m) {
  const ArgValue args[] = {
      ArgValue::of_str("module", m.path().c_str()),
      ArgValue::of_u64("module_id", m.id().value()),
      ArgValue::of_str("controller", c.path().c_str()),
      ArgValue::of_u64("step", m.step()),
  };
  kernel().instrument().fire_enter(kernel(), syms_.step_end, args);
}

bool Application::rt_predicate_eval(Controller& c, Module& m, std::string_view name) {
  const PredicateDecl* p = m.predicate(name);
  DFDBG_CHECK_MSG(p != nullptr, m.path() + ": no predicate '" + std::string(name) + "'");
  std::string nm(name);
  const ArgValue args[] = {
      ArgValue::of_str("module", m.path().c_str()),
      ArgValue::of_u64("module_id", m.id().value()),
      ArgValue::of_str("controller", c.path().c_str()),
      ArgValue::of_str("name", nm.c_str()),
  };
  sim::InstrScope scope(kernel(), syms_.predicate_eval, args);
  bool r = p->fn(m);
  scope.set_return(ArgValue::of_i64("result", r ? 1 : 0));
  return r;
}

// ---------------------------------------------------------------------------
// Debugger-initiated alteration
// ---------------------------------------------------------------------------

std::uint64_t Application::debug_inject(Link& link, Value v) {
  DFDBG_CHECK_MSG(v.type() == link.type(),
                  "inject type mismatch on " + link.name() + ": " + v.type().name());
  DFDBG_CHECK_MSG(!link.full(), "inject on full link " + link.name());
  std::uint64_t idx = link.push_raw(std::move(v));
  if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
    obs::JournalEvent ev;
    ev.time = kernel().now();
    ev.kind = obs::JournalKind::kTokenInject;
    ev.link = link.id().value();
    ev.actor = debugger_jname_;
    ev.token = link.last_pushed_uid();
    ev.index = idx;
    j.append(ev);
  }
  const ArgValue args[] = {
      ArgValue::of_u64("link", link.id().value()),
      ArgValue::of_u64("index", idx),
      ArgValue::of_ptr("value", const_cast<Value*>(&link.peek(link.occupancy() - 1))),
  };
  kernel().instrument().fire_enter(kernel(), syms_.debug_inject, args);
  kernel().notify(link.data_avail());
  return idx;
}

Value Application::debug_remove(Link& link, std::size_t idx) {
  std::uint64_t uid = link.token_uid_at(idx);
  Value v = link.erase_at(idx);
  if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
    obs::JournalEvent ev;
    ev.time = kernel().now();
    ev.kind = obs::JournalKind::kTokenRemove;
    ev.link = link.id().value();
    ev.actor = debugger_jname_;
    ev.token = uid;
    ev.index = idx;
    j.append(ev);
  }
  const ArgValue args[] = {
      ArgValue::of_u64("link", link.id().value()),
      ArgValue::of_u64("slot", idx),
      ArgValue::of_ptr("value", &v),
  };
  kernel().instrument().fire_enter(kernel(), syms_.debug_remove, args);
  kernel().notify(link.space_avail());
  return v;
}

void Application::debug_replace(Link& link, std::size_t idx, Value v) {
  DFDBG_CHECK_MSG(v.type() == link.type(), "replace type mismatch on " + link.name());
  // poke keeps the slot's token uid: an altered token keeps its identity
  // (and thereby its provenance chain) — only its payload changes.
  link.poke(idx, std::move(v));
  if (obs::Journal& j = kernel().record_journal(); j.recording_now()) {
    obs::JournalEvent ev;
    ev.time = kernel().now();
    ev.kind = obs::JournalKind::kTokenReplace;
    ev.link = link.id().value();
    ev.actor = debugger_jname_;
    ev.token = link.token_uid_at(idx);
    ev.index = idx;
    j.append(ev);
  }
  const ArgValue args[] = {
      ArgValue::of_u64("link", link.id().value()),
      ArgValue::of_u64("slot", idx),
      ArgValue::of_ptr("value", const_cast<Value*>(&link.peek(idx))),
  };
  kernel().instrument().fire_enter(kernel(), syms_.debug_replace, args);
}

// ---------------------------------------------------------------------------
// Host I/O actors
// ---------------------------------------------------------------------------

HostSource::HostSource(std::string name, TypeDesc type, std::vector<Value> stream,
                       sim::SimTime period)
    : Filter(std::move(name), ActorKind::kHostIo), stream_(std::move(stream)), period_(period) {
  add_port("out", PortDir::kOut, type);
  set_free_running(true);
}

void HostSource::bind(FilterContext& pedf) { out_ = pedf.out("out"); }

void HostSource::work(FilterContext& pedf) {
  const std::size_t batch = pedf.fire_batch();
  while (produced_ < stream_.size() && !terminate_requested()) {
    if (period_ > 0) pedf.compute(period_);
    if (batch > 1) {
      const std::size_t n = std::min(batch, stream_.size() - produced_);
      out_.put_n(stream_.data() + produced_, n);
      produced_ += n;
    } else {
      out_.put(stream_[produced_]);
      produced_++;
    }
  }
  pedf.stop();
}

HostSink::HostSink(std::string name, TypeDesc type, std::size_t expected)
    : Filter(std::move(name), ActorKind::kHostIo), expected_(expected) {
  add_port("in", PortDir::kIn, type);
  set_free_running(true);
}

void HostSink::bind(FilterContext& pedf) { in_ = pedf.in("in"); }

void HostSink::work(FilterContext& pedf) {
  if (expected_ != SIZE_MAX) received_.reserve(expected_);
  const std::size_t batch = pedf.fire_batch();
  if (batch > 1) {
    std::vector<Value> buf(batch);
    while (received_.size() < expected_) {
      const std::size_t want =
          expected_ == SIZE_MAX ? batch : std::min(batch, expected_ - received_.size());
      const std::size_t got = in_.get_n(buf.data(), want);
      for (std::size_t i = 0; i < got; ++i) received_.push_back(std::move(buf[i]));
      if (got < want) break;  // I/O shutdown
    }
  } else {
    while (received_.size() < expected_) {
      auto v = in_.get_opt();
      if (!v.has_value()) break;
      received_.push_back(std::move(*v));
    }
  }
  pedf.stop();
}

}  // namespace dfdbg::pedf
