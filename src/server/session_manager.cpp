#include "dfdbg/server/session_manager.hpp"

#include <algorithm>

#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::server {

namespace {

/// Fleet-layer instruments, interned once (Registry access is mutex-guarded,
/// so this is safe from any shard).
struct FleetMetrics {
  obs::Gauge& count;
  obs::Counter& created;
  obs::Counter& destroyed;
  obs::Counter& evicted;
  obs::Counter& create_failed;
  static FleetMetrics& get() {
    auto& r = obs::Registry::global();
    static FleetMetrics m{r.gauge("server.session.count"),
                          r.counter("server.session.created"),
                          r.counter("server.session.destroyed"),
                          r.counter("server.session.evicted"),
                          r.counter("server.session.create_failed")};
    return m;
  }
};

}  // namespace

SessionManager::SessionManager(dbg::SessionFactory* factory, std::size_t max_sessions)
    : factory_(factory), max_sessions_(max_sessions) {}

SessionManager::~SessionManager() = default;

std::shared_ptr<HostedSession> SessionManager::register_external(
    dbg::Session& session, const std::string& name, const dbg::SessionQuota& quota) {
  std::lock_guard<std::mutex> lk(mu_);
  auto hs = std::make_shared<HostedSession>();
  hs->id = next_id_++;
  hs->name = name;
  hs->rig = "external";
  hs->shard = 0;
  hs->quota = quota;
  hs->is_default = true;
  hs->session = &session;
  hs->journal = &obs::Journal::global_base();
  const sim::Kernel& k = session.app().kernel();
  hs->backend = sim::to_string(k.backend());
  hs->workers = static_cast<int>(k.partition_count());
  sessions_.push_back(hs);
  FleetMetrics::get().count.set(static_cast<std::int64_t>(sessions_.size()));
  return hs;
}

Result<std::shared_ptr<HostedSession>> SessionManager::create(const dbg::SessionSpec& spec,
                                                              int shard,
                                                              std::uint64_t now_ms) {
  auto limit_error = [this]() {
    FleetMetrics::get().create_failed.add();
    return Status::error(ErrCode::kFailedPrecondition,
                         strformat("session limit reached (%zu)", max_sessions_));
  };
  auto name_error = [&spec]() {
    FleetMetrics::get().create_failed.add();
    return Status::error(ErrCode::kInvalidArgument,
                         "session name already in use: " + spec.name);
  };
  auto name_in_use = [this](const std::string& name) {
    for (const auto& s : sessions_)
      if (s->name == name) return true;
    return false;
  };
  // Pre-check so an over-limit/duplicate request fails before paying for a
  // rig build. Not authoritative: the lock drops across the build.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (sessions_.size() >= max_sessions_) return limit_error();
    if (!spec.name.empty() && name_in_use(spec.name)) return name_error();
  }
  if (factory_ == nullptr) {
    FleetMetrics::get().create_failed.add();
    return Status::error(ErrCode::kFailedPrecondition,
                         "this server has no session factory (session_create disabled)");
  }
  // Build outside the table lock: rig construction is the expensive part and
  // the factory serializes itself.
  auto world = factory_->build(spec);
  if (!world.ok()) {
    FleetMetrics::get().create_failed.add();
    return world.status();
  }
  // On the failure paths below, `built` unwinds on this thread — the owning
  // shard's, where the factory just created its fibers.
  std::unique_ptr<dbg::SessionWorld> built = std::move(*world);

  std::lock_guard<std::mutex> lk(mu_);
  // Re-validate: a concurrent create on another shard may have consumed the
  // last slot or claimed the name while the factory was building.
  if (sessions_.size() >= max_sessions_) return limit_error();
  if (!spec.name.empty() && name_in_use(spec.name)) return name_error();
  auto hs = std::make_shared<HostedSession>();
  hs->id = next_id_++;
  if (spec.name.empty()) {
    // Auto-name ("s<id>"): could collide with an explicitly chosen name;
    // disambiguate. Explicit duplicates were rejected above instead.
    hs->name = strformat("s%llu", static_cast<unsigned long long>(hs->id));
    if (name_in_use(hs->name))
      hs->name += strformat("-%llu", static_cast<unsigned long long>(hs->id));
  } else {
    hs->name = spec.name;
  }
  hs->rig = spec.rig;
  hs->shard = shard;
  hs->quota = spec.quota;
  hs->world = std::move(built);
  hs->session = hs->world->session.get();
  hs->journal = hs->world->journal.get();
  const sim::Kernel& k = hs->session->app().kernel();
  hs->backend = sim::to_string(k.backend());
  hs->workers = static_cast<int>(k.partition_count());
  hs->last_used_ms.store(now_ms, std::memory_order_relaxed);
  hs->sync_stats();
  sessions_.push_back(hs);
  FleetMetrics::get().created.add();
  FleetMetrics::get().count.set(static_cast<std::int64_t>(sessions_.size()));
  return hs;
}

Status SessionManager::destroy(std::uint64_t id, bool evicted) {
  std::shared_ptr<HostedSession> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = std::find_if(sessions_.begin(), sessions_.end(),
                           [&](const auto& s) { return s->id == id; });
    if (it == sessions_.end())
      return Status::error(ErrCode::kNotFound,
                           strformat("no session %llu", static_cast<unsigned long long>(id)));
    if ((*it)->is_default)
      return Status::error(ErrCode::kFailedPrecondition,
                           "the default session cannot be destroyed");
    doomed = std::move(*it);
    sessions_.erase(it);
    FleetMetrics::get().count.set(static_cast<std::int64_t>(sessions_.size()));
  }
  // World teardown outside the lock, on the owning shard's thread (the
  // caller's): fiber stacks unwind where they were created. The struct
  // itself may outlive this call — a cross-shard find() pin keeps it alive,
  // reading only identity fields and atomic mirrors — so only the world is
  // released here; the pointers into it are owning-shard-only state.
  if (doomed->session != nullptr) doomed->session->set_stop_observer(nullptr);
  doomed->interp.reset();
  doomed->session = nullptr;
  doomed->journal = nullptr;
  doomed->world.reset();
  doomed.reset();
  FleetMetrics::get().destroyed.add();
  if (evicted) FleetMetrics::get().evicted.add();
  return Status{};
}

void SessionManager::destroy_all_on_shard(int shard) {
  for (;;) {
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& s : sessions_)
        if (s->shard == shard && s->world != nullptr) {
          id = s->id;
          break;
        }
    }
    if (id == 0) return;
    destroy(id);
  }
}

std::shared_ptr<HostedSession> SessionManager::find(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sessions_)
    if (s->id == id) return s;
  return nullptr;
}

std::shared_ptr<HostedSession> SessionManager::find(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sessions_)
    if (s->name == name) return s;
  return nullptr;
}

std::vector<std::uint64_t> SessionManager::idle_candidates(int shard, std::uint64_t now_ms) {
  std::vector<std::uint64_t> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sessions_) {
    if (s->shard != shard || s->world == nullptr || s->is_default) continue;
    if (s->quota.idle_timeout_ms == 0) continue;
    if (s->stat_clients.load(std::memory_order_relaxed) > 0) continue;
    std::uint64_t last = s->last_used_ms.load(std::memory_order_relaxed);
    if (now_ms - last >= s->quota.idle_timeout_ms) out.push_back(s->id);
  }
  return out;
}

bool SessionManager::has_armed_timeout(int shard) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sessions_)
    if (s->shard == shard && s->world != nullptr && !s->is_default &&
        s->quota.idle_timeout_ms != 0)
      return true;
  return false;
}

std::vector<SessionManager::ListEntry> SessionManager::list() {
  std::vector<ListEntry> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    ListEntry e;
    e.id = s->id;
    e.name = s->name;
    e.rig = s->rig;
    e.shard = s->shard;
    e.is_default = s->is_default;
    e.quota = s->quota;
    e.requests = s->stat_requests.load(std::memory_order_relaxed);
    e.journal_events = s->stat_journal_events.load(std::memory_order_relaxed);
    e.last_token = s->stat_last_token.load(std::memory_order_relaxed);
    e.clients = s->stat_clients.load(std::memory_order_relaxed);
    e.last_used_ms = s->last_used_ms.load(std::memory_order_relaxed);
    out.push_back(std::move(e));
  }
  return out;
}

std::size_t SessionManager::count() {
  std::lock_guard<std::mutex> lk(mu_);
  return sessions_.size();
}

}  // namespace dfdbg::server
