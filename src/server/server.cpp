#include "dfdbg/server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "dfdbg/common/json.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/server/protocol.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::server {

namespace {

Status errno_status(const char* what) {
  return Status::error(ErrCode::kIo, strformat("%s: %s", what, std::strerror(errno)));
}

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Serializes one structured view as a full result frame.
template <typename V>
std::string view_frame(const std::string& id_json, const V& v) {
  JsonWriter w;
  dbg::to_json(w, v);
  return make_result_frame(id_json, w.take());
}

/// Result<View> -> result frame or mapped error frame.
template <typename V>
std::string result_frame(const std::string& id_json, const Result<V>& r) {
  if (!r.ok()) return make_error_frame(id_json, r.status());
  return view_frame(id_json, *r);
}

/// Result<BpId> -> {"breakpoint":<id>}.
std::string bp_frame(const std::string& id_json, const Result<dbg::BpId>& r) {
  if (!r.ok()) return make_error_frame(id_json, r.status());
  JsonWriter w;
  w.begin_object().kv("breakpoint", r->value()).end_object();
  return make_result_frame(id_json, w.take());
}

/// Status -> {"ok":true} or error frame.
std::string status_frame(const std::string& id_json, const Status& s) {
  if (!s.ok()) return make_error_frame(id_json, s);
  return make_result_frame(id_json, "{\"ok\":true}");
}

constexpr const char* kMethods[] = {
    "ping",           "capabilities",      "run",
    "info_links",     "info_filter",       "info_sched",
    "info_profile",   "info_last_token",   "link_tokens",
    "whence",         "breakpoints",       "catch_work",
    "catch_tokens",   "catch_all_inputs",  "break_receive",
    "break_send",     "break_occupancy",   "break_schedule",
    "delete_breakpoint", "enable_breakpoint", "step_both",
    "inject",         "remove",            "replace",
    "exec",           "journal",           "stats",
    "info_stats",     "info_shards",       "subscribe",
    "unsubscribe",    "session_create",    "session_attach",
    "session_detach", "session_destroy",   "session_list",
    "shutdown",
};

/// The subscribable stream names (the protocol's spelling).
constexpr const char* kStreamJournal = "journal";
constexpr const char* kStreamFlow = "info_flow";
constexpr const char* kStreamStats = "stats";
constexpr const char* kStreamRunEvents = "run_events";
constexpr const char* kStreamShardRounds = "shard_rounds";

/// Subscription-layer instruments, interned once (Registry interning is
/// mutex-guarded, so first use may come from any shard).
struct SubMetrics {
  obs::Counter& notifications;  ///< push frames enqueued, any stream
  obs::Counter& dropped;        ///< journal events lost to ring laps (gap total)
  obs::Counter& coalesced;      ///< periodic snapshots skipped on a full buffer
  static SubMetrics& get() {
    auto& r = obs::Registry::global();
    static SubMetrics m{r.counter("server.sub.notifications"),
                        r.counter("server.sub.dropped"),
                        r.counter("server.sub.coalesced")};
    return m;
  }
};

/// Request-path instruments, interned once (first use is the server's
/// construction) so a request takes no registry lock and hashes no
/// instrument name. `server.req.<m>` exists only for the methods in
/// kMethods: a method name is client input, so an unknown one must not mint
/// an instrument (it is counted in `server.errors` when dispatch rejects it).
struct ServerMetrics {
  obs::Counter& requests;
  obs::Histogram& request_ns;
  obs::Counter& errors;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  std::unordered_map<std::string_view, obs::Counter*> per_method;

  static ServerMetrics& get() {
    static ServerMetrics m = [] {
      auto& r = obs::Registry::global();
      ServerMetrics sm{r.counter("server.requests"), r.histogram("server.request_ns"),
                       r.counter("server.errors"),   r.counter("server.bytes_in"),
                       r.counter("server.bytes_out"), {}};
      for (const char* method : kMethods)
        sm.per_method.emplace(method, &r.counter(std::string("server.req.") + method));
      return sm;
    }();
    return m;
  }
  /// `server.req.<method>`, or nullptr for a method the server does not have.
  obs::Counter* method_counter(std::string_view method) const {
    auto it = per_method.find(method);
    return it == per_method.end() ? nullptr : it->second;
  }
};

/// Verbs that advance the simulation or mutate tokens: the ones gated by a
/// session's token budget.
bool is_mutating(const std::string& method) {
  return method == "run" || method == "step_both" || method == "inject" ||
         method == "replace" || method == "remove" || method == "exec";
}

/// {"id":..,"name":..,"rig":..,"shard":..,"backend":..,"workers":..} for a
/// session any shard may describe: every field is an immutable identity
/// snapshot, so this never touches the session's world (which only the
/// owning shard may do).
void write_session_brief(JsonWriter& w, const HostedSession& s) {
  w.begin_object()
      .kv("id", s.id)
      .kv("name", s.name)
      .kv("rig", s.rig)
      .kv("shard", static_cast<std::uint64_t>(s.shard))
      .kv("backend", s.backend)
      .kv("workers", static_cast<std::uint64_t>(s.workers))
      .end_object();
}

/// Drops one attachment from `hs`. Callable from any shard: the counter and
/// its mirror are atomic. The journal-backed mirrors are refreshed only when
/// the caller runs on the owning shard — a migrated-away client detaching
/// cross-shard must not read the session's world.
void drop_attachment(HostedSession& hs, int shard) {
  hs.attached_clients.fetch_sub(1, std::memory_order_relaxed);
  if (hs.shard == shard)
    hs.sync_stats();
  else
    hs.sync_client_stat();
}

/// Fills a SessionSpec from session_create params, quota defaults included.
dbg::SessionSpec parse_spec(const JsonValue& p, const ServerConfig& cfg) {
  dbg::SessionSpec spec;
  std::string rig = p.str_or("rig");
  if (!rig.empty()) spec.rig = rig;
  spec.name = p.str_or("name");
  spec.backend = p.str_or("backend");
  spec.workers = static_cast<int>(p.u64_or("workers", 0));
  spec.pipelines = static_cast<int>(p.u64_or("pipelines", static_cast<std::uint64_t>(spec.pipelines)));
  spec.stages = static_cast<int>(p.u64_or("stages", static_cast<std::uint64_t>(spec.stages)));
  spec.tokens = static_cast<int>(p.u64_or("tokens", static_cast<std::uint64_t>(spec.tokens)));
  spec.spin = static_cast<std::uint32_t>(p.u64_or("spin", spec.spin));
  spec.seed = static_cast<std::uint32_t>(p.u64_or("seed", spec.seed));
  spec.width = static_cast<int>(p.u64_or("width", static_cast<std::uint64_t>(spec.width)));
  spec.height = static_cast<int>(p.u64_or("height", static_cast<std::uint64_t>(spec.height)));
  spec.frames = static_cast<int>(p.u64_or("frames", static_cast<std::uint64_t>(spec.frames)));
  spec.fault = p.str_or("fault");
  spec.trigger_mb = static_cast<int>(p.u64_or("trigger_mb", static_cast<std::uint64_t>(spec.trigger_mb)));
  spec.path = p.str_or("path");
  spec.top = p.str_or("top");
  spec.steps = static_cast<int>(p.u64_or("steps", static_cast<std::uint64_t>(spec.steps)));
  spec.quota = cfg.default_quota;
  const JsonValue* q = p.find("quota");
  if (q != nullptr && q->is_object()) {
    spec.quota.journal_capacity = static_cast<std::size_t>(
        q->u64_or("journal_capacity", spec.quota.journal_capacity));
    spec.quota.max_clients =
        static_cast<int>(q->u64_or("max_clients", static_cast<std::uint64_t>(spec.quota.max_clients)));
    spec.quota.token_budget = q->u64_or("token_budget", spec.quota.token_budget);
    spec.quota.idle_timeout_ms = q->u64_or("idle_timeout_ms", spec.quota.idle_timeout_ms);
    // A quota is a request, not a command: cap the field that sizes a server
    // allocation so one remote create cannot exhaust host memory. (Too-small
    // values still fail in the factory: journal_capacity must be >= 2.)
    spec.quota.journal_capacity =
        std::min(spec.quota.journal_capacity, cfg.max_journal_capacity);
  }
  return spec;
}

}  // namespace

DebugServer::DebugServer(dbg::Session& session, ServerConfig config)
    : manager_(nullptr, config.max_sessions) {
  init(config);
  default_ = manager_.register_external(session, "default", config_.default_quota);
  install_stop_observer(*default_);
}

DebugServer::DebugServer(dbg::SessionFactory& factory, ServerConfig config)
    : manager_(&factory, config.max_sessions) {
  init(config);
}

void DebugServer::init(ServerConfig config) {
  // The server IS an observability surface: stats, journal streams and the
  // per-session mirrors are all dead with the process-wide gate off. (The
  // old single-session server got this as a side effect of eagerly
  // constructing a cli::Interpreter; interpreters are lazy now.)
  obs::set_enabled(true);
  ServerMetrics::get();  // resolves the request-path instruments up front
  config_ = config;
  if (config_.shards < 1) config_.shards = 1;
  start_time_ = std::chrono::steady_clock::now();
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int k = 0; k < config_.shards; ++k) {
    auto sh = std::make_unique<Shard>();
    sh->index = k;
    if (pipe(sh->wake_pipe) == 0) {
      set_nonblocking(sh->wake_pipe[0]);
      set_nonblocking(sh->wake_pipe[1]);
    }
    shards_.push_back(std::move(sh));
  }
}

DebugServer::~DebugServer() {
  if (default_ != nullptr && default_->session != nullptr)
    default_->session->set_stop_observer(nullptr);
  for (auto& sh : shards_) {
    for (auto& c : sh->clients)
      if (c->fd >= 0) close(c->fd);
    sh->clients.clear();
    std::lock_guard<std::mutex> lk(sh->mu);
    for (auto& c : sh->intake)
      if (c->fd >= 0) close(c->fd);
    sh->intake.clear();
  }
  // Owned sessions not already destroyed by a shard loop (in-process use:
  // everything lives on shard 0 and this runs on the creating thread).
  for (int k = 0; k < config_.shards; ++k) manager_.destroy_all_on_shard(k);
  if (listen_fd_ >= 0) close(listen_fd_);
  if (!unix_path_.empty()) unlink(unix_path_.c_str());
  for (auto& sh : shards_) {
    if (sh->wake_pipe[0] >= 0) close(sh->wake_pipe[0]);
    if (sh->wake_pipe[1] >= 0) close(sh->wake_pipe[1]);
  }
}

Result<int> DebugServer::listen_tcp(const std::string& host, int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::error(ErrCode::kInvalidArgument, "bad listen address: " + host);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = errno_status("bind");
    close(fd);
    return s;
  }
  if (listen(fd, 16) != 0) {
    Status s = errno_status("listen");
    close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  set_nonblocking(fd);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return port_;
}

Status DebugServer::listen_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path))
    return Status::error(ErrCode::kInvalidArgument, "socket path too long: " + path);
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = errno_status("bind");
    close(fd);
    return s;
  }
  if (listen(fd, 16) != 0) {
    Status s = errno_status("listen");
    close(fd);
    return s;
  }
  set_nonblocking(fd);
  listen_fd_ = fd;
  unix_path_ = path;
  return Status{};
}

void DebugServer::request_shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  char b = 1;
  for (auto& sh : shards_) {
    if (sh->wake_pipe[1] >= 0) {
      ssize_t n = write(sh->wake_pipe[1], &b, 1);
      (void)n;
    }
  }
}

std::uint64_t DebugServer::now_ms() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now() - start_time_)
                                        .count());
}

void DebugServer::accept_clients() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    if (client_count_.load(std::memory_order_relaxed) >= config_.max_clients) {
      close(fd);
      obs::Registry::global().counter("server.refused").add();
      continue;
    }
    set_nonblocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // no-op on AF_UNIX
    auto c = std::make_unique<Client>();
    c->fd = fd;
    shards_[0]->clients.push_back(std::move(c));
    client_count_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::global().counter("server.accepts").add();
    obs::Registry::global().gauge("server.clients").set(
        static_cast<std::int64_t>(client_count_.load(std::memory_order_relaxed)));
  }
}

void DebugServer::close_client(int shard, std::size_t i) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  close(sh.clients[i]->fd);
  // Drop the attachment count on whatever this client was attached to (the
  // session usually lives on this shard, but a refused post-migration attach
  // can leave a cross-shard attachment behind; drop_attachment is safe for
  // both, and the find() pin for stale ones racing a destroy).
  if (sh.clients[i]->attached != 0) {
    if (auto hs = manager_.find(sh.clients[i]->attached)) drop_attachment(*hs, shard);
  }
  sh.clients.erase(sh.clients.begin() + static_cast<std::ptrdiff_t>(i));
  client_count_.fetch_sub(1, std::memory_order_relaxed);
  obs::Registry::global().gauge("server.clients").set(
      static_cast<std::int64_t>(client_count_.load(std::memory_order_relaxed)));
}

void DebugServer::enqueue(Client& c, std::string frame) {
  // server.bytes_out is counted at the actual send (flush_output / the
  // graceful final flush), so short writes and dropped clients never
  // over- or double-count.
  c.out += frame;
  c.out += '\n';
}

void DebugServer::migrate_client(std::unique_ptr<Client> c, int target) {
  Shard& t = *shards_[static_cast<std::size_t>(target)];
  {
    std::lock_guard<std::mutex> lk(t.mu);
    t.intake.push_back(std::move(c));
  }
  char b = 1;
  if (t.wake_pipe[1] >= 0) {
    ssize_t n = write(t.wake_pipe[1], &b, 1);
    (void)n;
  }
  obs::Registry::global().counter("server.session.migrations").add();
}

void DebugServer::adopt_intake(int shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  std::vector<std::unique_ptr<Client>> fresh;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    if (sh.intake.empty()) return;
    fresh.swap(sh.intake);
  }
  for (auto& moved : fresh) {
    sh.clients.push_back(std::move(moved));
    std::size_t i = sh.clients.size() - 1;
    Client& c = *sh.clients[i];
    // Execute the carried frame (and anything else buffered) immediately:
    // the client is mid-request and is not readable again until it gets
    // this response.
    if (!process_buffered(shard, c)) {
      std::unique_ptr<Client> again = std::move(sh.clients[i]);
      sh.clients.erase(sh.clients.begin() + static_cast<std::ptrdiff_t>(i));
      int target = again->migrate_to;
      again->migrate_to = -1;
      migrate_client(std::move(again), target);
      continue;
    }
    if (!c.out.empty()) flush_output(shard, i);
  }
}

obs::Journal::LinkNamer DebugServer::link_namer(HostedSession& hs) {
  dbg::Session* session = hs.session;
  return [session](std::uint32_t link) {
    pedf::Link* l = session->app().link_by_id(pedf::LinkId(link));
    return l != nullptr ? l->name() : strformat("link#%u", link);
  };
}

void DebugServer::push_notification(Client& c, const std::string& method,
                                    std::string params_json, std::uint64_t sid) {
  // Tag the params object with the originating session so a client
  // multiplexing streams over several sessions can demux them.
  std::string tag = strformat("{\"session\":%llu", static_cast<unsigned long long>(sid));
  if (params_json.size() >= 2 && params_json.front() == '{') {
    if (params_json == "{}") {
      params_json = tag + "}";
    } else {
      params_json = tag + "," + params_json.substr(1);
    }
  }
  enqueue(c, make_notification_frame(method, params_json));
  SubMetrics::get().notifications.add();
}

void DebugServer::pump_client(Client& c, int shard, bool tick_due) {
  // A binding whose session vanished (destroyed/evicted) clears silently:
  // the stream simply ends. Sessions on other shards never bind (subscribe
  // refuses them), so every lookup below resolves to this shard or to null.
  auto bound = [&](std::uint64_t& sid) -> std::shared_ptr<HostedSession> {
    if (sid == 0) return nullptr;
    std::shared_ptr<HostedSession> hs = manager_.find(sid);
    if (hs == nullptr || hs->shard != shard) {
      sid = 0;
      return nullptr;
    }
    return hs;
  };

  // Journal deltas first: they are the stream with real history behind it,
  // and pausing them (rather than dropping) is what makes the cursor/gap
  // contract work — the ring only laps a reader that stays slow.
  if (auto hs = bound(c.sub_journal); hs != nullptr) {
    obs::Journal& j = *hs->journal;
    while (c.out.size() < config_.max_outbound_bytes && c.journal_cursor < j.cursor()) {
      JsonWriter w;
      obs::Journal::Slice s =
          j.write_delta_json(w, c.journal_cursor, config_.journal_batch, link_namer(*hs));
      c.journal_cursor = s.next;
      if (s.gap > 0) SubMetrics::get().dropped.add(s.gap);
      if (s.count == 0 && s.gap == 0) break;
      push_notification(c, "journal.delta", w.take(), hs->id);
    }
  }
  // Shard rounds pump like the journal: cursor-driven, not tick-gated — the
  // ring only grows while a `run` verb executes, so draining after each
  // request round keeps the stream current with no periodic wakeups. Round
  // ids are monotonic, so a paused reader resumes where it left off (evicted
  // records are simply skipped; the ring is a bounded window, not a log).
  if (auto hs = bound(c.sub_shard_rounds); hs != nullptr) {
    const sim::Kernel& k = hs->session->app().kernel();
    while (c.out.size() < config_.max_outbound_bytes) {
      std::vector<sim::BarrierRoundRecord> recs =
          k.round_records_after(c.shard_cursor, config_.journal_batch);
      if (recs.empty()) break;
      JsonWriter w;
      w.begin_object();
      w.kv("time", k.now());
      w.key("rounds").begin_array();
      for (const sim::BarrierRoundRecord& r : recs) dbg::to_json(w, r);
      w.end_array().end_object();
      c.shard_cursor = recs.back().round;
      push_notification(c, "shard.rounds", w.take(), hs->id);
    }
  }
  if (!tick_due) return;
  // Periodic snapshots: coalesce (skip whole ticks) while the client is
  // over its outbound bound — a snapshot is a *current state*, so skipping
  // loses nothing a later tick does not re-deliver.
  if (auto hs = bound(c.sub_flow); hs != nullptr) {
    if (c.out.size() >= config_.max_outbound_bytes) {
      SubMetrics::get().coalesced.add();
    } else {
      dbg::Session& session = *hs->session;
      JsonWriter w;
      w.begin_object();
      w.kv("time", session.app().kernel().now());
      w.key("links").begin_array();
      for (const dbg::LinkRow& l : session.links_view().links) {
        auto& prev = c.flow_prev[l.name];
        w.begin_object()
            .kv("name", l.name)
            .kv("occupancy", static_cast<std::uint64_t>(l.occupancy))
            .kv("pushes", l.pushes)
            .kv("pops", l.pops)
            .kv("d_pushes", l.pushes - prev.first)
            .kv("d_pops", l.pops - prev.second)
            .end_object();
        prev = {l.pushes, l.pops};
      }
      w.end_array();
      w.key("filters").begin_array();
      for (const dbg::ProfileRow& r : session.profile_snapshot().rows) {
        w.begin_object()
            .kv("path", r.path)
            .kv("firings", r.firings)
            .kv("cycles", r.cycles)
            .end_object();
      }
      w.end_array();
      w.end_object();
      push_notification(c, "flow.snapshot", w.take(), hs->id);
    }
  }
  if (auto hs = bound(c.sub_stats); hs != nullptr) {
    if (c.out.size() >= config_.max_outbound_bytes) {
      SubMetrics::get().coalesced.add();
    } else {
      std::size_t changed = 0;
      std::string delta = obs::Registry::global().snapshot_delta(c.stats_prev, &changed);
      // An all-empty delta carries no information; skip the frame entirely.
      if (changed > 0) push_notification(c, "stats.delta", std::move(delta), hs->id);
    }
  }
}

void DebugServer::install_stop_observer(HostedSession& hs) {
  HostedSession* p = &hs;
  hs.session->set_stop_observer(
      [this, p](const dbg::StopEvent& ev) { on_stop_event(*p, ev); });
}

void DebugServer::on_stop_event(HostedSession& hs, const dbg::StopEvent& ev) {
  // Stops fire on the owning shard's thread (inside the run/exec verb that
  // triggered them), so walking that shard's clients is race-free.
  Shard& sh = *shards_[static_cast<std::size_t>(hs.shard)];
  bool any = false;
  for (const auto& c : sh.clients)
    if (c->sub_run_events == hs.id) any = true;
  if (!any) return;
  JsonWriter w;
  dbg::to_json(w, ev);
  std::string params = w.take();
  for (auto& cp : sh.clients) {
    Client& c = *cp;
    if (c.sub_run_events != hs.id) continue;
    push_notification(c, "run.event", params, hs.id);
    // Best-effort immediate delivery: the poll loop is parked inside the
    // dispatch that triggered this stop, so without this send the event
    // would sit buffered until the response completes. Never closes the
    // client here — on a hard error the data stays queued and the poll
    // loop's next flush_output() sees the same error and owns the close.
    while (!c.out.empty()) {
      ssize_t n = send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n <= 0) break;
      ServerMetrics::get().bytes_out.add(static_cast<std::uint64_t>(n));
      c.out.erase(0, static_cast<std::size_t>(n));
    }
  }
}

bool DebugServer::process_buffered(int shard, Client& c) {
  if (!c.pending.empty()) {
    std::string frame = std::move(c.pending);
    c.pending.clear();
    std::string resp = handle_frame_for(frame, &c, shard, /*replay=*/true);
    if (c.migrate_to >= 0) {
      c.pending = std::move(frame);
      return false;
    }
    enqueue(c, resp);
  }
  std::size_t start = 0;
  for (;;) {
    std::size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(c.in.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = nl + 1;
    if (line.empty()) continue;
    if (line.size() > config_.max_frame_bytes) {
      enqueue(c, make_error_frame("null", kErrInvalidRequest, "frame too large",
                                  ErrCode::kInvalidArgument));
      c.close_after_flush = true;
      break;
    }
    std::string resp = handle_frame_for(line, &c, shard);
    if (c.migrate_to >= 0) {
      // Carry the triggering frame and the rest of the buffer to the new
      // shard; it re-executes the frame there.
      c.pending.assign(line.data(), line.size());
      c.in.erase(0, start);
      return false;
    }
    enqueue(c, resp);
    if (shutdown_.load(std::memory_order_relaxed)) break;
  }
  c.in.erase(0, start);
  if (c.in.size() > config_.max_frame_bytes) {
    // The peer is streaming an unterminated frame; cut it off.
    enqueue(c, make_error_frame("null", kErrInvalidRequest, "frame too large",
                                ErrCode::kInvalidArgument));
    c.close_after_flush = true;
    c.in.clear();
  }
  return true;
}

bool DebugServer::service_input(int shard, std::size_t i) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  Client& c = *sh.clients[i];
  char buf[65536];
  bool eof = false;
  for (;;) {
    ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      ServerMetrics::get().bytes_in.add(static_cast<std::uint64_t>(n));
      c.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // 0 = orderly disconnect, <0 = error. Complete frames already received
    // are still executed below (shutdown(SHUT_WR)-then-read clients, and
    // fire-and-forget requests whose effects must land); then we close.
    eof = true;
    break;
  }
  if (!process_buffered(shard, c)) {
    // The client migrated: hand it (including its buffers) to the target
    // shard's intake. An EOF seen here still flushes there.
    std::unique_ptr<Client> moved = std::move(sh.clients[i]);
    sh.clients.erase(sh.clients.begin() + static_cast<std::ptrdiff_t>(i));
    if (eof) moved->close_after_flush = true;
    int target = moved->migrate_to;
    moved->migrate_to = -1;
    migrate_client(std::move(moved), target);
    return false;
  }
  if (eof) {
    if (c.out.empty()) {
      close_client(shard, i);
      return false;
    }
    c.close_after_flush = true;
  }
  return true;
}

bool DebugServer::flush_output(int shard, std::size_t i) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  Client& c = *sh.clients[i];
  while (!c.out.empty()) {
    ssize_t n = send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      ServerMetrics::get().bytes_out.add(static_cast<std::uint64_t>(n));
      c.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    close_client(shard, i);
    return false;
  }
  if (c.close_after_flush) {
    close_client(shard, i);
    return false;
  }
  return true;
}

std::size_t DebugServer::evict_idle(int shard, std::uint64_t now) {
  std::vector<std::uint64_t> ids = manager_.idle_candidates(shard, now);
  if (ids.empty()) return 0;
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  std::size_t evicted = 0;
  for (std::uint64_t id : ids) {
    // An active stream binding counts as use even without an attachment.
    bool referenced = false;
    for (const auto& c : sh.clients)
      if (c->references(id)) {
        referenced = true;
        break;
      }
    if (referenced) continue;
    if (manager_.destroy(id, /*evicted=*/true).ok()) ++evicted;
  }
  return evicted;
}

std::size_t DebugServer::evict_idle_for_test(std::uint64_t now) {
  return evict_idle(0, now);
}

Status DebugServer::serve() {
  if (listen_fd_ < 0)
    return Status::error(ErrCode::kFailedPrecondition, "serve: not listening (call listen_* first)");
  shutdown_.store(false, std::memory_order_relaxed);
  auto now = std::chrono::steady_clock::now();
  for (auto& sh : shards_) sh->last_tick = now;
  for (int k = 1; k < config_.shards; ++k) {
    Shard* sh = shards_[static_cast<std::size_t>(k)].get();
    sh->thread = std::thread([this, k] { run_shard(k); });
  }
  Status s = run_shard(0);
  // run_shard only returns once shutdown_ is set (or on a poll error, in
  // which case the other shards must be told to stop too).
  request_shutdown();
  for (int k = 1; k < config_.shards; ++k) {
    Shard& sh = *shards_[static_cast<std::size_t>(k)];
    if (sh.thread.joinable()) sh.thread.join();
  }
  return s;
}

Status DebugServer::run_shard(int shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  const bool accepts = shard == 0 && listen_fd_ >= 0;
  Status status;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    adopt_intake(shard);
    std::vector<pollfd> fds;
    fds.push_back({sh.wake_pipe[0], POLLIN, 0});
    if (accepts) fds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t base = fds.size();
    bool periodic = false;
    for (const auto& c : sh.clients) {
      fds.push_back({c->fd, static_cast<short>(POLLIN | (c->out.empty() ? 0 : POLLOUT)), 0});
      if (c->wants_tick()) periodic = true;
    }
    // Periodic subscribers turn the poll into a ticking one; armed idle
    // timeouts bound it so eviction runs without traffic; otherwise the
    // loop stays fully event-driven (no idle wakeups).
    int timeout = periodic ? config_.tick_ms : -1;
    if (manager_.has_armed_timeout(shard)) timeout = timeout < 0 ? 100 : std::min(timeout, 100);
    int rc = poll(fds.data(), fds.size(), timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      status = errno_status("poll");
      shutdown_.store(true, std::memory_order_relaxed);
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (read(sh.wake_pipe[0], drain, sizeof(drain)) > 0) {
      }
    }
    // Service only the clients that were polled (fds built before adopt/
    // accept of this round's newcomers: they are polled next round). Walk
    // back to front: close_client erases by index, leaving lower indexes
    // stable.
    std::size_t polled = fds.size() - base;
    if (accepts && (fds[1].revents & POLLIN) != 0) accept_clients();
    for (std::size_t i = polled; i > 0; --i) {
      std::size_t idx = i - 1;
      short re = fds[base + idx].revents;
      if (re == 0) continue;
      if ((re & (POLLERR | POLLNVAL)) != 0) {
        close_client(shard, idx);
        continue;
      }
      if ((re & POLLIN) != 0 && !service_input(shard, idx)) continue;
      // POLLHUP without readable data: the peer is gone and writes cannot
      // succeed; anything still queued is undeliverable.
      if ((re & POLLHUP) != 0 && (re & POLLIN) == 0) {
        close_client(shard, idx);
        continue;
      }
      // A POLLOUT-only wakeup (no POLLIN this round) must still drain the
      // pending out buffer, or a paused reader would deadlock the stream.
      if ((re & POLLOUT) != 0) flush_output(shard, idx);
    }
    // Push-stream pump: now that requests ran (the journal may have grown)
    // and sockets drained (buffers may have room), produce what each
    // subscriber is owed, then flush eagerly. Reverse walk: flush_output
    // may close (erase) the client.
    auto tick_now = std::chrono::steady_clock::now();
    bool tick_due =
        periodic && tick_now - sh.last_tick >= std::chrono::milliseconds(config_.tick_ms);
    if (tick_due) sh.last_tick = tick_now;
    for (std::size_t i = sh.clients.size(); i > 0; --i) {
      Client& c = *sh.clients[i - 1];
      if (c.subscribed()) pump_client(c, shard, tick_due);
      if (!c.out.empty()) flush_output(shard, i - 1);
    }
    evict_idle(shard, now_ms());
  }
  // Graceful exit: flush what clients are owed (briefly, blocking), then
  // close, then tear down this shard's sessions on this thread (fiber
  // stacks unwind where they were created).
  for (std::size_t i = sh.clients.size(); i > 0; --i) {
    Client& c = *sh.clients[i - 1];
    if (!c.out.empty()) {
      int flags = fcntl(c.fd, F_GETFL, 0);
      if (flags >= 0) fcntl(c.fd, F_SETFL, flags & ~O_NONBLOCK);
      ssize_t n = send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0)
        ServerMetrics::get().bytes_out.add(static_cast<std::uint64_t>(n));
    }
    close_client(shard, i - 1);
  }
  manager_.destroy_all_on_shard(shard);
  return status;
}

std::string DebugServer::handle_frame(std::string_view frame) {
  return handle_frame_for(frame, nullptr, 0);
}

std::string DebugServer::handle_frame_for(std::string_view frame, Client* client, int shard,
                                          bool replay) {
  ServerMetrics& m = ServerMetrics::get();
  if (!replay) m.requests.add();
  obs::ScopedTimer timer(m.request_ns);
  auto parsed = JsonValue::parse(frame);
  if (!parsed.ok()) {
    m.errors.add();
    return make_error_frame("null", kErrParse, parsed.status().message(), ErrCode::kParseError);
  }
  if (!parsed->is_object()) {
    m.errors.add();
    return make_error_frame("null", kErrInvalidRequest, "request is not a JSON object",
                            ErrCode::kInvalidArgument);
  }
  const JsonValue* id = parsed->find("id");
  std::string id_json = id != nullptr ? id->dump() : "null";
  std::string method = parsed->str_or("method");
  if (method.empty()) {
    m.errors.add();
    return make_error_frame(id_json, kErrInvalidRequest, "missing method",
                            ErrCode::kInvalidArgument);
  }
  if (obs::Counter* per_method = m.method_counter(method); per_method != nullptr && !replay)
    per_method->add();
  static const JsonValue kNoParams;
  const JsonValue* params = parsed->find("params");
  std::string response =
      dispatch(method, params != nullptr ? *params : kNoParams, id_json, client, shard);
  // Every error frame carries this exact unescaped marker (protocol.cpp);
  // inside result payloads the quotes would be \"-escaped.
  if (response.find(",\"error\":{\"code\":") != std::string::npos) m.errors.add();
  return response;
}

Result<std::shared_ptr<HostedSession>> DebugServer::resolve(const JsonValue& p, Client* client,
                                                            int shard, bool pin_to_shard) {
  std::shared_ptr<HostedSession> hs;
  const JsonValue* sp = p.find("session");
  if (sp != nullptr) {
    hs = sp->is_string() ? manager_.find(sp->as_string()) : manager_.find(sp->as_u64());
    if (hs == nullptr)
      return Status::error(ErrCode::kNotFound, "no such session: " + sp->dump());
  } else if (client != nullptr && client->attached != 0) {
    hs = manager_.find(client->attached);
    if (hs == nullptr) {
      client->attached = 0;
      return Status::error(ErrCode::kNotFound, "attached session no longer exists");
    }
  } else {
    hs = default_;
    if (hs == nullptr)
      return Status::error(ErrCode::kFailedPrecondition,
                           "no session attached and this server has no default session "
                           "(session_create or session_attach first)");
  }
  if (pin_to_shard && hs->shard != shard)
    return Status::error(
        ErrCode::kFailedPrecondition,
        strformat("session '%s' is pinned to shard %d; session_attach to it first",
                  hs->name.c_str(), hs->shard));
  return hs;
}

std::string DebugServer::dispatch(const std::string& method, const JsonValue& p,
                                  const std::string& id_json, Client* client, int shard) {
  auto missing = [&](const char* param) {
    return make_error_frame(id_json, kErrInvalidParams,
                            strformat("missing required param: %s", param),
                            ErrCode::kInvalidArgument);
  };

  if (method == "ping") return make_result_frame(id_json, "{\"pong\":true}");

  // --- session lifecycle (the fleet surface; session-independent) ----------

  if (method == "session_list") {
    std::uint64_t now = now_ms();
    std::vector<SessionManager::ListEntry> entries = manager_.list();
    JsonWriter w;
    w.begin_object();
    w.kv("count", static_cast<std::uint64_t>(entries.size()));
    w.key("sessions").begin_array();
    for (const auto& e : entries) {
      w.begin_object()
          .kv("id", e.id)
          .kv("name", e.name)
          .kv("rig", e.rig)
          .kv("shard", static_cast<std::uint64_t>(e.shard))
          .kv("default", e.is_default)
          .kv("clients", e.clients)
          .kv("requests", e.requests)
          .kv("journal_events", e.journal_events)
          .kv("last_token", e.last_token)
          .kv("idle_ms", now > e.last_used_ms ? now - e.last_used_ms : 0);
      w.key("quota")
          .begin_object()
          .kv("journal_capacity", static_cast<std::uint64_t>(e.quota.journal_capacity))
          .kv("max_clients", static_cast<std::uint64_t>(e.quota.max_clients))
          .kv("token_budget", e.quota.token_budget)
          .kv("idle_timeout_ms", e.quota.idle_timeout_ms)
          .end_object();
      w.end_object();
    }
    w.end_array().end_object();
    return make_result_frame(id_json, w.take());
  }

  if (method == "session_create") {
    if (!config_.allow_session_create || manager_.factory() == nullptr)
      return make_error_frame(id_json,
                              Status::error(ErrCode::kFailedPrecondition,
                                            "session_create is disabled on this server"));
    int target = static_cast<int>(p.u64_or("shard", static_cast<std::uint64_t>(shard)));
    if (target < 0 || target >= config_.shards)
      return make_error_frame(
          id_json, Status::error(ErrCode::kInvalidArgument,
                                 strformat("shard %d out of range (0..%d)", target,
                                           config_.shards - 1)));
    if (target != shard) {
      if (client == nullptr)
        return make_error_frame(
            id_json, Status::error(ErrCode::kFailedPrecondition,
                                   "in-process session_create is pinned to shard 0"));
      client->migrate_to = target;  // re-executes on the owning shard
      return std::string();
    }
    dbg::SessionSpec spec = parse_spec(p, config_);
    auto created = manager_.create(spec, target, now_ms());
    if (!created.ok()) return make_error_frame(id_json, created.status());
    HostedSession& s = **created;
    install_stop_observer(s);
    bool attach = client != nullptr && p.bool_or("attach", true);
    if (attach) {
      if (client->attached != 0) {
        // The previous session may live on the shard the client migrated
        // away from; drop_attachment stays off its world in that case.
        if (auto prev = manager_.find(client->attached)) drop_attachment(*prev, shard);
      }
      client->attached = s.id;
      s.attached_clients.fetch_add(1, std::memory_order_relaxed);
      s.sync_stats();
    }
    JsonWriter w;
    w.begin_object().kv("ok", true).kv("attached", attach).key("session");
    write_session_brief(w, s);
    w.end_object();
    return make_result_frame(id_json, w.take());
  }

  if (method == "session_attach") {
    if (client == nullptr)
      return make_error_frame(id_json,
                              Status::error(ErrCode::kFailedPrecondition,
                                            "session_attach requires a socket connection"));
    auto target = resolve(p, client, shard, /*pin_to_shard=*/false);
    if (!target.ok()) return make_error_frame(id_json, target.status());
    HostedSession& s = **target;
    auto quota_refused = [&]() {
      obs::Registry::global().counter("server.session.attach_refused").add();
      return make_error_frame(
          id_json, Status::error(ErrCode::kFailedPrecondition,
                                 strformat("session '%s' is at its client quota (%d)",
                                           s.name.c_str(), s.quota.max_clients)));
    };
    bool over_quota = client->attached != s.id && s.quota.max_clients > 0 &&
                      s.attached_clients.load(std::memory_order_relaxed) >= s.quota.max_clients;
    if (s.shard != shard) {
      // Refuse before migrating (best-effort: the count is a cross-shard
      // atomic read). Migrating first and failing the quota there would
      // strand the client on a shard where its previous attachment — and
      // every implicit verb against it — is unusable.
      if (over_quota) return quota_refused();
      client->migrate_to = s.shard;  // re-executes on the owning shard
      return std::string();
    }
    if (client->attached != s.id) {
      if (over_quota) {
        // Authoritative check (owning shard). If the pre-migration check
        // passed but this one fails — the quota filled during the move —
        // the client must not be left here with its working session
        // elsewhere: send it back to that anchor shard, where the
        // re-executed frame hits the pre-migration refusal above and
        // becomes a plain error with the old attachment intact.
        int anchor = shard;
        if (client->attached != 0) {
          if (auto prev = manager_.find(client->attached)) anchor = prev->shard;
        } else if (default_ != nullptr) {
          anchor = default_->shard;
        }
        if (anchor != shard) {
          client->migrate_to = anchor;
          return std::string();
        }
        return quota_refused();
      }
      if (client->attached != 0) {
        // The previous session may live on the shard the client migrated
        // away from; drop_attachment stays off its world in that case.
        if (auto prev = manager_.find(client->attached)) drop_attachment(*prev, shard);
      }
      client->attached = s.id;
      s.attached_clients.fetch_add(1, std::memory_order_relaxed);
    }
    s.last_used_ms.store(now_ms(), std::memory_order_relaxed);
    s.sync_stats();
    JsonWriter w;
    w.begin_object().kv("ok", true).key("session");
    write_session_brief(w, s);
    w.end_object();
    return make_result_frame(id_json, w.take());
  }

  if (method == "session_detach") {
    if (client == nullptr)
      return make_error_frame(id_json,
                              Status::error(ErrCode::kFailedPrecondition,
                                            "session_detach requires a socket connection"));
    if (client->attached == 0)
      return make_error_frame(id_json, Status::error(ErrCode::kFailedPrecondition,
                                                     "not attached to a session"));
    std::uint64_t prev_id = client->attached;
    client->drop_session(prev_id);
    // A refused post-migration attach can leave the attachment pointing at
    // another shard's session; drop_attachment stays off its world then.
    if (auto prev = manager_.find(prev_id)) drop_attachment(*prev, shard);
    JsonWriter w;
    w.begin_object().kv("ok", true).kv("detached", prev_id).end_object();
    return make_result_frame(id_json, w.take());
  }

  if (method == "session_destroy") {
    auto target = resolve(p, client, shard, /*pin_to_shard=*/false);
    if (!target.ok()) return make_error_frame(id_json, target.status());
    HostedSession& s = **target;
    if (s.is_default)
      return make_error_frame(id_json,
                              Status::error(ErrCode::kFailedPrecondition,
                                            "the default session cannot be destroyed"));
    if (s.shard != shard) {
      if (client == nullptr)
        return make_error_frame(
            id_json,
            Status::error(ErrCode::kFailedPrecondition,
                          strformat("session '%s' is pinned to shard %d; in-process "
                                    "destroy only reaches shard 0",
                                    s.name.c_str(), s.shard)));
      client->migrate_to = s.shard;  // re-executes on the owning shard
      return std::string();
    }
    std::uint64_t id = s.id;
    // Detach every client of this shard that references the session (other
    // shards cannot: bindings are same-shard and cross-shard attachments
    // resolve to errors afterwards).
    for (auto& cp : shards_[static_cast<std::size_t>(shard)]->clients) {
      if (cp->attached == id) s.attached_clients.fetch_sub(1, std::memory_order_relaxed);
      cp->drop_session(id);
    }
    Status st = manager_.destroy(id);
    if (!st.ok()) return make_error_frame(id_json, st);
    JsonWriter w;
    w.begin_object().kv("ok", true).kv("destroyed", id).end_object();
    return make_result_frame(id_json, w.take());
  }

  // --- global (session-independent) verbs -----------------------------------

  if (method == "capabilities") {
    auto soft = resolve(p, client, shard, /*pin_to_shard=*/false);
    std::shared_ptr<HostedSession> s = soft.ok() ? *soft : nullptr;
    JsonWriter w;
    w.begin_object();
    w.kv("protocol", 2);
    w.kv("exec", config_.allow_exec);
    w.kv("max_frame_bytes", static_cast<std::uint64_t>(config_.max_frame_bytes));
    if (s != nullptr) {
      // Identity snapshots, not kernel reads: `s` may live on another shard.
      w.kv("backend", s->backend);
      w.kv("workers", static_cast<std::uint64_t>(s->workers));
    }
    w.kv("shards", static_cast<std::uint64_t>(config_.shards));
    w.kv("sessions", static_cast<std::uint64_t>(manager_.count()));
    w.kv("max_sessions", static_cast<std::uint64_t>(manager_.max_sessions()));
    w.kv("session_create",
         config_.allow_session_create && manager_.factory() != nullptr);
    if (s != nullptr) {
      w.key("session");
      write_session_brief(w, *s);
    }
    w.key("rigs").begin_array();
    if (manager_.factory() != nullptr)
      for (const std::string& r : manager_.factory()->rigs()) w.value(r);
    w.end_array();
    w.key("methods").begin_array();
    for (const char* m : kMethods) w.value(m);
    w.end_array();
    w.key("streams").begin_array();
    for (const char* st : {kStreamJournal, kStreamFlow, kStreamStats, kStreamRunEvents,
                           kStreamShardRounds})
      w.value(st);
    w.end_array();
    w.end_object();
    return make_result_frame(id_json, w.take());
  }

  if (method == "stats" || method == "info_stats") {
    // `format: "prom"` wraps the Prometheus exposition text as a JSON
    // string (the frame itself must stay JSON); anything else gets
    // Registry::to_json(), one compact object with histogram entries
    // carrying p50/p90/p99 estimates from the log2 buckets. The registry is
    // process-wide (hot paths intern instruments once), so this surface is
    // global, not per-session.
    if (p.str_or("format") == "prom") {
      JsonWriter w;
      w.begin_object()
          .kv("format", "prom")
          .kv("body", obs::Registry::global().to_prometheus())
          .end_object();
      return make_result_frame(id_json, w.take());
    }
    return make_result_frame(id_json, obs::Registry::global().to_json());
  }

  if (method == "shutdown") {
    request_shutdown();
    return make_result_frame(id_json, "{\"ok\":true,\"shutdown\":true}");
  }

  if (method == "unsubscribe") {
    if (client == nullptr)
      return make_error_frame(
          id_json, Status::error(ErrCode::kFailedPrecondition,
                                 "unsubscribe requires a socket connection to push to"));
    std::string stream = p.str_or("stream");
    JsonWriter w;
    w.begin_object().kv("ok", true);
    if (stream == kStreamJournal) {
      client->sub_journal = 0;
    } else if (stream == kStreamFlow) {
      client->sub_flow = 0;
    } else if (stream == kStreamStats) {
      client->sub_stats = 0;
    } else if (stream == kStreamRunEvents) {
      client->sub_run_events = 0;
    } else if (stream == kStreamShardRounds) {
      client->sub_shard_rounds = 0;
    } else if (stream.empty() || stream == "all") {
      // `unsubscribe` with no stream (or "all") clears everything.
      client->sub_journal = client->sub_flow = client->sub_stats = client->sub_run_events =
          client->sub_shard_rounds = 0;
    } else {
      return make_error_frame(
          id_json, Status::error(ErrCode::kInvalidArgument, "unknown stream: " + stream));
    }
    w.end_object();
    return make_result_frame(id_json, w.take());
  }

  // --- session-scoped verbs -------------------------------------------------

  auto resolved = resolve(p, client, shard);
  if (!resolved.ok()) return make_error_frame(id_json, resolved.status());
  HostedSession& hs = **resolved;
  hs.last_used_ms.store(now_ms(), std::memory_order_relaxed);
  hs.stat_requests.fetch_add(1, std::memory_order_relaxed);
  // Owned sessions record into their private ring for the whole verb (the
  // default/external session keeps the process-wide ring: v1 behaviour,
  // byte-identical). Refresh the cross-shard stat mirrors on every exit.
  dbg::ThreadJournalScope journal_scope(hs.world != nullptr ? hs.journal : nullptr);
  struct SyncOnExit {
    HostedSession& s;
    ~SyncOnExit() { s.sync_stats(); }
  } sync_guard{hs};
  dbg::Session& session = *hs.session;

  if (is_mutating(method) && hs.over_token_budget()) {
    obs::Registry::global().counter("server.session.budget_refused").add();
    return make_error_frame(
        id_json,
        Status::error(ErrCode::kFailedPrecondition,
                      strformat("session '%s' exhausted its token budget (%llu)",
                                hs.name.c_str(),
                                static_cast<unsigned long long>(hs.quota.token_budget))));
  }

  if (method == "subscribe") {
    if (client == nullptr)
      return make_error_frame(
          id_json, Status::error(ErrCode::kFailedPrecondition,
                                 "subscribe requires a socket connection to push to"));
    std::string stream = p.str_or("stream");
    if (stream.empty()) return missing("stream");
    JsonWriter w;
    w.begin_object().kv("ok", true);
    if (stream == kStreamJournal) {
      client->sub_journal = hs.id;
      // Default: tail from "now". An explicit cursor resumes an earlier
      // read (0 replays the whole retained window, reporting the gap).
      client->journal_cursor =
          p.find("cursor") != nullptr ? p.u64_or("cursor", 0) : hs.journal->cursor();
      w.kv("stream", stream).kv("cursor", client->journal_cursor).kv("session", hs.id);
    } else if (stream == kStreamFlow) {
      client->sub_flow = hs.id;
      client->flow_prev.clear();
      w.kv("stream", stream).kv("session", hs.id);
    } else if (stream == kStreamStats) {
      client->sub_stats = hs.id;
      // A fresh snapshot makes the first delta carry the full registry.
      client->stats_prev = obs::StatsSnapshot{};
      w.kv("stream", stream).kv("session", hs.id);
    } else if (stream == kStreamRunEvents) {
      client->sub_run_events = hs.id;
      w.kv("stream", stream).kv("session", hs.id);
    } else if (stream == kStreamShardRounds) {
      client->sub_shard_rounds = hs.id;
      // Default: tail from the current round. An explicit cursor resumes
      // an earlier read (0 replays the whole retained ring).
      client->shard_cursor = p.find("cursor") != nullptr
                                 ? p.u64_or("cursor", 0)
                                 : session.app().kernel().round_count();
      w.kv("stream", stream).kv("cursor", client->shard_cursor).kv("session", hs.id);
    } else {
      return make_error_frame(
          id_json, Status::error(ErrCode::kInvalidArgument, "unknown stream: " + stream));
    }
    w.end_object();
    return make_result_frame(id_json, w.take());
  }

  if (method == "run") {
    sim::SimTime until = p.u64_or("until", sim::kMaxSimTime);
    dbg::RunOutcome outcome = session.run(until);
    JsonWriter w;
    dbg::to_json(w, outcome);
    // Fold in async insertion notes so clients see what stepping armed.
    std::string doc = w.take();
    std::vector<std::string> notes = session.take_notes();
    if (!notes.empty()) {
      JsonWriter nw;
      nw.begin_array();
      for (const std::string& n : notes) nw.value(n);
      nw.end_array();
      doc.back() = ',';
      doc += "\"notes\":" + nw.take() + "}";
    }
    return make_result_frame(id_json, doc);
  }

  if (method == "info_links") return view_frame(id_json, session.links_view());
  if (method == "info_profile") return view_frame(id_json, session.profile_snapshot());
  if (method == "info_shards") return view_frame(id_json, session.shard_profile());
  if (method == "info_filter") {
    std::string name = p.str_or("name");
    if (name.empty()) return missing("name");
    return result_frame(id_json, session.filter_view(name));
  }
  if (method == "info_sched") {
    std::string module = p.str_or("module");
    if (module.empty()) return missing("module");
    return result_frame(id_json, session.sched_view(module));
  }
  if (method == "info_last_token") {
    std::string filter = p.str_or("filter");
    if (filter.empty()) return missing("filter");
    return result_frame(id_json, session.last_token_view(filter, p.u64_or("depth", 8)));
  }
  if (method == "link_tokens") {
    std::string iface = p.str_or("iface");
    if (iface.empty()) return missing("iface");
    return result_frame(id_json, session.link_tokens_view(iface));
  }
  if (method == "whence") {
    std::string iface = p.str_or("iface");
    if (iface.empty()) return missing("iface");
    return result_frame(id_json,
                        session.whence_chain(iface, p.u64_or("slot", 0), p.u64_or("depth", 8)));
  }

  if (method == "breakpoints") {
    JsonWriter w;
    w.begin_object().key("breakpoints").begin_array();
    for (const dbg::BreakpointInfo& bp : session.breakpoints()) dbg::to_json(w, bp);
    w.end_array().end_object();
    return make_result_frame(id_json, w.take());
  }
  if (method == "catch_work") {
    std::string filter = p.str_or("filter");
    if (filter.empty()) return missing("filter");
    return bp_frame(id_json, session.catch_work(filter));
  }
  if (method == "catch_tokens") {
    std::string filter = p.str_or("filter");
    if (filter.empty()) return missing("filter");
    const JsonValue* counts = p.find("counts");
    if (counts == nullptr || !counts->is_object() || counts->size() == 0)
      return missing("counts");
    std::vector<std::pair<std::string, std::uint64_t>> pairs;
    for (std::size_t i = 0; i < counts->size(); ++i)
      pairs.emplace_back(counts->key_at(i), counts->at(i).as_u64());
    return bp_frame(id_json, session.catch_tokens(filter, std::move(pairs)));
  }
  if (method == "catch_all_inputs") {
    std::string filter = p.str_or("filter");
    if (filter.empty()) return missing("filter");
    return bp_frame(id_json, session.catch_all_inputs(filter, p.u64_or("count", 1)));
  }
  if (method == "break_receive") {
    std::string iface = p.str_or("iface");
    if (iface.empty()) return missing("iface");
    return bp_frame(id_json, session.break_on_receive(iface));
  }
  if (method == "break_send") {
    std::string iface = p.str_or("iface");
    if (iface.empty()) return missing("iface");
    return bp_frame(id_json, session.break_on_send(iface));
  }
  if (method == "break_occupancy") {
    std::string iface = p.str_or("iface");
    if (iface.empty()) return missing("iface");
    return bp_frame(id_json,
                    session.break_on_occupancy(iface, p.u64_or("threshold", 1)));
  }
  if (method == "break_schedule") {
    std::string filter = p.str_or("filter");
    if (filter.empty()) return missing("filter");
    return bp_frame(id_json, session.break_on_schedule(filter));
  }
  if (method == "delete_breakpoint") {
    const JsonValue* bid = p.find("id");
    if (bid == nullptr) return missing("id");
    return status_frame(id_json, session.delete_breakpoint(
                                     dbg::BpId(static_cast<std::uint32_t>(bid->as_u64()))));
  }
  if (method == "enable_breakpoint") {
    const JsonValue* bid = p.find("id");
    if (bid == nullptr) return missing("id");
    return status_frame(
        id_json, session.set_breakpoint_enabled(
                     dbg::BpId(static_cast<std::uint32_t>(bid->as_u64())),
                     p.bool_or("enabled", true)));
  }
  if (method == "step_both") {
    std::string iface = p.str_or("iface");
    Status s = iface.empty() ? session.step_both() : session.step_both_iface(iface);
    return status_frame(id_json, s);
  }

  if (method == "inject" || method == "replace") {
    std::string iface = p.str_or("iface");
    if (iface.empty()) return missing("iface");
    const JsonValue* value = p.find("value");
    if (value == nullptr || !value->is_string()) return missing("value");
    const dbg::DLink* dl = session.graph().link_by_iface(iface);
    if (dl == nullptr)
      return make_error_frame(
          id_json, Status::error(ErrCode::kNotFound, "no link on interface: " + iface));
    pedf::Link* fl = session.app().link_by_id(pedf::LinkId(dl->id));
    // The same value grammar the CLI accepts: "5", "0x1f", "Field=1,Other=2".
    auto v = cli::Interpreter::parse_value(fl->type(), value->as_string());
    if (!v.ok()) return make_error_frame(id_json, v.status());
    Status s = method == "inject"
                   ? session.inject_token(iface, std::move(*v))
                   : session.replace_token(iface, p.u64_or("slot", 0), std::move(*v));
    return status_frame(id_json, s);
  }
  if (method == "remove") {
    std::string iface = p.str_or("iface");
    if (iface.empty()) return missing("iface");
    return status_frame(id_json, session.remove_token(iface, p.u64_or("slot", 0)));
  }

  if (method == "exec") {
    if (!config_.allow_exec)
      return make_error_frame(id_json,
                              Status::error(ErrCode::kFailedPrecondition,
                                            "exec is disabled on this server"));
    const JsonValue* line = p.find("line");
    if (line == nullptr || !line->is_string()) return missing("line");
    // One interpreter per session, created on first use on the owning shard.
    if (hs.interp == nullptr) hs.interp = std::make_unique<cli::Interpreter>(session);
    Status s = hs.interp->execute(line->as_string());
    std::string output = hs.interp->console().take();
    JsonWriter w;
    w.begin_object();
    w.kv("ok", s.ok());
    w.kv("output", output);
    if (!s.ok()) {
      w.kv("error", s.message());
      w.kv("err", to_string(s.code()));
    }
    w.end_object();
    return make_result_frame(id_json, w.take());
  }

  if (method == "journal") {
    JsonWriter w;
    hs.journal->write_json(w, link_namer(hs));
    return make_result_frame(id_json, w.take());
  }

  return make_error_frame(id_json, kErrMethodNotFound, "unknown method: " + method,
                          ErrCode::kUnimplemented);
}

}  // namespace dfdbg::server
