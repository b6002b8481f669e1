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
#include <cstdint>
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

/// A structured view as a result document.
template <typename V>
std::string view_doc(const V& v) {
  JsonWriter w;
  dbg::to_json(w, v);
  return w.take();
}

/// Result<View> -> its document, or its error.
template <typename V>
Result<std::string> result_doc(const Result<V>& r) {
  return r.ok() ? Result<std::string>(view_doc(*r)) : r.status();
}

/// Result<BpId> -> {"breakpoint":<id>}.
Result<std::string> bp_doc(const Result<dbg::BpId>& r) {
  if (!r.ok()) return r.status();
  JsonWriter w;
  w.begin_object().kv("breakpoint", r->value()).end_object();
  return w.take();
}

/// Status -> {"ok":true}, or its error.
Result<std::string> ok_doc(const Status& s) {
  return s.ok() ? Result<std::string>(std::string("{\"ok\":true}")) : s;
}

/// A request the server or session state refuses (-32002).
Status refused(std::string message) {
  return Status::error(ErrCode::kFailedPrecondition, std::move(message));
}

/// Where a method runs.
enum Scope : std::uint8_t {
  kFleet,    ///< session lifecycle: finds, creates or migrates to sessions itself
  kGlobal,   ///< needs no session
  kSession,  ///< runs against the resolved target session, on its shard
};

/// The JSON type a declared param must have.
enum Type : std::uint8_t {
  kString,      ///< non-empty when required
  kUnsigned,    ///< an integer literal without a minus sign
  kBool,
  kObject,
  kSessionRef,  ///< a session id (unsigned) or name (string)
};

struct Param {
  std::string_view name;
  Type type;
  bool required = false;
};

/// Accepted by every session-scoped method: picks the target session.
constexpr Param kSessionParam{"session", kSessionRef};
constexpr Param kTargetParams[] = {kSessionParam};

constexpr Param kRunParams[] = {{"until", kUnsigned}};
constexpr Param kNameParams[] = {{"name", kString, true}};
constexpr Param kModuleParams[] = {{"module", kString, true}};
constexpr Param kFilterParams[] = {{"filter", kString, true}};
constexpr Param kLastTokenParams[] = {{"filter", kString, true}, {"depth", kUnsigned}};
constexpr Param kIfaceParams[] = {{"iface", kString, true}};
constexpr Param kWhenceParams[] = {
    {"iface", kString, true}, {"slot", kUnsigned}, {"depth", kUnsigned}};
constexpr Param kCatchTokensParams[] = {{"filter", kString, true}, {"counts", kObject, true}};
constexpr Param kCatchAllParams[] = {{"filter", kString, true}, {"count", kUnsigned}};
constexpr Param kOccupancyParams[] = {{"iface", kString, true}, {"threshold", kUnsigned}};
constexpr Param kBpParams[] = {{"id", kUnsigned, true}};
constexpr Param kEnableParams[] = {{"id", kUnsigned, true}, {"enabled", kBool}};
constexpr Param kStepBothParams[] = {{"iface", kString}};
constexpr Param kInjectParams[] = {{"iface", kString, true}, {"value", kString, true}};
constexpr Param kRemoveParams[] = {{"iface", kString, true}, {"slot", kUnsigned}};
constexpr Param kReplaceParams[] = {
    {"iface", kString, true}, {"slot", kUnsigned}, {"value", kString, true}};
constexpr Param kExecParams[] = {{"line", kString, true}};
constexpr Param kStatsParams[] = {{"format", kString}};
constexpr Param kSubscribeParams[] = {{"stream", kString, true}, {"cursor", kUnsigned}};
constexpr Param kUnsubscribeParams[] = {{"stream", kString}};
constexpr Param kCreateParams[] = {
    {"rig", kString},       {"name", kString},     {"backend", kString},   {"workers", kUnsigned},
    {"pipelines", kUnsigned}, {"stages", kUnsigned}, {"tokens", kUnsigned}, {"spin", kUnsigned},
    {"seed", kUnsigned},    {"width", kUnsigned},  {"height", kUnsigned},  {"frames", kUnsigned},
    {"fault", kString},     {"trigger_mb", kUnsigned}, {"path", kString},  {"top", kString},
    {"steps", kUnsigned},   {"shard", kUnsigned},  {"attach", kBool},      {"quota", kObject}};
constexpr Param kQuotaParams[] = {{"journal_capacity", kUnsigned}, {"max_clients", kUnsigned},
                                  {"token_budget", kUnsigned}, {"idle_timeout_ms", kUnsigned}};

bool has_type(const JsonValue& v, Type t) {
  switch (t) {
    case kString: return v.is_string();
    case kUnsigned: return v.is_unsigned();
    case kBool: return v.is_bool();
    case kObject: return v.is_object();
    case kSessionRef: return v.is_string() || v.is_unsigned();
  }
  return false;
}

constexpr const char* kTypeNames[] = {"a string", "an unsigned integer", "a bool", "an object",
                                      "a session id or name"};

/// Checks `params` against `decl` in place: a present param must have its
/// declared type, a required one must be present (an empty string counts as
/// absent). Undeclared members are ignored.
Status check_params(const JsonValue& params, std::span<const Param> decl) {
  for (const Param& d : decl) {
    const JsonValue* v = params.find(d.name);
    if (v == nullptr || (d.type == kString && v->is_string() && v->as_string().empty())) {
      if (!d.required) continue;
      return Status::error(ErrCode::kInvalidArgument,
                           "missing required param: " + std::string(d.name));
    }
    if (!has_type(*v, d.type))
      return Status::error(ErrCode::kInvalidArgument, "param " + std::string(d.name) +
                                                          " must be " + kTypeNames[d.type]);
  }
  return Status{};
}

/// The `id` param as a breakpoint id. Ids are 32-bit: a larger one is
/// ill-typed, not a truncated id.
Result<dbg::BpId> bp_param(const JsonValue& params) {
  const std::uint64_t id = params.u64_or("id");
  if (id > UINT32_MAX)
    return Status::error(ErrCode::kInvalidArgument, "param id must be a 32-bit breakpoint id");
  return dbg::BpId(static_cast<std::uint32_t>(id));
}

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

/// Fills a SessionSpec from checked session_create params, quota defaults
/// included.
dbg::SessionSpec parse_spec(const JsonValue& p, const ServerConfig& cfg) {
  dbg::SessionSpec spec;
  auto text = [&p](const char* key, std::string& field) {
    if (const JsonValue* v = p.find(key); v != nullptr && !v->as_string().empty())
      field = v->as_string();
  };
  auto num = [](const JsonValue& obj, const char* key, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    field = static_cast<T>(obj.u64_or(key, static_cast<std::uint64_t>(field)));
  };
  text("rig", spec.rig);
  text("name", spec.name);
  text("backend", spec.backend);
  text("fault", spec.fault);
  text("path", spec.path);
  text("top", spec.top);
  num(p, "workers", spec.workers);
  num(p, "pipelines", spec.pipelines);
  num(p, "stages", spec.stages);
  num(p, "tokens", spec.tokens);
  num(p, "spin", spec.spin);
  num(p, "seed", spec.seed);
  num(p, "width", spec.width);
  num(p, "height", spec.height);
  num(p, "frames", spec.frames);
  num(p, "trigger_mb", spec.trigger_mb);
  num(p, "steps", spec.steps);
  spec.quota = cfg.default_quota;
  if (const JsonValue* q = p.find("quota"); q != nullptr) {
    num(*q, "journal_capacity", spec.quota.journal_capacity);
    num(*q, "max_clients", spec.quota.max_clients);
    num(*q, "token_budget", spec.quota.token_budget);
    num(*q, "idle_timeout_ms", spec.quota.idle_timeout_ms);
    // A quota is a request, not a command: cap the field that sizes a server
    // allocation so one remote create cannot exhaust host memory. (Too-small
    // values still fail in the factory: journal_capacity must be >= 2.)
    spec.quota.journal_capacity =
        std::min(spec.quota.journal_capacity, cfg.max_journal_capacity);
  }
  return spec;
}

}  // namespace

struct DebugServer::Call {
  DebugServer& srv;
  const JsonValue& params;  ///< checked against the method's declarations
  Client* client;           ///< nullptr for the in-process entry point
  int shard;
  HostedSession* target;    ///< the resolved session (session scope only)

  [[nodiscard]] dbg::Session& session() const { return *target->session; }
  /// A checked string param ("" when absent).
  [[nodiscard]] const std::string& str(std::string_view key) const {
    static const std::string kAbsent;
    const JsonValue* v = params.find(key);
    return v != nullptr ? v->as_string() : kAbsent;
  }
  [[nodiscard]] std::uint64_t u64(std::string_view key, std::uint64_t dflt) const {
    return params.u64_or(key, dflt);
  }
};

struct DebugServer::Method {
  std::string_view name;
  Scope scope;
  bool budgeted;  ///< refused once the target session's token budget is spent
  std::span<const Param> params;
  /// The result document, or the error for the response. An empty document
  /// with `client->migrate_to` set re-executes the call on that shard.
  Result<std::string> (*handler)(const Call&);
};

/// Request-path instruments, interned once (first use is the server's
/// construction) so a request takes no registry lock and hashes no
/// instrument name. A method name is client input: an unknown one mints no
/// instrument (it is counted in `server.errors`).
struct DebugServer::ServerMetrics {
  obs::Counter& requests;
  obs::Histogram& request_ns;
  obs::Counter& errors;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  /// `server.req.<m>` of each method-table entry, in table order.
  std::vector<obs::Counter*> method_requests;

  static ServerMetrics& get() {
    static ServerMetrics m = [] {
      auto& r = obs::Registry::global();
      ServerMetrics sm{r.counter("server.requests"), r.histogram("server.request_ns"),
                       r.counter("server.errors"),   r.counter("server.bytes_in"),
                       r.counter("server.bytes_out"), {}};
      for (const Method& method : DebugServer::methods())
        sm.method_requests.push_back(&r.counter("server.req." + std::string(method.name)));
      return sm;
    }();
    return m;
  }
};

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
  if (auto hs = bound(c.sub[kJournal]); hs != nullptr) {
    obs::Journal& j = *hs->journal;
    const obs::Journal::LinkNamer namer = hs->session->app().link_namer();
    while (c.out.size() < config_.max_outbound_bytes && c.journal_cursor < j.cursor()) {
      JsonWriter w;
      obs::Journal::Slice s = j.write_delta_json(w, c.journal_cursor, config_.journal_batch, namer);
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
  if (auto hs = bound(c.sub[kShardRounds]); hs != nullptr) {
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
  if (auto hs = bound(c.sub[kFlow]); hs != nullptr) {
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
  if (auto hs = bound(c.sub[kStats]); hs != nullptr) {
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
    if (c->sub[kRunEvents] == hs.id) any = true;
  if (!any) return;
  JsonWriter w;
  dbg::to_json(w, ev);
  std::string params = w.take();
  for (auto& cp : sh.clients) {
    Client& c = *cp;
    if (c.sub[kRunEvents] != hs.id) continue;
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
    return refused("serve: not listening (call listen_* first)");
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
  const JsonValue* method = parsed->find("method");
  if (method == nullptr || !method->is_string() || method->as_string().empty()) {
    m.errors.add();
    return make_error_frame(id_json, kErrInvalidRequest, "missing method",
                            ErrCode::kInvalidArgument);
  }
  Result<std::string> result = dispatch(method->as_string(), parsed->find("params"), client,
                                        shard, replay);
  if (client != nullptr && client->migrate_to >= 0) return std::string();
  if (!result.ok()) {
    m.errors.add();
    return make_error_frame(id_json, result.status());
  }
  return make_result_frame(id_json, *result);
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
      return refused("no session attached and this server has no default session "
                     "(session_create or session_attach first)");
  }
  if (pin_to_shard && hs->shard != shard)
    return refused(strformat("session '%s' is pinned to shard %d; session_attach to it first",
                             hs->name.c_str(), hs->shard));
  return hs;
}

Result<std::string> DebugServer::dispatch(std::string_view name, const JsonValue* params,
                                          Client* client, int shard, bool replay) {
  // The method first: an unknown one is rejected before it can touch (or
  // keep alive) any session.
  const std::span<const Method> table = methods();
  const auto entry =
      std::find_if(table.begin(), table.end(), [&](const Method& m) { return m.name == name; });
  if (entry == table.end())
    return Status::error(ErrCode::kUnimplemented, "unknown method: " + std::string(name));
  const Method& method = *entry;
  if (!replay) ServerMetrics::get().method_requests[entry - table.begin()]->add();
  static const JsonValue kNoParams;
  if (params != nullptr && !params->is_object())
    return Status::error(ErrCode::kInvalidArgument, "params must be an object");
  const JsonValue& p = params != nullptr ? *params : kNoParams;
  if (Status st = check_params(p, method.params); !st.ok()) return st;
  if (method.scope != Scope::kSession)
    return method.handler(Call{*this, p, client, shard, nullptr});

  if (Status st = check_params(p, kTargetParams); !st.ok()) return st;
  auto resolved = resolve(p, client, shard);
  if (!resolved.ok()) return resolved.status();
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
  if (method.budgeted && hs.over_token_budget()) {
    obs::Registry::global().counter("server.session.budget_refused").add();
    return refused(strformat("session '%s' exhausted its token budget (%llu)", hs.name.c_str(),
                             static_cast<unsigned long long>(hs.quota.token_budget)));
  }
  return method.handler(Call{*this, p, client, shard, &hs});
}

std::span<const DebugServer::Method> DebugServer::methods() {
  using Doc = Result<std::string>;
  static constexpr auto find_stream = [](std::string_view name) {
    for (int s = 0; s < kStreamCount; ++s)
      if (kStreams[s].name == name) return s;
    return -1;
  };
  // The registry is process-wide (hot paths intern instruments once), so
  // this surface is global, not per-session. `format: "prom"` wraps the
  // Prometheus exposition text as a JSON string (the frame itself must stay
  // JSON); anything else gets Registry::to_json(), one compact object with
  // histogram entries carrying p50/p90/p99 estimates from the log2 buckets.
  static constexpr auto stats = [](const Call& c) -> Doc {
    if (c.str("format") != "prom") return obs::Registry::global().to_json();
    JsonWriter w;
    w.begin_object().kv("format", "prom").kv("body", obs::Registry::global().to_prometheus());
    return w.end_object().take();
  };
  // Moves the calling client's attachment to `s`.
  static constexpr auto attach_to = [](const Call& c, HostedSession& s) {
    // The previous session may live on the shard the client migrated away
    // from; drop_attachment stays off its world in that case.
    if (auto prev = c.srv.manager_.find(c.client->attached)) drop_attachment(*prev, c.shard);
    c.client->attached = s.id;
    s.attached_clients.fetch_add(1, std::memory_order_relaxed);
  };
  // `inject`/`replace` values: the CLI's grammar ("5", "0x1f", "F=1,G=2").
  static constexpr auto token_value = [](const Call& c) -> Result<pedf::Value> {
    auto type = c.session().link_type(c.str("iface"));
    if (!type.ok()) return type.status();
    return dbg::Session::parse_value(**type, c.str("value"));
  };

  static const Method kTable[] = {
      {"ping", kGlobal, false, {},
       [](const Call&) -> Doc { return std::string("{\"pong\":true}"); }},
      {"capabilities", kGlobal, false, kTargetParams,
       [](const Call& c) -> Doc {
         DebugServer& srv = c.srv;
         auto soft = srv.resolve(c.params, c.client, c.shard, /*pin_to_shard=*/false);
         std::shared_ptr<HostedSession> s = soft.ok() ? *soft : nullptr;
         JsonWriter w;
         w.begin_object();
         w.kv("protocol", 2);
         w.kv("exec", srv.config_.allow_exec);
         w.kv("max_frame_bytes", static_cast<std::uint64_t>(srv.config_.max_frame_bytes));
         if (s != nullptr) {
           // Identity snapshots, not kernel reads: `s` may live on another shard.
           w.kv("backend", s->backend);
           w.kv("workers", static_cast<std::uint64_t>(s->workers));
         }
         w.kv("shards", static_cast<std::uint64_t>(srv.config_.shards));
         w.kv("sessions", static_cast<std::uint64_t>(srv.manager_.count()));
         w.kv("max_sessions", static_cast<std::uint64_t>(srv.manager_.max_sessions()));
         w.kv("session_create",
              srv.config_.allow_session_create && srv.manager_.factory() != nullptr);
         if (s != nullptr) {
           w.key("session");
           write_session_brief(w, *s);
         }
         w.key("rigs").begin_array();
         if (srv.manager_.factory() != nullptr)
           for (const std::string& r : srv.manager_.factory()->rigs()) w.value(r);
         w.end_array();
         w.key("methods").begin_array();
         for (const Method& m : methods()) w.value(m.name);
         w.end_array();
         w.key("streams").begin_array();
         for (const StreamSpec& st : kStreams) w.value(st.name);
         w.end_array();
         return w.end_object().take();
       }},
      {"run", kSession, true, kRunParams,
       [](const Call& c) -> Doc {
         JsonWriter w;
         dbg::to_json(w, c.session().run(c.u64("until", sim::kMaxSimTime)));
         // Fold in async insertion notes so clients see what stepping armed.
         std::string doc = w.take();
         std::vector<std::string> notes = c.session().take_notes();
         if (!notes.empty()) {
           JsonWriter nw;
           nw.begin_array();
           for (const std::string& n : notes) nw.value(n);
           nw.end_array();
           doc.back() = ',';
           doc += "\"notes\":" + nw.take() + "}";
         }
         return doc;
       }},
      {"info_links", kSession, false, {},
       [](const Call& c) -> Doc { return view_doc(c.session().links_view()); }},
      {"info_filter", kSession, false, kNameParams,
       [](const Call& c) -> Doc { return result_doc(c.session().filter_view(c.str("name"))); }},
      {"info_sched", kSession, false, kModuleParams,
       [](const Call& c) -> Doc { return result_doc(c.session().sched_view(c.str("module"))); }},
      {"info_profile", kSession, false, {},
       [](const Call& c) -> Doc { return view_doc(c.session().profile_snapshot()); }},
      {"info_last_token", kSession, false, kLastTokenParams,
       [](const Call& c) -> Doc {
         return result_doc(c.session().last_token_view(c.str("filter"), c.u64("depth", 8)));
       }},
      {"link_tokens", kSession, false, kIfaceParams,
       [](const Call& c) -> Doc { return result_doc(c.session().link_tokens_view(c.str("iface"))); }},
      {"whence", kSession, false, kWhenceParams,
       [](const Call& c) -> Doc {
         return result_doc(
             c.session().whence_chain(c.str("iface"), c.u64("slot", 0), c.u64("depth", 8)));
       }},
      {"breakpoints", kSession, false, {},
       [](const Call& c) -> Doc {
         JsonWriter w;
         w.begin_object().key("breakpoints").begin_array();
         for (const dbg::BreakpointInfo& bp : c.session().breakpoints()) dbg::to_json(w, bp);
         return w.end_array().end_object().take();
       }},
      {"catch_work", kSession, false, kFilterParams,
       [](const Call& c) -> Doc { return bp_doc(c.session().catch_work(c.str("filter"))); }},
      {"catch_tokens", kSession, false, kCatchTokensParams,
       [](const Call& c) -> Doc {
         const JsonValue& counts = *c.params.find("counts");
         if (counts.size() == 0)
           return Status::error(ErrCode::kInvalidArgument, "missing required param: counts");
         std::vector<std::pair<std::string, std::uint64_t>> pairs;
         for (std::size_t i = 0; i < counts.size(); ++i) {
           if (!counts.at(i).is_unsigned())
             return Status::error(ErrCode::kInvalidArgument,
                                  "param counts must map interfaces to unsigned integers");
           pairs.emplace_back(counts.key_at(i), counts.at(i).as_u64());
         }
         return bp_doc(c.session().catch_tokens(c.str("filter"), std::move(pairs)));
       }},
      {"catch_all_inputs", kSession, false, kCatchAllParams,
       [](const Call& c) -> Doc {
         return bp_doc(c.session().catch_all_inputs(c.str("filter"), c.u64("count", 1)));
       }},
      {"break_receive", kSession, false, kIfaceParams,
       [](const Call& c) -> Doc { return bp_doc(c.session().break_on_receive(c.str("iface"))); }},
      {"break_send", kSession, false, kIfaceParams,
       [](const Call& c) -> Doc { return bp_doc(c.session().break_on_send(c.str("iface"))); }},
      {"break_occupancy", kSession, false, kOccupancyParams,
       [](const Call& c) -> Doc {
         return bp_doc(c.session().break_on_occupancy(c.str("iface"), c.u64("threshold", 1)));
       }},
      {"break_schedule", kSession, false, kFilterParams,
       [](const Call& c) -> Doc { return bp_doc(c.session().break_on_schedule(c.str("filter"))); }},
      {"delete_breakpoint", kSession, false, kBpParams,
       [](const Call& c) -> Doc {
         auto id = bp_param(c.params);
         return id.ok() ? ok_doc(c.session().delete_breakpoint(*id)) : id.status();
       }},
      {"enable_breakpoint", kSession, false, kEnableParams,
       [](const Call& c) -> Doc {
         auto id = bp_param(c.params);
         if (!id.ok()) return id.status();
         return ok_doc(c.session().set_breakpoint_enabled(*id, c.params.bool_or("enabled", true)));
       }},
      {"step_both", kSession, true, kStepBothParams,
       [](const Call& c) -> Doc {
         const std::string& iface = c.str("iface");
         return ok_doc(iface.empty() ? c.session().step_both() : c.session().step_both_iface(iface));
       }},
      {"inject", kSession, true, kInjectParams,
       [](const Call& c) -> Doc {
         auto v = token_value(c);
         return v.ok() ? ok_doc(c.session().inject_token(c.str("iface"), std::move(*v))) : v.status();
       }},
      {"remove", kSession, true, kRemoveParams,
       [](const Call& c) -> Doc {
         return ok_doc(c.session().remove_token(c.str("iface"), c.u64("slot", 0)));
       }},
      {"replace", kSession, true, kReplaceParams,
       [](const Call& c) -> Doc {
         auto v = token_value(c);
         if (!v.ok()) return v.status();
         return ok_doc(c.session().replace_token(c.str("iface"), c.u64("slot", 0), std::move(*v)));
       }},
      {"exec", kSession, true, kExecParams,
       [](const Call& c) -> Doc {
         if (!c.srv.config_.allow_exec)
           return refused("exec is disabled on this server");
         // One interpreter per session, created on first use on the owning shard.
         HostedSession& hs = *c.target;
         if (hs.interp == nullptr) hs.interp = std::make_unique<cli::Interpreter>(*hs.session);
         Status s = hs.interp->execute(c.str("line"));
         JsonWriter w;
         w.begin_object().kv("ok", s.ok()).kv("output", hs.interp->console().take());
         if (!s.ok()) w.kv("error", s.message()).kv("err", to_string(s.code()));
         return w.end_object().take();
       }},
      {"journal", kSession, false, {},
       [](const Call& c) -> Doc {
         JsonWriter w;
         c.target->journal->write_json(w, c.session().app().link_namer());
         return w.take();
       }},
      {"stats", kGlobal, false, kStatsParams, stats},
      {"info_stats", kGlobal, false, kStatsParams, stats},
      {"info_shards", kSession, false, {},
       [](const Call& c) -> Doc { return view_doc(c.session().shard_profile()); }},
      {"subscribe", kSession, false, kSubscribeParams,
       [](const Call& c) -> Doc {
         if (c.client == nullptr)
           return refused("subscribe requires a socket connection to push to");
         const int stream = find_stream(c.str("stream"));
         if (stream < 0)
           return Status::error(ErrCode::kInvalidArgument, "unknown stream: " + c.str("stream"));
         Client& client = *c.client;
         HostedSession& hs = *c.target;
         client.sub[stream] = hs.id;
         JsonWriter w;
         w.begin_object().kv("ok", true).kv("stream", kStreams[stream].name);
         // The cursor streams tail from "now" by default; an explicit cursor
         // resumes an earlier read (0 replays the whole retained window).
         const JsonValue* cursor = c.params.find("cursor");
         if (stream == kJournal) {
           client.journal_cursor = cursor != nullptr ? cursor->as_u64() : hs.journal->cursor();
           w.kv("cursor", client.journal_cursor);
         } else if (stream == kShardRounds) {
           client.shard_cursor =
               cursor != nullptr ? cursor->as_u64() : c.session().app().kernel().round_count();
           w.kv("cursor", client.shard_cursor);
         } else if (stream == kFlow) {
           client.flow_prev.clear();
         } else if (stream == kStats) {
           // A fresh snapshot makes the first delta carry the full registry.
           client.stats_prev = obs::StatsSnapshot{};
         }
         return w.kv("session", hs.id).end_object().take();
       }},
      {"unsubscribe", kGlobal, false, kUnsubscribeParams,
       [](const Call& c) -> Doc {
         if (c.client == nullptr)
           return refused("unsubscribe requires a socket connection to push to");
         const std::string& name = c.str("stream");
         if (name.empty() || name == "all") {
           c.client->sub.fill(0);  // no stream (or "all") clears every binding
         } else if (const int stream = find_stream(name); stream >= 0) {
           c.client->sub[stream] = 0;
         } else {
           return Status::error(ErrCode::kInvalidArgument, "unknown stream: " + name);
         }
         return std::string("{\"ok\":true}");
       }},
      {"session_create", kFleet, false, kCreateParams,
       [](const Call& c) -> Doc {
         DebugServer& srv = c.srv;
         if (!srv.config_.allow_session_create || srv.manager_.factory() == nullptr)
           return refused("session_create is disabled on this server");
         if (const JsonValue* q = c.params.find("quota"); q != nullptr)
           if (Status st = check_params(*q, kQuotaParams); !st.ok()) return st;
         // Range checks on the u64 as sent, before any narrowing to int, and
         // before any rig builds: a kernel interns registry instruments and
         // starts a thread per worker.
         if (c.u64("workers", 0) > static_cast<std::uint64_t>(sim::kMaxParallelWorkers))
           return Status::error(ErrCode::kInvalidArgument,
                                strformat("param workers must be 0..%d (0 = default)",
                                          sim::kMaxParallelWorkers));
         const std::uint64_t shard = c.u64("shard", static_cast<std::uint64_t>(c.shard));
         if (shard >= static_cast<std::uint64_t>(srv.config_.shards))
           return Status::error(ErrCode::kInvalidArgument,
                                strformat("shard %llu out of range (0..%d)",
                                          static_cast<unsigned long long>(shard),
                                          srv.config_.shards - 1));
         const int target = static_cast<int>(shard);
         if (target != c.shard) {
           if (c.client == nullptr)
             return refused("in-process session_create is pinned to shard 0");
           c.client->migrate_to = target;  // re-executes on the owning shard
           return std::string();
         }
         auto created = srv.manager_.create(parse_spec(c.params, srv.config_), target, srv.now_ms());
         if (!created.ok()) return created.status();
         HostedSession& s = **created;
         srv.install_stop_observer(s);
         const bool attach = c.client != nullptr && c.params.bool_or("attach", true);
         if (attach) {
           attach_to(c, s);
           s.sync_stats();
         }
         JsonWriter w;
         w.begin_object().kv("ok", true).kv("attached", attach).key("session");
         write_session_brief(w, s);
         return w.end_object().take();
       }},
      {"session_attach", kFleet, false, kTargetParams,
       [](const Call& c) -> Doc {
         DebugServer& srv = c.srv;
         Client* client = c.client;
         if (client == nullptr)
           return refused("session_attach requires a socket connection");
         auto target = srv.resolve(c.params, client, c.shard, /*pin_to_shard=*/false);
         if (!target.ok()) return target.status();
         HostedSession& s = **target;
         auto quota_refused = [&]() {
           obs::Registry::global().counter("server.session.attach_refused").add();
           return refused(strformat("session '%s' is at its client quota (%d)", s.name.c_str(),
                                    s.quota.max_clients));
         };
         const bool over_quota =
             client->attached != s.id && s.quota.max_clients > 0 &&
             s.attached_clients.load(std::memory_order_relaxed) >= s.quota.max_clients;
         if (s.shard != c.shard) {
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
             int anchor = c.shard;
             if (client->attached != 0) {
               if (auto prev = srv.manager_.find(client->attached)) anchor = prev->shard;
             } else if (srv.default_ != nullptr) {
               anchor = srv.default_->shard;
             }
             if (anchor == c.shard) return quota_refused();
             client->migrate_to = anchor;
             return std::string();
           }
           attach_to(c, s);
         }
         s.last_used_ms.store(srv.now_ms(), std::memory_order_relaxed);
         s.sync_stats();
         JsonWriter w;
         w.begin_object().kv("ok", true).key("session");
         write_session_brief(w, s);
         return w.end_object().take();
       }},
      {"session_detach", kFleet, false, {},
       [](const Call& c) -> Doc {
         if (c.client == nullptr)
           return refused("session_detach requires a socket connection");
         if (c.client->attached == 0)
           return refused("not attached to a session");
         const std::uint64_t prev_id = c.client->attached;
         c.client->drop_session(prev_id);
         // A refused post-migration attach can leave the attachment pointing at
         // another shard's session; drop_attachment stays off its world then.
         if (auto prev = c.srv.manager_.find(prev_id)) drop_attachment(*prev, c.shard);
         JsonWriter w;
         return w.begin_object().kv("ok", true).kv("detached", prev_id).end_object().take();
       }},
      {"session_destroy", kFleet, false, kTargetParams,
       [](const Call& c) -> Doc {
         DebugServer& srv = c.srv;
         auto target = srv.resolve(c.params, c.client, c.shard, /*pin_to_shard=*/false);
         if (!target.ok()) return target.status();
         HostedSession& s = **target;
         if (s.is_default)
           return refused("the default session cannot be destroyed");
         if (s.shard != c.shard) {
           if (c.client == nullptr)
             return refused(strformat("session '%s' is pinned to shard %d; in-process "
                                      "destroy only reaches shard 0",
                                      s.name.c_str(), s.shard));
           c.client->migrate_to = s.shard;  // re-executes on the owning shard
           return std::string();
         }
         const std::uint64_t id = s.id;
         // Detach every client of this shard that references the session (other
         // shards cannot: bindings are same-shard and cross-shard attachments
         // resolve to errors afterwards).
         for (auto& cp : srv.shards_[static_cast<std::size_t>(c.shard)]->clients) {
           if (cp->attached == id) s.attached_clients.fetch_sub(1, std::memory_order_relaxed);
           cp->drop_session(id);
         }
         if (Status st = srv.manager_.destroy(id); !st.ok()) return st;
         JsonWriter w;
         return w.begin_object().kv("ok", true).kv("destroyed", id).end_object().take();
       }},
      {"session_list", kFleet, false, {},
       [](const Call& c) -> Doc {
         const std::uint64_t now = c.srv.now_ms();
         std::vector<SessionManager::ListEntry> entries = c.srv.manager_.list();
         JsonWriter w;
         w.begin_object().kv("count", static_cast<std::uint64_t>(entries.size()));
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
         return w.end_array().end_object().take();
       }},
      {"shutdown", kGlobal, false, {},
       [](const Call& c) -> Doc {
         c.srv.request_shutdown();
         return std::string("{\"ok\":true,\"shutdown\":true}");
       }},
  };
  return kTable;
}

}  // namespace dfdbg::server
