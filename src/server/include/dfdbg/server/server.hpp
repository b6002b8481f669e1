// The multi-session debug fleet host: exposes N debug sessions' command
// surfaces over newline-delimited JSON-RPC on a TCP or Unix-domain socket
// (protocol.hpp), multiplexed across per-core poll loops.
//
// Concurrency model: the server runs `config.shards` poll loops — shard 0 on
// the serve() caller's thread (it also owns the listening socket), shards
// 1..N-1 on spawned threads. Every session is pinned to exactly one shard
// and every verb against it executes on that shard's thread, so the
// cooperative deterministic kernels (and their fibers) never share
// state and no locks guard the debug worlds themselves; only the session
// table and the client-handoff queues are mutex-guarded. Clients are
// multiplexed, not parallelized, *within* a shard: requests are handled in
// arrival order and each `run` verb parks its whole shard — but shards
// progress independently, which is what makes N sessions on K cores scale.
//
// Protocol v2 (see docs/PROTOCOL.md): requests may carry a `session` param
// (id or name); clients may `session_attach` to make it implicit. Clients
// with neither are served by the *default session* — the v1 alias that keeps
// single-session clients byte-compatible. A client follows its session: a
// `session_create`/`session_attach`/`session_destroy` naming a session on
// another shard migrates the connection to that shard (buffered input and
// all); other verbs refuse cross-shard targets.
//
// Subscriptions are session-scoped: each stream binding (journal deltas,
// flow/stats snapshots, run events, shard rounds) is bound at subscribe time
// to the resolved session and every notification's params carry a
// `"session":<id>` tag. Backpressure is unchanged from the single-session
// server: bounded outbound buffers, snapshot coalescing, journal gap
// reporting (server.sub.* counters).
//
// serve() blocks until the `shutdown` verb arrives or request_shutdown() is
// called from another thread (a self-pipe per shard wakes the poll loops).
// Each shard destroys its own sessions on exit — fiber stacks are unwound on
// the thread that created them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dfdbg/common/status.hpp"
#include "dfdbg/debug/session.hpp"
#include "dfdbg/debug/session_host.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/server/session_manager.hpp"

namespace dfdbg::server {

struct ServerConfig {
  /// A request line longer than this is rejected (-32600) and the client
  /// disconnected: a stream that never produces '\n' would otherwise grow
  /// the reassembly buffer without bound.
  std::size_t max_frame_bytes = 1 << 20;
  /// Accepted connections beyond this are refused (accept+close). Counted
  /// across all shards.
  std::size_t max_clients = 32;
  /// Gate for the `exec` verb (raw CLI line execution). Disable to restrict
  /// remote clients to the structured verb set.
  bool allow_exec = true;
  /// Slow-consumer bound: once a client's unsent output exceeds this, the
  /// server stops producing for it (snapshots coalesce, journal reads
  /// pause) until the socket drains. Responses to requests are exempt —
  /// only push streams are throttled.
  std::size_t max_outbound_bytes = 1 << 18;
  /// Cadence of the periodic streams (flow.snapshot, stats.delta), in
  /// milliseconds. Also the poll timeout while periodic subscribers exist.
  int tick_ms = 50;
  /// Max journal events per journal.delta notification. Smaller batches
  /// interleave finer with snapshots; larger ones cost less framing.
  std::size_t journal_batch = 64;

  // --- fleet-host knobs -----------------------------------------------------

  /// Poll loops (>= 1). A session is pinned at create time to the shard the
  /// request names (`shard` param) or, absent that, the shard the creating
  /// client is on; shard 0 runs on the serve() caller.
  int shards = 1;
  /// Hosted-session ceiling (the default session counts).
  std::size_t max_sessions = 4096;
  /// Gate for the `session_create` verb (a factory must also be set).
  bool allow_session_create = true;
  /// Quota applied when session_create carries none.
  dbg::SessionQuota default_quota;
  /// Ceiling on the client-supplied `quota.journal_capacity` (events):
  /// requests above it are clamped, so one remote session_create cannot
  /// make the host allocate an arbitrarily large private ring.
  std::size_t max_journal_capacity = obs::Journal::kDefaultCapacity;
};

class DebugServer {
 public:
  /// Single-session (v1-compatible) host: `session` becomes the default
  /// session, served from shard 0, its journal the process-wide ring.
  /// Call set_factory() to additionally enable session_create.
  explicit DebugServer(dbg::Session& session, ServerConfig config = {});

  /// Fleet-only host: no default session. Clients must session_create or
  /// session_attach before using session-scoped verbs.
  explicit DebugServer(dbg::SessionFactory& factory, ServerConfig config = {});

  ~DebugServer();

  DebugServer(const DebugServer&) = delete;
  DebugServer& operator=(const DebugServer&) = delete;

  /// Enables session_create on a single-session server (the factory must
  /// outlive the server).
  void set_factory(dbg::SessionFactory* factory) { manager_.set_factory(factory); }

  /// Binds and listens on `host:port` (port 0 = ephemeral). Returns the
  /// bound port.
  Result<int> listen_tcp(const std::string& host = "127.0.0.1", int port = 0);
  /// Binds and listens on a Unix-domain socket path (unlinked first).
  Status listen_unix(const std::string& path);

  /// Runs shard 0's event loop on the calling thread (spawning shards
  /// 1..N-1) until shutdown. Requires a prior successful listen_*().
  Status serve();

  /// Thread-safe: wakes every poll loop and makes serve() return.
  void request_shutdown();

  /// Bound TCP port (0 before listen_tcp()).
  [[nodiscard]] int port() const { return port_; }

  /// Decodes and executes ONE request frame (no trailing newline), returns
  /// the response frame. This is the whole protocol minus the socket —
  /// public so tests and benchmarks can drive the verb table in-process.
  /// Runs as shard 0; sessions it creates are pinned there.
  std::string handle_frame(std::string_view frame);

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] SessionManager& sessions() { return manager_; }

  /// Runs one idle-eviction sweep for shard 0 at a synthetic "now" offset
  /// (milliseconds from server start). Test hook: lets eviction be driven
  /// without a poll loop or wall-clock waits.
  std::size_t evict_idle_for_test(std::uint64_t now_ms);

 private:
  /// The push streams, indexing Client::sub; kStreams lists them in
  /// `capabilities.streams` order.
  enum Stream : std::uint8_t { kJournal, kFlow, kStats, kRunEvents, kShardRounds, kStreamCount };
  struct StreamSpec {
    std::string_view name;  ///< the protocol's spelling
    bool periodic;          ///< ticks (forcing a poll timeout) rather than following events
  };
  static constexpr StreamSpec kStreams[kStreamCount] = {
      {"journal", false}, {"info_flow", true}, {"stats", true},
      {"run_events", false}, {"shard_rounds", false}};

  struct Client {
    int fd = -1;
    std::string in;   ///< bytes received, not yet framed
    std::string out;  ///< responses not yet written
    bool close_after_flush = false;

    /// Session this client is attached to (0 = none: verbs fall back to the
    /// default session).
    std::uint64_t attached = 0;

    /// Set by dispatch when a verb must run on another shard: the client —
    /// fd, buffers, bindings — moves to that shard's intake, carrying the
    /// triggering frame in `pending` for re-execution there.
    int migrate_to = -1;
    std::string pending;

    /// The session each stream is bound to (0 = not subscribed).
    std::array<std::uint64_t, kStreamCount> sub{};
    /// Resume point into the bound session's journal ring (absolute seq).
    std::uint64_t journal_cursor = 0;
    /// Resume point into the barrier-round record ring (round ids are
    /// monotonic, so "rounds after N" is a stable cursor even as the ring
    /// evicts old records).
    std::uint64_t shard_cursor = 0;
    /// Reader-side registry snapshot backing `stats.delta`.
    obs::StatsSnapshot stats_prev;
    /// Last-seen per-link (pushes, pops) backing the d_pushes/d_pops rates
    /// in `flow.snapshot`.
    std::unordered_map<std::string, std::pair<std::uint64_t, std::uint64_t>> flow_prev;

    [[nodiscard]] bool subscribed() const { return sub != decltype(sub){}; }
    /// Periodic streams force a poll timeout; event streams do not.
    [[nodiscard]] bool wants_tick() const {
      for (int s = 0; s < kStreamCount; ++s)
        if (kStreams[s].periodic && sub[s] != 0) return true;
      return false;
    }
    /// True if any binding or the attachment references session `sid`.
    [[nodiscard]] bool references(std::uint64_t sid) const {
      return attached == sid || std::find(sub.begin(), sub.end(), sid) != sub.end();
    }
    /// Clears the attachment and every binding referencing session `sid`.
    void drop_session(std::uint64_t sid) {
      if (attached == sid) attached = 0;
      std::replace(sub.begin(), sub.end(), sid, std::uint64_t{0});
    }
  };

  /// One poll loop. Shard 0 additionally owns accept().
  struct Shard {
    int index = 0;
    int wake_pipe[2] = {-1, -1};
    std::vector<std::unique_ptr<Client>> clients;
    std::chrono::steady_clock::time_point last_tick{};
    std::mutex mu;  ///< guards intake
    std::vector<std::unique_ptr<Client>> intake;  ///< migrated clients, pending adoption
    std::thread thread;  ///< shards 1..N-1 only
  };

  /// One request as its method's handler sees it.
  struct Call;
  /// One method-table entry: name, scope, budget gate, declared params and
  /// handler (server.cpp).
  struct Method;
  /// The method table, in `capabilities.methods` order: the one place the
  /// server's methods are declared.
  static std::span<const Method> methods();
  /// Request-path instruments and the method lookup, built once.
  struct ServerMetrics;

  void init(ServerConfig config);

  /// handle_frame with the requesting connection attached (nullptr for the
  /// in-process entry point: subscribe verbs then report an error, since
  /// there is no socket to push to). `replay` suppresses the request
  /// counters when re-executing a migrated frame on its new shard.
  std::string handle_frame_for(std::string_view frame, Client* client, int shard,
                               bool replay = false);
  /// Looks `method` up, checks `params` against its declarations, then runs
  /// it: a session-scoped method against the resolved target session, behind
  /// its token budget. Returns the result document, or the error for the
  /// response.
  Result<std::string> dispatch(std::string_view method, const JsonValue* params, Client* client,
                               int shard, bool replay);

  /// Resolves the target session of a request: explicit `session` param
  /// (id or name) > client attachment > default session. When
  /// `pin_to_shard`, a session owned by another shard is an error (the
  /// migrating verbs pass false and handle the move themselves). The
  /// returned pin must be held for as long as the session is used.
  Result<std::shared_ptr<HostedSession>> resolve(const JsonValue& params, Client* client,
                                                 int shard, bool pin_to_shard = true);

  Status run_shard(int shard);
  void adopt_intake(int shard);
  void accept_clients();
  /// Reads from client `i` of `shard`; frames and executes requests.
  /// Returns false if the client disconnected or migrated away.
  bool service_input(int shard, std::size_t i);
  /// Executes `c.pending` (a migrated frame) then every complete frame in
  /// `c.in`. Returns false if the client migrated (again) mid-buffer.
  bool process_buffered(int shard, Client& c);
  /// Flushes pending output of client `i`. Returns false on write error.
  bool flush_output(int shard, std::size_t i);
  void close_client(int shard, std::size_t i);
  void enqueue(Client& c, std::string frame);
  /// Hands `c` (owned) to `target`'s intake and wakes it.
  void migrate_client(std::unique_ptr<Client> c, int target);
  std::size_t evict_idle(int shard, std::uint64_t now_ms);
  [[nodiscard]] std::uint64_t now_ms() const;

  // --- push-stream machinery ------------------------------------------------

  /// Enqueues one notification frame onto `c`, tagging the params object
  /// with the originating session id (counts server.sub.*).
  void push_notification(Client& c, const std::string& method, std::string params_json,
                         std::uint64_t sid);
  /// Produces everything `c` is owed — journal deltas up to the outbound
  /// bound, plus flow/stats snapshots when `tick_due` — without flushing.
  /// Bindings to vanished sessions are silently cleared.
  void pump_client(Client& c, int shard, bool tick_due);
  /// Per-session stop observer: fans a stop event out to the owning shard's
  /// `run_events` subscribers *while the triggering request is still
  /// executing*, with a best-effort non-blocking send so the event precedes
  /// the response on the wire. Runs on the owning shard's thread.
  void on_stop_event(HostedSession& hs, const dbg::StopEvent& ev);
  /// Installs the stop observer on a newly created hosted session.
  void install_stop_observer(HostedSession& hs);

  ServerConfig config_;
  SessionManager manager_;
  std::shared_ptr<HostedSession> default_;  ///< null on a fleet-only server

  int listen_fd_ = -1;
  int port_ = 0;
  std::string unix_path_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> client_count_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::chrono::steady_clock::time_point start_time_{};
};

}  // namespace dfdbg::server
