// The fleet host's session table: N independent debug sessions per process.
//
// Each hosted session is a complete debug world (kernel + app + private
// journal + dbg::Session) built by a dbg::SessionFactory rig, pinned to one
// server shard. The single-threaded deterministic kernels never share state:
// every verb against a session executes on its owning shard's poll thread,
// under the session's thread-journal override.
//
// Thread model: the table itself (create/destroy/lookup/list) is mutex-
// guarded and callable from any shard, and lookups return shared_ptr pins,
// so a session destroyed concurrently by its owning shard can never dangle
// under a cross-shard reader. The *worlds* are not shared — a session's
// kernel, dbg::Session and interpreter may only be touched by the owning
// shard, and create/destroy must run there too (a world is single-threaded
// state: its fibers are created, run and unwound on one thread); a
// cross-shard holder of a pin may read
// only the immutable identity fields and the atomic stat mirrors, refreshed
// by the owning shard after each verb.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dfdbg/common/status.hpp"
#include "dfdbg/dbgcli/cli.hpp"
#include "dfdbg/debug/session_host.hpp"

namespace dfdbg::server {

/// One hosted debug session. Identity fields (id/name/rig/shard/quota/
/// backend/workers) are immutable after creation and readable from any
/// shard; the world and interpreter belong to the owning shard; the
/// `stat_*` mirrors are the only other cross-shard-readable state.
struct HostedSession {
  std::uint64_t id = 0;
  std::string name;
  std::string rig;
  int shard = 0;
  dbg::SessionQuota quota;
  bool is_default = false;  ///< the v1 alias target; never evicted/destroyed
  /// Kernel identity, snapshotted at registration (both are fixed at kernel
  /// construction) so any shard can describe the session — capabilities,
  /// session briefs — without touching the world.
  std::string backend;
  int workers = 0;

  /// Null for an externally-owned default session (legacy single-session
  /// constructor): the server then serves it but does not own its lifetime.
  /// Reset (with `session`/`journal`/`interp`) by destroy(), on the owning
  /// shard, before the struct itself is released.
  std::unique_ptr<dbg::SessionWorld> world;
  dbg::Session* session = nullptr;
  obs::Journal* journal = nullptr;  ///< world's journal, or the process ring
  std::unique_ptr<cli::Interpreter> interp;  ///< lazy; owning shard only

  /// Attachment count. Atomic because a client that migrated away can detach
  /// from its previous session cross-shard; all other use is owning-shard.
  std::atomic<int> attached_clients{0};

  // Cross-shard stat mirrors (relaxed; refreshed by the owning shard).
  std::atomic<std::uint64_t> stat_requests{0};
  std::atomic<std::uint64_t> stat_journal_events{0};
  std::atomic<std::uint64_t> stat_last_token{0};
  std::atomic<std::int64_t> stat_clients{0};
  std::atomic<std::uint64_t> last_used_ms{0};

  /// Refresh the mirrors from the world. Owning shard ONLY: the journal
  /// cursor reads race with recording otherwise. Cross-shard detachers must
  /// limit themselves to sync_client_stat().
  void sync_stats() {
    if (journal != nullptr) {
      stat_journal_events.store(journal->cursor(), std::memory_order_relaxed);
      stat_last_token.store(journal->last_token(), std::memory_order_relaxed);
    }
    sync_client_stat();
  }

  /// Refresh only the client-count mirror. Atomic-to-atomic, so callable
  /// from any shard (the path a migrated-away client's detach takes).
  void sync_client_stat() {
    stat_clients.store(attached_clients.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }

  /// Token-budget quota check (owning shard only). 0 = unlimited.
  [[nodiscard]] bool over_token_budget() const {
    return quota.token_budget != 0 && journal != nullptr &&
           journal->last_token() >= quota.token_budget;
  }
};

/// Mutex-guarded session table. Lookups return shared_ptr pins: destroy()
/// removes the entry and unwinds the *world* on the owning shard, but the
/// HostedSession struct stays alive while any pin is held, so a concurrent
/// cross-shard reader of its identity fields and atomic mirrors never
/// dereferences freed memory.
class SessionManager {
 public:
  SessionManager(dbg::SessionFactory* factory, std::size_t max_sessions);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  void set_factory(dbg::SessionFactory* factory) { factory_ = factory; }
  [[nodiscard]] dbg::SessionFactory* factory() const { return factory_; }

  /// Registers an externally-owned session as the default (id 1, shard 0).
  std::shared_ptr<HostedSession> register_external(dbg::Session& session,
                                                   const std::string& name,
                                                   const dbg::SessionQuota& quota);

  /// Builds a world from `spec` and registers it on `shard`. MUST run on the
  /// owning shard's thread. `now_ms` seeds the idle clock. The capacity and
  /// name checks are re-validated after the (unlocked) factory build, so two
  /// racing creates cannot exceed max_sessions or both claim one name.
  Result<std::shared_ptr<HostedSession>> create(const dbg::SessionSpec& spec, int shard,
                                                std::uint64_t now_ms);

  /// Removes the session from the table and tears its world down. MUST run
  /// on the owning shard's thread, after the caller has detached every
  /// client of that shard referencing it. Refuses the default session.
  Status destroy(std::uint64_t id, bool evicted = false);

  /// Destroys every owned session pinned to `shard` (shard-loop exit).
  void destroy_all_on_shard(int shard);

  /// Lookup by id or name; nullptr if absent. The pin keeps the struct
  /// alive, but the *world* behind it is only safe to use on the session's
  /// owning shard (and only while the session is still in the table, which
  /// on the owning shard cannot change mid-verb).
  std::shared_ptr<HostedSession> find(std::uint64_t id);
  std::shared_ptr<HostedSession> find(const std::string& name);

  /// Sessions on `shard` eligible for idle eviction at `now_ms` (owned,
  /// non-default, idle_timeout_ms > 0, no attached clients, idle long
  /// enough). Caller (the owning shard) re-checks bindings then destroys.
  std::vector<std::uint64_t> idle_candidates(int shard, std::uint64_t now_ms);

  /// True if any session on `shard` has an idle timeout armed (the shard
  /// loop then polls with a bounded timeout instead of blocking forever).
  bool has_armed_timeout(int shard);

  /// Stable snapshot of identity + stat mirrors for session_list.
  struct ListEntry {
    std::uint64_t id;
    std::string name;
    std::string rig;
    int shard;
    bool is_default;
    dbg::SessionQuota quota;
    std::uint64_t requests;
    std::uint64_t journal_events;
    std::uint64_t last_token;
    std::int64_t clients;
    std::uint64_t last_used_ms;
  };
  std::vector<ListEntry> list();

  [[nodiscard]] std::size_t count();
  [[nodiscard]] std::size_t max_sessions() const { return max_sessions_; }

 private:
  dbg::SessionFactory* factory_;
  std::size_t max_sessions_;
  std::mutex mu_;
  std::vector<std::shared_ptr<HostedSession>> sessions_;
  std::uint64_t next_id_ = 1;
};

}  // namespace dfdbg::server
