// Session factory and lifecycle for the multi-session fleet host.
//
// The fleet server (src/server) owns N independent debug sessions per
// process. Each session is a complete, isolated debug world: its own
// simulation kernel, PEDF application, flight-recorder journal and
// dbg::Session, built from a *rig* — a named recipe such as the H.264
// decoder, the seeded wide-graph generator, or an arbitrary MIND ADL file.
//
// Isolation hinges on the journal: obs::Journal::global() resolves through a
// thread-local override (set_thread_journal) before falling back to the
// process-wide ring. The factory installs the session's private journal as
// that override while the rig is built, the Session attaches and the app
// starts — so the kernel captures it as its shard-journal base — and the
// server re-installs it around every verb it dispatches for the session.
// Since each deterministic kernel is single-threaded and the fleet pins
// every session to exactly one shard thread, the override is always correct.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dfdbg/common/status.hpp"
#include "dfdbg/debug/session.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/pedf/application.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::dbg {

/// Per-session resource limits, enforced by the fleet host.
struct SessionQuota {
  /// Flight-recorder ring capacity (events). Sessions get small private
  /// rings by default — the process-wide 128Ki ring times 1024 sessions
  /// would be most of a GB.
  std::size_t journal_capacity = 1u << 12;
  /// Concurrent clients attached to the session (0 = unlimited).
  int max_clients = 4;
  /// Max token uids the session may record before run/step/inject verbs are
  /// refused (0 = unlimited). A cheap, deterministic work ceiling.
  std::uint64_t token_budget = 0;
  /// Evict the session after this long with no attached client and no
  /// request activity (0 = never). Checked by the owning shard's poll loop.
  std::uint64_t idle_timeout_ms = 0;
};

/// What to build: a rig name plus its knobs. Unused knobs are ignored by
/// rigs that do not consume them.
struct SessionSpec {
  std::string rig = "wide";
  std::string name;  ///< fleet-unique session name; "" = auto ("s<id>")

  std::string backend;  ///< "fibers" | "parallel"; "" = process default
  int workers = 0;      ///< parallel backend worker count; 0 = default

  // "wide" rig (bench/wide_graph.hpp).
  int pipelines = 2;
  int stages = 2;
  int tokens = 32;
  std::uint32_t spin = 16;
  std::uint32_t seed = 1;

  // "h264" rig (src/h264).
  int width = 32;
  int height = 32;
  int frames = 1;
  std::string fault;   ///< "" | "rate-mismatch" | "corrupt-splitter" | ...
  int trigger_mb = 2;

  // "adl" rig: instantiate a MIND ADL file with generic behaviours.
  std::string path;  ///< .adl file on the server's filesystem
  std::string top;   ///< top-level definition; "" = sole definition
  int steps = 4;     ///< generic source/sink stream length

  SessionQuota quota;
};

/// RAII: installs `j` as this thread's obs::Journal::global() override and
/// restores the previous override on exit. Pass nullptr for a no-op scope
/// (the default/external session records to the process-wide ring).
class ThreadJournalScope {
 public:
  explicit ThreadJournalScope(obs::Journal* j) {
    if (j == nullptr) return;
    obs::Journal& cur = obs::Journal::global();
    prev_ = (&cur == &obs::Journal::global_base()) ? nullptr : &cur;
    obs::Journal::set_thread_journal(j);
    active_ = true;
  }
  ~ThreadJournalScope() {
    if (active_) obs::Journal::set_thread_journal(prev_);
  }
  ThreadJournalScope(const ThreadJournalScope&) = delete;
  ThreadJournalScope& operator=(const ThreadJournalScope&) = delete;

 private:
  bool active_ = false;
  obs::Journal* prev_ = nullptr;
};

/// One hosted debug world. Owns everything the session needs to live;
/// destruction re-installs the session journal so teardown recording (link
/// drains, fiber unwinds) stays confined to the session.
struct SessionWorld {
  std::unique_ptr<obs::Journal> journal;  ///< destroyed last (declared first)
  std::shared_ptr<void> rig;              ///< keeps kernel/platform/app alive
  pedf::Application* app = nullptr;
  sim::Kernel* kernel = nullptr;
  std::unique_ptr<Session> session;

  SessionWorld() = default;
  ~SessionWorld();
  SessionWorld(const SessionWorld&) = delete;
  SessionWorld& operator=(const SessionWorld&) = delete;
};

/// Maps "fibers"/"parallel" to the enum; "" = process default.
Result<sim::ProcessBackend> parse_backend(const std::string& name);

/// Builds hosted debug worlds from named rigs. "wide" and "adl" are
/// registered by the constructor; the H.264 rig lives in src/h264
/// (h264::register_session_rig) because the decoder links *against* the
/// debug layer, not under it.
class SessionFactory {
 public:
  /// A rig builder returns the elaborated-but-not-started world: a holder
  /// keeping kernel/platform/app alive plus raw pointers into it. It runs
  /// under the session's ThreadJournalScope.
  struct RigParts {
    std::shared_ptr<void> holder;
    pedf::Application* app = nullptr;
    sim::Kernel* kernel = nullptr;
  };
  using Builder = std::function<Result<RigParts>(const SessionSpec&)>;

  SessionFactory();

  /// Registers (or replaces) a rig recipe under `name`.
  void register_rig(const std::string& name, Builder builder);
  [[nodiscard]] std::vector<std::string> rigs() const;

  /// Builds the world: journal sized by the quota, rig built and Session
  /// attached under the journal scope, app started. Builds are serialized
  /// process-wide (rigs that honour spec.backend flip the process default
  /// backend around kernel construction).
  Result<std::unique_ptr<SessionWorld>> build(const SessionSpec& spec) const;

 private:
  std::map<std::string, Builder> rigs_;
};

}  // namespace dfdbg::dbg
