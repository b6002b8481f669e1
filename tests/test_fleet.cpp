// Tests of the multi-session fleet host (docs/PROTOCOL.md "Sessions"):
// session lifecycle verbs, two-session isolation (private journals and
// worlds), quota enforcement (token budget, journal capacity, client and
// session ceilings), idle eviction, v1 single-session byte-compatibility
// against the pinned golden transcript, shard-pinned determinism under the
// parallel backend, and the 1024-idle-sessions-in-one-process acceptance
// criterion.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dfdbg/common/json.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/server/protocol.hpp"
#include "dfdbg/server/server.hpp"
#include "dfdbg/sim/context.hpp"

namespace dfdbg::server {
namespace {

/// In-process fleet-only rig: no default session, wide/adl rigs available.
struct FleetRig {
  dbg::SessionFactory factory;
  std::unique_ptr<DebugServer> server;

  explicit FleetRig(ServerConfig scfg = {}) {
    server = std::make_unique<DebugServer>(factory, scfg);
  }

  JsonValue parse(const std::string& frame) {
    auto v = JsonValue::parse(frame);
    EXPECT_TRUE(v.ok()) << v.status().message() << " in: " << frame;
    return v.ok() ? *v : JsonValue{};
  }

  /// handle_frame + parse; EXPECTs a "result" member and returns a copy.
  JsonValue result(const std::string& frame) {
    JsonValue doc = parse(server->handle_frame(frame));
    const JsonValue* r = doc.find("result");
    EXPECT_NE(r, nullptr) << "not a result frame: " << doc.dump();
    return r != nullptr ? *r : JsonValue{};
  }

  /// handle_frame + parse; EXPECTs an "error" member and returns its message.
  std::string error_message(const std::string& frame) {
    JsonValue doc = parse(server->handle_frame(frame));
    const JsonValue* e = doc.find("error");
    EXPECT_NE(e, nullptr) << "not an error frame: " << doc.dump();
    return e != nullptr ? e->str_or("message") : std::string();
  }

  /// session_create and return the new session's id (0 on failure).
  std::uint64_t create(const std::string& params_json) {
    JsonValue r = result(R"({"jsonrpc":"2.0","id":9000,"method":"session_create","params":)" +
                         params_json + "}");
    const JsonValue* s = r.find("session");
    EXPECT_NE(s, nullptr) << r.dump();
    return s != nullptr ? s->u64_or("id") : 0;
  }
};

/// Small wide-rig spec: 3 actors, 4 tokens — builds in well under a ms.
const char* kTinyWide =
    R"({"rig":"wide","name":"%s","pipelines":1,"stages":1,"tokens":4,"spin":1})";

std::string tiny_wide(const std::string& name) {
  std::string out = kTinyWide;
  out.replace(out.find("%s"), 2, name);
  return out;
}

// --- session lifecycle verbs -------------------------------------------------

TEST(FleetVerbs, CreateListDestroyRoundTrip) {
  FleetRig rig;
  std::uint64_t id = rig.create(tiny_wide("alpha"));
  ASSERT_NE(id, 0u);

  JsonValue list = rig.result(R"({"jsonrpc":"2.0","id":1,"method":"session_list"})");
  EXPECT_EQ(list.u64_or("count"), 1u) << list.dump();
  const JsonValue* sessions = list.find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ(sessions->at(0).str_or("name"), "alpha");
  EXPECT_EQ(sessions->at(0).str_or("rig"), "wide");
  EXPECT_EQ(sessions->at(0).u64_or("shard"), 0u);
  EXPECT_FALSE(sessions->at(0).bool_or("default"));

  // Verbs address it by name or id interchangeably.
  JsonValue by_name = rig.result(
      R"({"jsonrpc":"2.0","id":2,"method":"info_links","params":{"session":"alpha"}})");
  JsonValue by_id = rig.result(
      R"({"jsonrpc":"2.0","id":3,"method":"info_links","params":{"session":)" +
      std::to_string(id) + "}}");
  EXPECT_EQ(by_name.dump(), by_id.dump());

  JsonValue destroyed = rig.result(
      R"({"jsonrpc":"2.0","id":4,"method":"session_destroy","params":{"session":"alpha"}})");
  EXPECT_TRUE(destroyed.bool_or("ok"));
  list = rig.result(R"({"jsonrpc":"2.0","id":5,"method":"session_list"})");
  EXPECT_EQ(list.u64_or("count"), 0u);
  EXPECT_NE(rig.error_message(
                R"({"jsonrpc":"2.0","id":6,"method":"info_links","params":{"session":"alpha"}})")
                .find("no such session"),
            std::string::npos)
      << "destroyed session still resolvable";
}

TEST(FleetVerbs, CreateErrors) {
  FleetRig rig;
  EXPECT_NE(rig.error_message(
                R"({"jsonrpc":"2.0","id":1,"method":"session_create","params":{"rig":"bogus"}})")
                .find("rig"),
            std::string::npos);
  EXPECT_NE(
      rig.error_message(
             R"({"jsonrpc":"2.0","id":2,"method":"session_create","params":{"shard":7}})")
          .find("out of range"),
      std::string::npos);
  ASSERT_NE(rig.create(tiny_wide("dup")), 0u);
  EXPECT_NE(rig.error_message(R"({"jsonrpc":"2.0","id":3,"method":"session_create","params":)" +
                              tiny_wide("dup") + "}")
                .find("dup"),
            std::string::npos)
      << "duplicate explicit name must be refused";
  // Unknown target session.
  EXPECT_NE(rig.error_message(
                R"({"jsonrpc":"2.0","id":4,"method":"run","params":{"session":"ghost"}})")
                .find("no such session"),
            std::string::npos);
  // No attachment and no default on a fleet-only host.
  EXPECT_NE(rig.error_message(R"({"jsonrpc":"2.0","id":5,"method":"info_links"})")
                .find("no default session"),
            std::string::npos);
  // `threads` is not a backend; the error lists the accepted ones.
  EXPECT_NE(rig.error_message(R"({"jsonrpc":"2.0","id":6,"method":"session_create",)"
                              R"("params":{"rig":"wide","backend":"threads"}})")
                .find("unknown backend 'threads' (fibers|parallel)"),
            std::string::npos);
}

// `workers` and `shard` are range-checked on the u64 as sent, before any
// narrowing to int and before any rig builds: 257 workers, or a value that
// would narrow to a small int, is refused with -32602, no session appears,
// and the server answers the next request. Nothing here runs a session.
TEST(FleetVerbs, CreateRefusesOutOfRangeWorkersAndShard) {
  FleetRig rig;
  auto refusal = [&](const std::string& extra) {
    JsonValue doc = rig.parse(rig.server->handle_frame(
        R"({"jsonrpc":"2.0","id":1,"method":"session_create","params":{"rig":"wide",)"
        R"("backend":"parallel","pipelines":1,"stages":1,"tokens":4,"spin":1,)"
        R"("quota":{"journal_capacity":64},)" +
        extra + "}}"));
    const JsonValue* e = doc.find("error");
    EXPECT_NE(e, nullptr) << extra << " was accepted: " << doc.dump();
    if (e == nullptr) return std::string();
    EXPECT_EQ(e->find("code")->as_i64(), kErrInvalidParams) << extra;
    return e->str_or("message");
  };
  EXPECT_NE(refusal(R"("workers":257)").find("workers must be 0..256"), std::string::npos);
  EXPECT_NE(refusal(R"("workers":4294967298)").find("workers must be 0..256"),
            std::string::npos);
  EXPECT_NE(refusal(R"("shard":4294967296)").find("out of range"), std::string::npos);
  JsonValue list = rig.result(R"({"jsonrpc":"2.0","id":2,"method":"session_list"})");
  EXPECT_EQ(list.u64_or("count", 99), 0u) << list.dump();
  EXPECT_NE(rig.create(tiny_wide("after")), 0u);
}

// An unknown method is rejected before any session is resolved: a fleet-only
// host with nothing attached, or a `session` that names nothing, still
// answers -32601.
TEST(FleetVerbs, UnknownMethodRejectedBeforeSessionLookup) {
  FleetRig rig;
  auto code = [&](const std::string& frame) {
    JsonValue doc = rig.parse(rig.server->handle_frame(frame));
    const JsonValue* e = doc.find("error");
    EXPECT_NE(e, nullptr) << doc.dump();
    return e != nullptr ? e->find("code")->as_i64() : 0;
  };
  EXPECT_EQ(code(R"({"jsonrpc":"2.0","id":1,"method":"bogus"})"), kErrMethodNotFound);
  EXPECT_EQ(code(R"({"jsonrpc":"2.0","id":2,"method":"bogus","params":{"session":"nope"}})"),
            kErrMethodNotFound);
}

// A bogus call names no verb of the session it targets: it is not counted as
// one of that session's requests and does not refresh its idle clock, so a
// client sending garbage cannot keep a session from idle eviction.
TEST(FleetVerbs, UnknownMethodLeavesTargetSessionIdle) {
  FleetRig rig;
  std::string spec = tiny_wide("quiet");
  spec.insert(spec.size() - 1, R"(,"quota":{"idle_timeout_ms":5})");
  ASSERT_NE(rig.create(spec), 0u);
  auto hs = rig.server->sessions().find(std::string("quiet"));
  ASSERT_NE(hs, nullptr);
  constexpr std::uint64_t kNeverUsed = ~0ULL;
  hs->last_used_ms.store(kNeverUsed);
  for (int i = 0; i < 6; ++i)
    rig.error_message(R"({"jsonrpc":"2.0","id":1,"method":"bogus","params":{"session":"quiet"}})");
  EXPECT_EQ(hs->last_used_ms.load(), kNeverUsed);
  JsonValue list = rig.result(R"({"jsonrpc":"2.0","id":2,"method":"session_list"})");
  const JsonValue* sessions = list.find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ(sessions->at(0).u64_or("requests", 99), 0u) << list.dump();
}

TEST(FleetVerbs, CreateGateRespected) {
  ServerConfig scfg;
  scfg.allow_session_create = false;
  FleetRig rig(scfg);
  EXPECT_NE(rig.error_message(R"({"jsonrpc":"2.0","id":1,"method":"session_create"})")
                .find("disabled"),
            std::string::npos);
}

// --- isolation ---------------------------------------------------------------

TEST(FleetIsolation, RunTouchesOnlyTheTargetSession) {
  FleetRig rig;
  ASSERT_NE(rig.create(tiny_wide("a")), 0u);
  ASSERT_NE(rig.create(tiny_wide("b")), 0u);

  JsonValue run = rig.result(
      R"({"jsonrpc":"2.0","id":1,"method":"run","params":{"session":"a"}})");
  EXPECT_FALSE(run.str_or("result").empty()) << run.dump();

  // `a` recorded journal events and token uids; `b` recorded nothing.
  JsonValue list = rig.result(R"({"jsonrpc":"2.0","id":2,"method":"session_list"})");
  const JsonValue* sessions = list.find("sessions");
  ASSERT_NE(sessions, nullptr);
  std::uint64_t a_events = 0, b_events = 0, a_tok = 0, b_tok = 0;
  for (std::size_t i = 0; i < sessions->size(); ++i) {
    const JsonValue& s = sessions->at(i);
    if (s.str_or("name") == "a") {
      a_events = s.u64_or("journal_events");
      a_tok = s.u64_or("last_token");
    } else if (s.str_or("name") == "b") {
      b_events = s.u64_or("journal_events");
      b_tok = s.u64_or("last_token");
    }
  }
  EXPECT_GT(a_events, 0u);
  EXPECT_GT(a_tok, 0u);
  EXPECT_EQ(b_events, 0u) << "running `a` leaked journal events into `b`";
  EXPECT_EQ(b_tok, 0u) << "running `a` leaked token uids into `b`";

  // `b`'s links are still in their initial state.
  JsonValue b_links = rig.result(
      R"({"jsonrpc":"2.0","id":3,"method":"info_links","params":{"session":"b"}})");
  const JsonValue* links = b_links.find("links");
  ASSERT_NE(links, nullptr);
  for (std::size_t i = 0; i < links->size(); ++i)
    EXPECT_EQ(links->at(i).u64_or("pushes"), 0u) << links->at(i).dump();
}

// A session's journal gets its names from its own rig build: elaboration
// interns every actor path into the journal the session's kernel captured,
// so a `journal` dump names the session's actors, never the placeholder.
TEST(FleetIsolation, SessionJournalNamesItsOwnActors) {
  FleetRig rig;
  ASSERT_NE(rig.create(tiny_wide("named")), 0u);
  rig.result(R"({"jsonrpc":"2.0","id":1,"method":"run","params":{"session":"named"}})");
  auto hs = rig.server->sessions().find(std::string("named"));
  ASSERT_NE(hs, nullptr);
  ASSERT_NE(hs->world, nullptr);
  std::set<std::string> paths;
  for (const pedf::Actor* a : hs->world->app->actors()) paths.insert(a->path());

  JsonValue dump = rig.result(
      R"({"jsonrpc":"2.0","id":2,"method":"journal","params":{"session":"named"}})");
  const JsonValue* events = dump.find("events");
  ASSERT_NE(events, nullptr) << dump.dump();
  std::size_t named = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue* actor = events->at(i).find("actor");
    if (actor == nullptr) continue;
    EXPECT_EQ(paths.count(actor->as_string()), 1u) << events->at(i).dump();
    ++named;
  }
  EXPECT_GT(named, 0u) << "the run recorded no actor-named events";
}

// --- quotas ------------------------------------------------------------------

TEST(FleetQuota, TokenBudgetRefusesMutatingVerbs) {
  FleetRig rig;
  std::string spec = tiny_wide("tiny");
  spec.insert(spec.size() - 1, R"(,"quota":{"token_budget":1})");
  ASSERT_NE(rig.create(spec), 0u);

  // First run is admitted (budget not yet consumed) and exhausts the budget.
  rig.result(R"({"jsonrpc":"2.0","id":1,"method":"run","params":{"session":"tiny"}})");
  std::string msg = rig.error_message(
      R"({"jsonrpc":"2.0","id":2,"method":"run","params":{"session":"tiny"}})");
  EXPECT_NE(msg.find("token budget"), std::string::npos) << msg;
  // Read-only verbs still work on an exhausted session.
  JsonValue links = rig.result(
      R"({"jsonrpc":"2.0","id":3,"method":"info_links","params":{"session":"tiny"}})");
  EXPECT_NE(links.find("links"), nullptr);
}

TEST(FleetQuota, JournalCapacityFromQuota) {
  FleetRig rig;
  std::string spec = tiny_wide("smallring");
  spec.insert(spec.size() - 1, R"(,"quota":{"journal_capacity":64})");
  ASSERT_NE(rig.create(spec), 0u);
  auto hs = rig.server->sessions().find(std::string("smallring"));
  ASSERT_NE(hs, nullptr);
  ASSERT_NE(hs->journal, nullptr);
  EXPECT_EQ(hs->journal->capacity(), 64u);
  EXPECT_NE(hs->journal, &obs::Journal::global_base())
      << "quota-sized session journal must be private, not the process ring";
}

TEST(FleetQuota, JournalCapacityClampedToServerCeiling) {
  ServerConfig scfg;
  scfg.max_journal_capacity = 256;
  FleetRig rig(scfg);
  // A hostile client asking for a giant private ring gets the server's
  // ceiling, not a giant allocation.
  std::string spec = tiny_wide("greedy");
  spec.insert(spec.size() - 1, R"(,"quota":{"journal_capacity":1073741824})");
  ASSERT_NE(rig.create(spec), 0u);
  auto hs = rig.server->sessions().find(std::string("greedy"));
  ASSERT_NE(hs, nullptr);
  ASSERT_NE(hs->journal, nullptr);
  EXPECT_EQ(hs->journal->capacity(), 256u);
  // Requests under the ceiling are honoured unchanged.
  spec = tiny_wide("modest");
  spec.insert(spec.size() - 1, R"(,"quota":{"journal_capacity":64})");
  ASSERT_NE(rig.create(spec), 0u);
  auto modest = rig.server->sessions().find(std::string("modest"));
  ASSERT_NE(modest, nullptr);
  EXPECT_EQ(modest->journal->capacity(), 64u);
}

TEST(FleetQuota, SessionCeilingEnforced) {
  ServerConfig scfg;
  scfg.max_sessions = 2;
  FleetRig rig(scfg);
  ASSERT_NE(rig.create(tiny_wide("one")), 0u);
  ASSERT_NE(rig.create(tiny_wide("two")), 0u);
  EXPECT_NE(rig.error_message(R"({"jsonrpc":"2.0","id":1,"method":"session_create","params":)" +
                              tiny_wide("three") + "}")
                .find("session limit reached"),
            std::string::npos);
}

// --- idle eviction -----------------------------------------------------------

TEST(FleetQuota, ConcurrentCreatesRespectCeilingAndNames) {
  // Two shards race session_create through the manager directly: the
  // capacity and name checks are re-validated after the (unlocked) factory
  // build, so neither the ceiling nor name uniqueness can be broken by the
  // check-build-insert window, and an explicit name is never silently
  // renamed.
  obs::set_enabled(true);
  dbg::SessionFactory factory;
  SessionManager mgr(&factory, 4);
  constexpr int kAttempts = 6;
  std::atomic<int> wins[kAttempts] = {};
  std::atomic<int> done{0};
  auto worker = [&](int shard) {
    for (int i = 0; i < kAttempts; ++i) {
      dbg::SessionSpec spec;
      spec.pipelines = 1;
      spec.stages = 1;
      spec.tokens = 4;
      spec.spin = 1;
      spec.name = "contested-" + std::to_string(i);
      auto r = mgr.create(spec, shard, 0);
      if (r.ok()) {
        wins[i].fetch_add(1);
        EXPECT_EQ((*r)->name, spec.name);
      } else {
        std::string msg = r.status().message();
        EXPECT_TRUE(msg.find("already in use") != std::string::npos ||
                    msg.find("limit reached") != std::string::npos)
            << msg;
      }
      EXPECT_LE(mgr.count(), 4u);
    }
    // Hold teardown until both threads stop creating, so a destroyed name
    // cannot be legitimately re-created and double-counted above.
    done.fetch_add(1);
    while (done.load() < 2) std::this_thread::yield();
    mgr.destroy_all_on_shard(shard);  // worlds unwind on their creating thread
  };
  std::thread t1(worker, 101);
  std::thread t2(worker, 102);
  t1.join();
  t2.join();
  for (int i = 0; i < kAttempts; ++i)
    EXPECT_LE(wins[i].load(), 1) << "name contested-" << i << " created twice";
  EXPECT_EQ(mgr.count(), 0u);
}

TEST(FleetEviction, IdleSessionsSwept) {
  FleetRig rig;
  std::string spec = tiny_wide("ephemeral");
  spec.insert(spec.size() - 1, R"(,"quota":{"idle_timeout_ms":5})");
  ASSERT_NE(rig.create(spec), 0u);
  ASSERT_NE(rig.create(tiny_wide("durable")), 0u);  // no timeout: never evicted

  EXPECT_EQ(rig.server->evict_idle_for_test(0), 0u) << "evicted before its timeout";
  EXPECT_EQ(rig.server->evict_idle_for_test(1000000), 1u);
  JsonValue list = rig.result(R"({"jsonrpc":"2.0","id":1,"method":"session_list"})");
  EXPECT_EQ(list.u64_or("count"), 1u) << list.dump();
  const JsonValue* sessions = list.find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ(sessions->at(0).str_or("name"), "durable");
}

TEST(FleetEviction, DefaultSessionNeverEvicted) {
  auto built = h264::H264App::build([] {
    h264::H264AppConfig cfg;
    cfg.params.width = 32;
    cfg.params.height = 32;
    cfg.params.frame_count = 1;
    return cfg;
  }());
  ASSERT_TRUE(built.ok()) << built.status().message();
  dbg::Session session((*built)->app());
  session.attach();
  (*built)->start();
  ServerConfig scfg;
  scfg.default_quota.idle_timeout_ms = 1;  // armed, but default is exempt
  DebugServer server(session, scfg);
  EXPECT_EQ(server.evict_idle_for_test(1000000), 0u);
}

// --- v1 backward compatibility ----------------------------------------------

/// Pins the process backend (the transcript embeds backend/workers fields).
struct FibersBackendGuard {
  sim::ProcessBackend prev = sim::default_process_backend();
  FibersBackendGuard() { sim::set_default_process_backend(sim::ProcessBackend::kFibers); }
  ~FibersBackendGuard() { sim::set_default_process_backend(prev); }
};

/// A v1 client (no session params, no session verbs) against the fleet host
/// must see byte-identical responses to the pre-fleet server: the default-
/// session alias is the compatibility contract. The golden transcript was
/// captured from the single-session server before the fleet refactor.
TEST(FleetV1Compat, DefaultAliasByteIdenticalToV1Golden) {
  FibersBackendGuard backend_guard;
  auto built = h264::H264App::build([] {
    h264::H264AppConfig cfg;
    cfg.params.width = 32;
    cfg.params.height = 32;
    cfg.params.frame_count = 1;
    return cfg;
  }());
  ASSERT_TRUE(built.ok()) << built.status().message();
  dbg::Session session((*built)->app());
  session.attach();
  (*built)->start();
  DebugServer server(session);

  std::string golden_path =
      std::string(DFDBG_SOURCE_DIR) + "/tests/golden/server_protocol_v1.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string golden = buf.str();

  // Replay every "--> " request line; the whole transcript must match.
  std::string transcript;
  std::istringstream lines(golden);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("--> ", 0) != 0) continue;
    std::string req = line.substr(4);
    transcript += "--> " + req + "\n<-- " + server.handle_frame(req) + "\n";
  }
  ASSERT_FALSE(transcript.empty()) << "golden has no request lines";
  EXPECT_EQ(transcript, golden)
      << "v1 single-session wire behavior diverged; the default-session alias "
         "must stay byte-compatible (tests/golden/server_protocol_v1.txt)";
}

// --- determinism under the parallel backend ----------------------------------

TEST(FleetDeterminism, ParallelBackendTwinSessionsAgree) {
  FleetRig rig;
  const char* spec =
      R"({"rig":"wide","name":"%s","backend":"parallel","workers":2,)"
      R"("pipelines":4,"stages":2,"tokens":16,"spin":4,"seed":7})";
  for (const char* name : {"t1", "t2"}) {
    std::string s = spec;
    s.replace(s.find("%s"), 2, name);
    ASSERT_NE(rig.create(s), 0u) << name;
  }
  JsonValue r1 = rig.result(
      R"({"jsonrpc":"2.0","id":1,"method":"run","params":{"session":"t1"}})");
  JsonValue r2 = rig.result(
      R"({"jsonrpc":"2.0","id":2,"method":"run","params":{"session":"t2"}})");
  EXPECT_EQ(r1.dump(), r2.dump());

  // Identical final link state and journal volume: the barrier-synced
  // parallel kernels are deterministic per session. (last_token stays 0 on
  // the base journal under multi-worker runs — shard journals allocate uids
  // from disjoint ranges — so journal cursors are the comparison here.)
  JsonValue l1 = rig.result(
      R"({"jsonrpc":"2.0","id":3,"method":"info_links","params":{"session":"t1"}})");
  JsonValue l2 = rig.result(
      R"({"jsonrpc":"2.0","id":4,"method":"info_links","params":{"session":"t2"}})");
  EXPECT_EQ(l1.dump(), l2.dump());
  auto t1 = rig.server->sessions().find(std::string("t1"));
  auto t2 = rig.server->sessions().find(std::string("t2"));
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_GT(t1->journal->cursor(), 0u);
  EXPECT_EQ(t1->journal->cursor(), t2->journal->cursor());
}

// --- scale: the 1024-idle-sessions acceptance criterion ----------------------

TEST(FleetScale, ThousandIdleSessionsUnderQuota) {
  ServerConfig scfg;
  scfg.max_sessions = 1100;
  FleetRig rig(scfg);
  constexpr int kSessions = 1024;
  for (int i = 0; i < kSessions; ++i) {
    std::string frame =
        R"({"jsonrpc":"2.0","id":1,"method":"session_create","params":{"rig":"wide",)"
        R"("pipelines":1,"stages":1,"tokens":4,"spin":1,"quota":{"journal_capacity":256}}})";
    std::string resp = rig.server->handle_frame(frame);
    ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << "create " << i << ": " << resp;
  }
  JsonValue list = rig.result(R"({"jsonrpc":"2.0","id":2,"method":"session_list"})");
  EXPECT_EQ(list.u64_or("count"), static_cast<std::uint64_t>(kSessions));

  // Every world is live and individually addressable: spot-check a spread of
  // auto-named sessions end to end.
  for (std::uint64_t id : {1u, 500u, 1024u}) {
    JsonValue links = rig.result(
        R"({"jsonrpc":"2.0","id":3,"method":"info_links","params":{"session":)" +
        std::to_string(id) + "}}");
    EXPECT_NE(links.find("links"), nullptr) << "session " << id;
  }
  // Teardown of all 1024 worlds happens in the server dtor (shard 0 owns
  // them all in-process); reaching the end without leaks/crashes is the test.
}

// --- socket-level fleet behavior ---------------------------------------------

/// Blocking line client (same shape as test_subscribe's).
struct TestClient {
  int fd = -1;
  std::string spill;

  ~TestClient() {
    if (fd >= 0) close(fd);
  }

  bool connect_tcp(int port) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  void set_timeout_ms(int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  bool send_line(const std::string& frame) {
    std::string wire = frame + "\n";
    std::size_t off = 0;
    while (off < wire.size()) {
      ssize_t n = send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string read_line() {
    for (;;) {
      std::size_t nl = spill.find('\n');
      if (nl != std::string::npos) {
        std::string line = spill.substr(0, nl);
        spill.erase(0, nl + 1);
        return line;
      }
      char buf[65536];
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return "";
      spill.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// Sends a request and reads frames until its response, collecting
  /// notifications seen on the way.
  std::string request(const std::string& frame, std::vector<std::string>* notifications = nullptr) {
    if (!send_line(frame)) return "";
    for (;;) {
      std::string line = read_line();
      if (line.empty()) return "";
      auto doc = JsonValue::parse(line);
      if (doc.ok() && doc->is_object() && doc->find("id") == nullptr) {
        if (notifications != nullptr) notifications->push_back(line);
        continue;
      }
      return line;
    }
  }
};

/// Fleet-only poll-loop server on a dedicated thread. The server object is
/// owned by the test thread and outlives serve(): request_shutdown() must
/// never race the destructor closing the wake pipes. Shard loops destroy
/// their own sessions on exit, so tearing the object down here (not on the
/// serving thread) is safe.
struct FleetServerThread {
  dbg::SessionFactory factory;
  std::unique_ptr<DebugServer> server;
  std::thread thread;
  int port = 0;

  explicit FleetServerThread(ServerConfig scfg = {}) {
    server = std::make_unique<DebugServer>(factory, scfg);
    auto p = server->listen_tcp();
    EXPECT_TRUE(p.ok()) << p.status().message();
    if (!p.ok()) return;
    port = *p;
    thread = std::thread([this] { EXPECT_TRUE(server->serve().ok()); });
  }

  ~FleetServerThread() {
    if (thread.joinable()) {
      server->request_shutdown();
      thread.join();
    }
  }
};

TEST(FleetSocket, NotificationsTaggedWithSessionId) {
  FleetServerThread st;
  TestClient tc;
  ASSERT_TRUE(tc.connect_tcp(st.port));
  tc.set_timeout_ms(5000);

  std::string resp = tc.request(
      R"({"jsonrpc":"2.0","id":1,"method":"session_create","params":)" + tiny_wide("live") + "}");
  auto created = JsonValue::parse(resp);
  ASSERT_TRUE(created.ok()) << resp;
  const JsonValue* result = created->find("result");
  ASSERT_NE(result, nullptr) << resp;
  EXPECT_TRUE(result->bool_or("attached")) << resp;
  const JsonValue* brief = result->find("session");
  ASSERT_NE(brief, nullptr);
  std::uint64_t sid = brief->u64_or("id");
  ASSERT_NE(sid, 0u);

  // The subscribe ack names the bound session; the attachment makes it implicit.
  resp = tc.request(R"({"jsonrpc":"2.0","id":2,"method":"subscribe","params":{"stream":"journal"}})");
  EXPECT_NE(resp.find("\"session\":" + std::to_string(sid)), std::string::npos) << resp;

  std::vector<std::string> notifications;
  resp = tc.request(R"({"jsonrpc":"2.0","id":3,"method":"run"})", &notifications);
  EXPECT_NE(resp.find("\"result\""), std::string::npos) << resp;
  // Journal deltas may trail the run response: drain until one arrives.
  for (int i = 0; i < 50 && notifications.empty(); ++i) {
    std::string line = tc.read_line();
    if (line.empty()) break;
    auto doc = JsonValue::parse(line);
    if (doc.ok() && doc->find("id") == nullptr) notifications.push_back(line);
  }
  ASSERT_FALSE(notifications.empty()) << "no journal.delta after run";
  for (const std::string& n : notifications) {
    auto doc = JsonValue::parse(n);
    ASSERT_TRUE(doc.ok()) << n;
    const JsonValue* params = doc->find("params");
    ASSERT_NE(params, nullptr) << n;
    EXPECT_EQ(params->u64_or("session"), sid) << n;
  }
}

TEST(FleetSocket, MaxClientsQuotaEnforced) {
  FleetServerThread st;
  TestClient a, b;
  ASSERT_TRUE(a.connect_tcp(st.port));
  ASSERT_TRUE(b.connect_tcp(st.port));
  a.set_timeout_ms(5000);
  b.set_timeout_ms(5000);

  std::string spec = tiny_wide("solo");
  spec.insert(spec.size() - 1, R"(,"quota":{"max_clients":1})");
  std::string resp = a.request(
      R"({"jsonrpc":"2.0","id":1,"method":"session_create","params":)" + spec + "}");
  ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;

  // Creator auto-attached: the second client is over quota...
  resp = b.request(
      R"({"jsonrpc":"2.0","id":2,"method":"session_attach","params":{"session":"solo"}})");
  EXPECT_NE(resp.find("client quota"), std::string::npos) << resp;
  // ...until the creator detaches.
  resp = a.request(R"({"jsonrpc":"2.0","id":3,"method":"session_detach"})");
  ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  resp = b.request(
      R"({"jsonrpc":"2.0","id":4,"method":"session_attach","params":{"session":"solo"}})");
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
}

TEST(FleetSocket, CrossShardCreateAttachAndRun) {
  ServerConfig scfg;
  scfg.shards = 2;
  FleetServerThread st(scfg);
  TestClient tc;
  ASSERT_TRUE(tc.connect_tcp(st.port));
  tc.set_timeout_ms(5000);

  // Creating on shard 1 migrates the connection there transparently: the
  // response still arrives, in order, on this socket.
  std::string spec = tiny_wide("far");
  spec.insert(spec.size() - 1, R"(,"shard":1)");
  std::string resp = tc.request(
      R"({"jsonrpc":"2.0","id":1,"method":"session_create","params":)" + spec + "}");
  ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"shard\":1"), std::string::npos) << resp;

  resp = tc.request(R"({"jsonrpc":"2.0","id":2,"method":"run"})");
  EXPECT_NE(resp.find("\"result\""), std::string::npos) << resp;

  // Now a session back on shard 0; session_attach migrates the client again.
  spec = tiny_wide("near");
  spec.insert(spec.size() - 1, R"(,"shard":0)");
  resp = tc.request(
      R"({"jsonrpc":"2.0","id":3,"method":"session_create","params":)" + spec + "}");
  ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"shard\":0"), std::string::npos) << resp;
  resp = tc.request(
      R"({"jsonrpc":"2.0","id":4,"method":"session_attach","params":{"session":"far"}})");
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;

  // Both worlds are visible fleet-wide regardless of the client's shard.
  resp = tc.request(R"({"jsonrpc":"2.0","id":5,"method":"session_list"})");
  EXPECT_NE(resp.find("\"count\":2"), std::string::npos) << resp;
}

TEST(FleetSocket, AttachRefusalLeavesClientUsable) {
  ServerConfig scfg;
  scfg.shards = 2;
  FleetServerThread st(scfg);
  TestClient a, b;
  ASSERT_TRUE(a.connect_tcp(st.port));
  ASSERT_TRUE(b.connect_tcp(st.port));
  a.set_timeout_ms(5000);
  b.set_timeout_ms(5000);

  // a works against "home" on its own shard 0; b fills the 1-client quota
  // of "far" on shard 1.
  std::string resp = a.request(
      R"({"jsonrpc":"2.0","id":1,"method":"session_create","params":)" + tiny_wide("home") + "}");
  ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  std::string spec = tiny_wide("far");
  spec.insert(spec.size() - 1, R"(,"shard":1,"quota":{"max_clients":1})");
  resp = b.request(
      R"({"jsonrpc":"2.0","id":2,"method":"session_create","params":)" + spec + "}");
  ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  ASSERT_NE(resp.find("\"shard\":1"), std::string::npos) << resp;

  // Attaching to the full session is refused *before* the cross-shard
  // migration — a must not be stranded on shard 1 with an attachment it
  // cannot use...
  resp = a.request(
      R"({"jsonrpc":"2.0","id":3,"method":"session_attach","params":{"session":"far"}})");
  EXPECT_NE(resp.find("client quota"), std::string::npos) << resp;
  // ...so its implicit session-scoped verbs keep hitting "home" unchanged.
  resp = a.request(R"({"jsonrpc":"2.0","id":4,"method":"run"})");
  EXPECT_NE(resp.find("\"result\""), std::string::npos) << resp;
  resp = a.request(R"({"jsonrpc":"2.0","id":5,"method":"session_detach"})");
  EXPECT_NE(resp.find("\"detached\""), std::string::npos) << resp;
}

}  // namespace
}  // namespace dfdbg::server
