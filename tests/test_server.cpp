// Tests of the multi-client debug server: protocol golden frames, structured
// vs CLI equivalence, concurrent clients, malformed/oversized frame
// rejection, disconnect handling, and the paper-§VI transcript driven over a
// real socket.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "dfdbg/common/json.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/dbgcli/render.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/server/protocol.hpp"
#include "dfdbg/server/server.hpp"

namespace dfdbg::server {
namespace {

using h264::H264App;
using h264::H264AppConfig;

H264AppConfig small_config() {
  H264AppConfig cfg;
  cfg.params.width = 32;
  cfg.params.height = 32;
  cfg.params.frame_count = 1;
  return cfg;
}

/// In-process rig: the whole protocol minus the socket (handle_frame).
struct Rig {
  std::unique_ptr<H264App> app;
  std::unique_ptr<dbg::Session> session;
  std::unique_ptr<DebugServer> server;

  explicit Rig(ServerConfig scfg = {}, H264AppConfig cfg = small_config()) {
    auto built = H264App::build(cfg);
    EXPECT_TRUE(built.ok()) << built.status().message();
    app = std::move(*built);
    session = std::make_unique<dbg::Session>(app->app());
    session->attach();
    app->start();
    server = std::make_unique<DebugServer>(*session, scfg);
  }

  /// Parses a response frame (must be valid JSON).
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

  /// handle_frame + parse; EXPECTs an "error" member and returns its code.
  std::int64_t error_code(const std::string& frame) {
    JsonValue doc = parse(server->handle_frame(frame));
    const JsonValue* e = doc.find("error");
    EXPECT_NE(e, nullptr) << "not an error frame: " << doc.dump();
    if (e == nullptr) return 0;
    const JsonValue* code = e->find("code");
    return code != nullptr ? code->as_i64() : 0;
  }
};

// --- protocol basics (in-process) -------------------------------------------

TEST(ServerProtocol, PingAndCapabilities) {
  Rig rig;
  JsonValue pong = rig.result(R"({"jsonrpc":"2.0","id":1,"method":"ping"})");
  EXPECT_TRUE(pong.bool_or("pong"));
  JsonValue caps = rig.result(R"({"jsonrpc":"2.0","id":2,"method":"capabilities"})");
  const JsonValue* methods = caps.find("methods");
  ASSERT_NE(methods, nullptr);
  EXPECT_GE(methods->size(), 20u);
  EXPECT_TRUE(caps.bool_or("exec"));
  // Subscribable streams are advertised so clients need not probe.
  const JsonValue* streams = caps.find("streams");
  ASSERT_NE(streams, nullptr);
  bool has_shard_rounds = false;
  for (std::size_t i = 0; i < streams->size(); ++i)
    if (streams->at(i).as_string() == "shard_rounds") has_shard_rounds = true;
  EXPECT_TRUE(has_shard_rounds) << caps.dump();
}

TEST(ServerProtocol, InfoStatsPromFormat) {
  Rig rig;
  rig.server->handle_frame(R"({"id":1,"method":"run"})");
  JsonValue res =
      rig.result(R"({"id":2,"method":"info_stats","params":{"format":"prom"}})");
  EXPECT_EQ(res.str_or("format"), "prom");
  std::string body = std::string(res.str_or("body"));
  EXPECT_NE(body.find("# TYPE dfdbg_sim_dispatch counter"), std::string::npos) << body;
  EXPECT_NE(body.find("dfdbg_link_push "), std::string::npos);
  // Default (no format) stays the JSON snapshot shape.
  JsonValue js = rig.result(R"({"id":3,"method":"info_stats"})");
  EXPECT_NE(js.find("counters"), nullptr);
}

TEST(ServerProtocol, InfoShardsReportsBackendAndWorkers) {
  Rig rig;
  JsonValue res = rig.result(R"({"id":1,"method":"info_shards"})");
  EXPECT_NE(res.find("backend"), nullptr) << res.dump();
  EXPECT_NE(res.find("workers"), nullptr);
  EXPECT_NE(res.find("shards"), nullptr);
  EXPECT_NE(res.find("rounds"), nullptr);
}

TEST(ServerProtocol, IdIsEchoedVerbatim) {
  Rig rig;
  std::string resp = rig.server->handle_frame(R"({"id":"abc-7","method":"ping"})");
  EXPECT_NE(resp.find("\"id\":\"abc-7\""), std::string::npos);
  resp = rig.server->handle_frame(R"({"id":42,"method":"ping"})");
  EXPECT_NE(resp.find("\"id\":42"), std::string::npos);
  // No id -> null (notifications still get a response on this transport).
  resp = rig.server->handle_frame(R"({"method":"ping"})");
  EXPECT_NE(resp.find("\"id\":null"), std::string::npos);
}

TEST(ServerProtocol, ErrorCodeMapping) {
  Rig rig;
  EXPECT_EQ(rig.error_code("this is not json"), kErrParse);
  EXPECT_EQ(rig.error_code("[1,2,3]"), kErrInvalidRequest);
  EXPECT_EQ(rig.error_code(R"({"id":1})"), kErrInvalidRequest);
  EXPECT_EQ(rig.error_code(R"({"id":1,"method":"no_such_method"})"), kErrMethodNotFound);
  EXPECT_EQ(rig.error_code(R"({"id":1,"method":"info_filter"})"), kErrInvalidParams);
  EXPECT_EQ(rig.error_code(R"({"id":1,"method":"info_filter","params":{"name":"nope"}})"),
            kErrNotFound);
  EXPECT_EQ(rig.error_code(R"({"id":1,"method":"inject","params":{"iface":"x::y","value":"1"}})"),
            kErrNotFound);
}

// `inject`/`replace` payloads are read whole: trailing characters or a
// malformed struct field are invalid params, and nothing is altered.
TEST(ServerProtocol, MalformedTokenPayloadsAreInvalidParams) {
  Rig rig;
  EXPECT_EQ(rig.error_code(
                R"({"id":1,"method":"inject","params":{"iface":"pipe::MbType_in","value":"5x"}})"),
            kErrInvalidParams);
  EXPECT_EQ(rig.error_code(R"({"id":2,"method":"inject","params":{"iface":"pipe::Red2PipeCbMB_in","value":"Addr=zz"}})"),
            kErrInvalidParams);
  EXPECT_EQ(rig.app->app().link_by_iface("pipe::MbType_in")->occupancy(), 0u);
  EXPECT_EQ(rig.app->app().link_by_iface("pipe::Red2PipeCbMB_in")->occupancy(), 0u);
  rig.result(R"({"id":3,"method":"inject","params":{"iface":"pipe::MbType_in","value":"7"}})");
  EXPECT_EQ(rig.error_code(R"({"id":4,"method":"replace","params":{"iface":"pipe::MbType_in","slot":0,"value":"0x"}})"),
            kErrInvalidParams);
  rig.result(R"({"id":5,"method":"replace","params":{"iface":"pipe::MbType_in","slot":0,"value":"-2"}})");
  EXPECT_EQ(rig.app->app().link_by_iface("pipe::MbType_in")->peek(0).as_u64(), 0xfffeu);
}

// A method name is client input: unknown names are rejected and counted as
// errors without minting a `server.req.<name>` instrument each, so a client
// cannot grow the registry (or its cell slots) without bound.
TEST(ServerProtocol, UnknownMethodsCreateNoInstruments) {
  Rig rig;
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t errors = reg.counter("server.errors").value();
  const std::uint64_t pings = reg.counter("server.req.ping").value();
  const std::size_t before = reg.size();
  for (int i = 0; i < 10000; ++i)
    EXPECT_EQ(rig.error_code(strformat(R"({"id":%d,"method":"bogus_%05d"})", i, i)),
              kErrMethodNotFound);
  EXPECT_EQ(reg.size(), before);
  EXPECT_EQ(reg.counter("server.errors").value(), errors + 10000);
  // Known methods still count under their own name.
  rig.result(R"({"id":1,"method":"ping"})");
  EXPECT_EQ(reg.size(), before);
  EXPECT_EQ(reg.counter("server.req.ping").value(), pings + 1);
}

TEST(ServerProtocol, ErrorFramesCarryStableCodeString) {
  Rig rig;
  std::string resp =
      rig.server->handle_frame(R"({"id":1,"method":"info_filter","params":{"name":"nope"}})");
  EXPECT_NE(resp.find("\"data\":{\"err\":\"not-found\"}"), std::string::npos) << resp;
}

// --- golden protocol transcript ---------------------------------------------

/// Pins the process backend for one test. The golden transcript embeds the
/// live backend/workers fields from `capabilities` and `info_sched`, so it is
/// compared under the fibers backend regardless of DFDBG_PROCESS_BACKEND
/// (the check_build.sh sweep runs this binary under all three).
struct FibersBackendGuard {
  sim::ProcessBackend prev = sim::default_process_backend();
  FibersBackendGuard() { sim::set_default_process_backend(sim::ProcessBackend::kFibers); }
  ~FibersBackendGuard() { sim::set_default_process_backend(prev); }
};

/// Deterministic pre-run request sequence: every verb's framing pinned
/// byte-for-byte. Run with DFDBG_REGEN_GOLDEN=1 to regenerate after an
/// intentional protocol change (document it in docs/PROTOCOL.md!).
TEST(ServerProtocol, GoldenTranscript) {
  FibersBackendGuard backend_guard;
  Rig rig;
  const char* requests[] = {
      R"({"jsonrpc":"2.0","id":1,"method":"ping"})",
      R"({"jsonrpc":"2.0","id":2,"method":"capabilities"})",
      R"(not json at all)",
      R"(["still","not","a","request"])",
      R"({"jsonrpc":"2.0","id":3})",
      R"({"jsonrpc":"2.0","id":4,"method":"bogus"})",
      R"({"jsonrpc":"2.0","id":5,"method":"info_filter"})",
      R"({"jsonrpc":"2.0","id":6,"method":"info_filter","params":{"name":"pipe"}})",
      R"({"jsonrpc":"2.0","id":7,"method":"info_sched","params":{"module":"pred"}})",
      R"({"jsonrpc":"2.0","id":8,"method":"info_links"})",
      R"({"jsonrpc":"2.0","id":9,"method":"whence","params":{"iface":"ipred::Pipe_in"}})",
      R"({"jsonrpc":"2.0","id":10,"method":"catch_work","params":{"filter":"pipe"}})",
      R"({"jsonrpc":"2.0","id":11,"method":"breakpoints"})",
      R"({"jsonrpc":"2.0","id":12,"method":"enable_breakpoint","params":{"id":0,"enabled":false}})",
      R"({"jsonrpc":"2.0","id":13,"method":"delete_breakpoint","params":{"id":0}})",
      R"({"jsonrpc":"2.0","id":14,"method":"delete_breakpoint","params":{"id":0}})",
      R"({"jsonrpc":"2.0","id":15,"method":"link_tokens","params":{"iface":"ipred::Pipe_in"}})",
      R"({"jsonrpc":"2.0","id":16,"method":"info_shards"})",
  };
  std::string transcript;
  for (const char* req : requests) {
    transcript += "--> ";
    transcript += req;
    transcript += "\n<-- ";
    transcript += rig.server->handle_frame(req);
    transcript += "\n";
  }

  std::string golden_path = std::string(DFDBG_SOURCE_DIR) + "/tests/golden/server_protocol.txt";
  if (std::getenv("DFDBG_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << transcript;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run with DFDBG_REGEN_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(transcript, buf.str())
      << "wire protocol diverged from tests/golden/server_protocol.txt; if "
         "intentional, regenerate with DFDBG_REGEN_GOLDEN=1 and update docs/PROTOCOL.md";
}

/// The request lines of a golden transcript.
std::vector<std::string> golden_requests(const char* name) {
  std::ifstream in(std::string(DFDBG_SOURCE_DIR) + "/tests/golden/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("--> ", 0) == 0) out.push_back(line.substr(4));
  return out;
}

/// One sample of each JSON type a param can be given.
struct TypedSample {
  const char* json;
  bool (*is)(const JsonValue&);
};
const TypedSample kSamples[] = {
    {R"("1")", [](const JsonValue& v) { return v.is_string(); }},
    {"1", [](const JsonValue& v) { return v.is_unsigned(); }},
    {"-1", [](const JsonValue& v) { return v.is_number() && v.as_i64() < 0; }},
    {"1.5", [](const JsonValue& v) { return v.is_number() && !v.is_unsigned() && v.as_i64() >= 0; }},
    {"false", [](const JsonValue& v) { return v.is_bool(); }},
    {"null", [](const JsonValue& v) { return v.is_null(); }},
    {"[1]", [](const JsonValue& v) { return v.is_array(); }},
    {R"({"a":1})", [](const JsonValue& v) { return v.is_object(); }},
};

// Every param of every golden request, re-sent as each other JSON type, is
// refused with -32602 and changes nothing; so is a `params` that is not an
// object. Read as a default or a magnitude instead, `"id":"1"` or `"id":-1`
// would delete the wrong breakpoint.
TEST(ServerProtocol, IllTypedParamsAreRefused) {
  Rig rig;
  ASSERT_TRUE(rig.session->catch_work("pipe").ok());  // breakpoint 0
  ASSERT_TRUE(rig.session->catch_work("ipred").ok());  // breakpoint 1
  const std::string list = R"({"id":0,"method":"breakpoints"})";
  const std::string before = rig.server->handle_frame(list);
  int sent = 0;
  for (const std::string& request : golden_requests("server_protocol.txt")) {
    auto doc = JsonValue::parse(request);
    if (!doc.ok() || !doc->is_object() || doc->find("params") == nullptr) continue;
    const JsonValue& params = *doc->find("params");
    auto frame = [&](const std::string& params_json) {
      return R"({"jsonrpc":"2.0","id":7,"method":)" + json_quote(doc->str_or("method")) +
             R"(,"params":)" + params_json + "}";
    };
    for (std::size_t k = 0; k < params.size(); ++k) {
      for (const TypedSample& sample : kSamples) {
        if (sample.is(params.at(k))) continue;
        JsonWriter w;
        w.begin_object();
        for (std::size_t i = 0; i < params.size(); ++i)
          w.key(params.key_at(i)).raw(i == k ? sample.json : params.at(i).dump());
        const std::string mutated = frame(w.end_object().take());
        EXPECT_EQ(rig.error_code(mutated), kErrInvalidParams) << mutated;
        EXPECT_EQ(rig.server->handle_frame(list), before) << "changed by " << mutated;
        ++sent;
      }
    }
    for (const char* not_an_object : {"[]", R"("x")", "1", "null"})
      EXPECT_EQ(rig.error_code(frame(not_an_object)), kErrInvalidParams) << request;
  }
  EXPECT_GE(sent, 50);
  // Breakpoint ids are 32-bit: 2^32 is no id, not breakpoint 0.
  EXPECT_EQ(rig.error_code(R"({"id":8,"method":"delete_breakpoint","params":{"id":4294967296}})"),
            kErrInvalidParams);
  EXPECT_EQ(rig.server->handle_frame(list), before);
}

// The method table is the protocol's catalogue: docs/PROTOCOL.md names every
// method and stream `capabilities` advertises.
TEST(ServerProtocol, ProtocolDocNamesEveryMethodAndStream) {
  Rig rig;
  std::ifstream in(std::string(DFDBG_SOURCE_DIR) + "/docs/PROTOCOL.md");
  ASSERT_TRUE(in.good());
  std::stringstream doc;
  doc << in.rdbuf();
  JsonValue caps = rig.result(R"({"id":1,"method":"capabilities"})");
  for (const char* list : {"methods", "streams"}) {
    const JsonValue* names = caps.find(list);
    ASSERT_NE(names, nullptr);
    for (std::size_t i = 0; i < names->size(); ++i)
      EXPECT_NE(doc.str().find("`" + names->at(i).as_string() + "`"), std::string::npos)
          << names->at(i).as_string() << " is not in docs/PROTOCOL.md";
  }
}

// --- structured results vs CLI text: two views over one API -----------------

TEST(ServerEquivalence, StructuredMatchesCliOnH264Session) {
  Rig rig;
  // Drive the session to an interesting paused state (§VI-D).
  ASSERT_TRUE(rig.session->catch_tokens("pipe", {{"MbType_in", 3}}).ok());
  ASSERT_EQ(rig.session->run().result, sim::RunResult::kStopped);

  // info_links: JSON rows == structured view == CLI text, all three aligned.
  JsonValue links = rig.result(R"({"id":1,"method":"info_links"})");
  dbg::LinkView view = rig.session->links_view();
  const JsonValue* rows = links.find("links");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), view.links.size());
  std::string cli_text = cli::render_text(view);
  for (std::size_t i = 0; i < rows->size(); ++i) {
    const JsonValue& row = rows->at(i);
    EXPECT_EQ(row.str_or("name"), view.links[i].name);
    EXPECT_EQ(row.u64_or("occupancy"), view.links[i].occupancy);
    EXPECT_EQ(row.u64_or("pushes"), view.links[i].pushes);
    EXPECT_NE(cli_text.find(view.links[i].name), std::string::npos);
  }

  // filter_view: same fields through JSON and through the deprecated shim.
  JsonValue fv = rig.result(R"({"id":2,"method":"info_filter","params":{"name":"pipe"}})");
  auto filter = rig.session->filter_view("pipe");
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(fv.str_or("name"), filter->name);
  EXPECT_EQ(fv.str_or("state"), filter->state);
  EXPECT_EQ(fv.u64_or("firings"), filter->firings);
  EXPECT_EQ(cli::render_or_error(rig.session->filter_view("pipe")), cli::render_text(*filter));

  // last_token: hop count identical between JSON and text renderings.
  JsonValue tok = rig.result(R"({"id":3,"method":"info_last_token","params":{"filter":"pipe"}})");
  auto tview = rig.session->last_token_view("pipe");
  ASSERT_TRUE(tview.ok()) << tview.status().message();
  const JsonValue* hops = tok.find("hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(hops->size(), tview->hops.size());
  EXPECT_GE(hops->size(), 1u);

  // Errors too: one Status, two renderings.
  auto missing = rig.session->filter_view("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(cli::render_or_error(rig.session->filter_view("nope")),
            "<" + missing.status().message() + ">");
  EXPECT_EQ(rig.error_code(R"({"id":4,"method":"info_filter","params":{"name":"nope"}})"),
            kErrNotFound);
}

TEST(ServerEquivalence, ExecVerbMatchesInterpreterOutput) {
  Rig rig;
  JsonValue r = rig.result(R"({"id":1,"method":"exec","params":{"line":"info links"}})");
  EXPECT_TRUE(r.bool_or("ok"));
  EXPECT_EQ(r.str_or("output"), cli::render_text(rig.session->links_view()));
  // A failing CLI line surfaces ok=false plus the typed error string.
  r = rig.result(R"({"id":2,"method":"exec","params":{"line":"bogus"}})");
  EXPECT_FALSE(r.bool_or("ok"));
  EXPECT_EQ(r.str_or("err"), "invalid-argument");
}

TEST(ServerEquivalence, ExecCanBeDisabled) {
  ServerConfig cfg;
  cfg.allow_exec = false;
  Rig rig(cfg);
  EXPECT_EQ(rig.error_code(R"({"id":1,"method":"exec","params":{"line":"info links"}})"),
            kErrFailedPrecondition);
  // Structured verbs keep working.
  JsonValue pong = rig.result(R"({"id":2,"method":"ping"})");
  EXPECT_TRUE(pong.bool_or("pong"));
}

// --- socket plumbing ---------------------------------------------------------

/// Minimal blocking test client.
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

  bool connect_unix(const std::string& path) {
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
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

  /// Reads one '\n'-terminated frame; empty string on EOF/error.
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

  std::string request(const std::string& frame) {
    if (!send_line(frame)) return "";
    return read_line();
  }
};

/// Runs a full rig + server on a dedicated thread (the simulator's fiber
/// backend requires build/run/serve to share one thread) and hands the port
/// back. `setup` runs against the Session before serving starts.
struct ServerThread {
  std::thread thread;
  DebugServer* server = nullptr;  ///< valid until join() returns
  int port = 0;

  explicit ServerThread(std::function<void(dbg::Session&)> setup = nullptr,
                        ServerConfig scfg = {}) {
    std::promise<int> ready;
    thread = std::thread([this, setup = std::move(setup), scfg, &ready] {
      Rig rig(scfg);
      if (setup) setup(*rig.session);
      auto p = rig.server->listen_tcp();
      EXPECT_TRUE(p.ok()) << p.status().message();
      if (!p.ok()) {
        ready.set_value(0);
        return;
      }
      server = rig.server.get();
      ready.set_value(*p);
      EXPECT_TRUE(rig.server->serve().ok());
    });
    port = ready.get_future().get();
    EXPECT_NE(port, 0);
  }

  ~ServerThread() {
    if (thread.joinable()) {
      server->request_shutdown();
      thread.join();
    }
  }
};

TEST(ServerSocket, EightConcurrentClientsSeeConsistentState) {
  // One paused session (§VI catchpoint hit), eight clients hammering it.
  ServerThread st([](dbg::Session& s) {
    ASSERT_TRUE(s.catch_work("pipe").ok());
    ASSERT_EQ(s.run().result, sim::RunResult::kStopped);
  });

  constexpr int kClients = 8;
  constexpr int kRounds = 16;
  std::vector<std::string> links_responses(kClients);
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> workers;
  workers.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      TestClient tc;
      if (!tc.connect_tcp(st.port)) {
        failures[c] = 1000;
        return;
      }
      for (int r = 0; r < kRounds; ++r) {
        std::string id = std::to_string(c * 1000 + r);
        std::string resp =
            tc.request(R"({"id":)" + id + R"(,"method":"info_filter","params":{"name":"pipe"}})");
        auto doc = JsonValue::parse(resp);
        if (!doc.ok() || !doc->is_object() || doc->find("result") == nullptr ||
            doc->find("id")->as_i64() != c * 1000 + r)
          ++failures[c];
      }
      // Every client must read the same serialized world state.
      links_responses[c] = tc.request(R"({"id":1,"method":"info_links"})");
    });
  }
  for (auto& w : workers) w.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << "client " << c;
  for (int c = 1; c < kClients; ++c) EXPECT_EQ(links_responses[c], links_responses[0]);
  auto doc = JsonValue::parse(links_responses[0]);
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->find("result"), nullptr);
}

TEST(ServerSocket, MalformedAndOversizedFramesAreRejected) {
  ServerConfig scfg;
  scfg.max_frame_bytes = 512;
  ServerThread st(nullptr, scfg);

  {
    TestClient tc;
    ASSERT_TRUE(tc.connect_tcp(st.port));
    std::string resp = tc.request("garbage garbage garbage");
    EXPECT_NE(resp.find("-32700"), std::string::npos) << resp;
    resp = tc.request("12345");
    EXPECT_NE(resp.find("-32600"), std::string::npos) << resp;
    // The connection survives malformed frames...
    resp = tc.request(R"({"id":1,"method":"ping"})");
    EXPECT_NE(resp.find("\"pong\":true"), std::string::npos) << resp;
  }
  {
    // ...but an oversized frame gets an error and the socket closed.
    TestClient tc;
    ASSERT_TRUE(tc.connect_tcp(st.port));
    std::string big(2048, 'x');
    std::string resp = tc.request(big);
    EXPECT_NE(resp.find("frame too large"), std::string::npos) << resp;
    EXPECT_EQ(tc.read_line(), "");  // EOF: server closed after flushing
  }
  // The server is still healthy for fresh clients.
  TestClient tc;
  ASSERT_TRUE(tc.connect_tcp(st.port));
  EXPECT_NE(tc.request(R"({"id":2,"method":"ping"})").find("pong"), std::string::npos);
}

TEST(ServerSocket, CleanDisconnectMidRunKeepsServing) {
  ServerThread st([](dbg::Session& s) { ASSERT_TRUE(s.catch_work("ipf").ok()); });
  {
    // Client A requests a run (which takes real work) and vanishes without
    // reading the response: the server must drop it without disturbing the
    // session or other clients.
    TestClient tc;
    ASSERT_TRUE(tc.connect_tcp(st.port));
    ASSERT_TRUE(tc.send_line(R"({"id":1,"method":"run"})"));
  }
  TestClient tc;
  ASSERT_TRUE(tc.connect_tcp(st.port));
  // The run executed (the catchpoint was hit) even though nobody read the
  // result frame. No ordering guarantee between the two sockets, so poll
  // briefly until the dropped client's request has been serviced.
  std::uint64_t hits = 0;
  for (int attempt = 0; attempt < 200 && hits == 0; ++attempt) {
    std::string resp = tc.request(R"({"id":2,"method":"breakpoints"})");
    auto doc = JsonValue::parse(resp);
    ASSERT_TRUE(doc.ok()) << resp;
    const JsonValue* result = doc->find("result");
    ASSERT_NE(result, nullptr) << resp;
    const JsonValue* bps = result->find("breakpoints");
    ASSERT_NE(bps, nullptr);
    ASSERT_EQ(bps->size(), 1u);
    hits = bps->at(0).u64_or("hits");
    if (hits == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(hits, 1u);
  EXPECT_NE(tc.request(R"({"id":3,"method":"ping"})").find("pong"), std::string::npos);
}

TEST(ServerSocket, ShutdownVerbStopsTheServer) {
  ServerThread st;
  TestClient tc;
  ASSERT_TRUE(tc.connect_tcp(st.port));
  std::string resp = tc.request(R"({"id":1,"method":"shutdown"})");
  EXPECT_NE(resp.find("\"shutdown\":true"), std::string::npos) << resp;
  st.thread.join();  // serve() returned; dtor sees non-joinable thread
}

TEST(ServerSocket, UnixDomainSocketSmoke) {
  std::string path = testing::TempDir() + "dfdbg_test.sock";
  std::promise<bool> ready;
  DebugServer* server = nullptr;
  std::thread thread([&] {
    Rig rig;
    Status s = rig.server->listen_unix(path);
    ASSERT_TRUE(s.ok()) << s.message();
    server = rig.server.get();
    ready.set_value(true);
    EXPECT_TRUE(rig.server->serve().ok());
  });
  ready.get_future().get();
  TestClient tc;
  ASSERT_TRUE(tc.connect_unix(path));
  EXPECT_NE(tc.request(R"({"id":1,"method":"ping"})").find("pong"), std::string::npos);
  server->request_shutdown();
  thread.join();
}

// --- the paper-§VI transcript over the wire ---------------------------------

TEST(ServerSocket, SectionSixTranscriptOverSocket) {
  ServerThread st;
  TestClient tc;
  ASSERT_TRUE(tc.connect_tcp(st.port));

  // (gdb) filter pipe catch MbType_in=3     [catchpoint]
  std::string resp = tc.request(
      R"({"id":1,"method":"catch_tokens","params":{"filter":"pipe","counts":{"MbType_in":3}}})");
  auto doc = JsonValue::parse(resp);
  ASSERT_TRUE(doc.ok()) << resp;
  const JsonValue* result = doc->find("result");
  ASSERT_NE(result, nullptr) << resp;
  std::uint64_t bp = result->u64_or("breakpoint", 999);
  EXPECT_NE(bp, 999u);

  // (gdb) run                                [stop]
  resp = tc.request(R"({"id":2,"method":"run"})");
  doc = JsonValue::parse(resp);
  ASSERT_TRUE(doc.ok()) << resp;
  result = doc->find("result");
  ASSERT_NE(result, nullptr) << resp;
  EXPECT_EQ(result->str_or("result"), "stopped");
  const JsonValue* stops = result->find("stops");
  ASSERT_NE(stops, nullptr);
  ASSERT_GE(stops->size(), 1u);
  EXPECT_EQ(stops->at(0).str_or("actor"), "pipe");

  // (gdb) filter pipe info last_token        [provenance]
  resp = tc.request(R"({"id":3,"method":"info_last_token","params":{"filter":"pipe"}})");
  doc = JsonValue::parse(resp);
  ASSERT_TRUE(doc.ok()) << resp;
  result = doc->find("result");
  ASSERT_NE(result, nullptr) << resp;
  const JsonValue* hops = result->find("hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_GE(hops->size(), 1u);

  // (gdb) tok insert pipe::MbType_in 7       [alter the execution]
  resp = tc.request(
      R"({"id":4,"method":"inject","params":{"iface":"pipe::MbType_in","value":"7"}})");
  doc = JsonValue::parse(resp);
  ASSERT_TRUE(doc.ok()) << resp;
  result = doc->find("result");
  ASSERT_NE(result, nullptr) << resp;
  EXPECT_TRUE(result->bool_or("ok"));

  // The injected token is visible — and flagged — in the link view.
  resp = tc.request(R"({"id":5,"method":"link_tokens","params":{"iface":"pipe::MbType_in"}})");
  doc = JsonValue::parse(resp);
  ASSERT_TRUE(doc.ok()) << resp;
  result = doc->find("result");
  ASSERT_NE(result, nullptr) << resp;
  const JsonValue* tokens = result->find("tokens");
  ASSERT_NE(tokens, nullptr);
  ASSERT_GE(tokens->size(), 1u);
  bool saw_injected = false;
  for (std::size_t i = 0; i < tokens->size(); ++i)
    if (tokens->at(i).bool_or("injected")) saw_injected = true;
  EXPECT_TRUE(saw_injected);
}

}  // namespace
}  // namespace dfdbg::server
