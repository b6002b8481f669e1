// rpc_session: a fleet debug server on its own thread (1 shard, the h264 rig)
// and one client thread in a closed loop over loopback TCP. The session is
// parked at its first stop; a seeded mix of ~80% reads and ~20% writes runs
// against it. Writes come in self-cancelling pairs, so session state and
// response sizes stay the same for the whole run. A second connection
// subscribes to the journal and run-event streams and is drained between
// requests; its journal cursors must be contiguous.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "dfdbg/common/json.hpp"
#include "dfdbg/dbgcli/cli.hpp"
#include "dfdbg/debug/session.hpp"
#include "dfdbg/debug/views.hpp"
#include "dfdbg/h264/session_rig.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/server/server.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

// The parked session: a small seeded stream, stopped at pipe's first WORK.
constexpr int kWidth = 32;
constexpr int kHeight = 32;
constexpr int kFrames = 2;
/// The link the write pairs alter, and the queue the reads inspect.
constexpr const char* kAlterIface = "vld::bits_in";
constexpr const char* kWhenceIface = "pipe::coeff_in";

/// Newline-framed JSON-RPC over a blocking TCP socket.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connect_tcp(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }

  bool send_line(const std::string& frame) {
    std::string wire = frame + "\n";
    std::size_t off = 0;
    while (off < wire.size()) {
      ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Blocks until one full line arrives; false on EOF or error.
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return true;
      }
      scan_ = buf_.size();
      char tmp[65536];
      ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  /// Reads whatever is available within `timeout_ms` and returns the
  /// complete lines.
  std::vector<std::string> drain(int timeout_ms) {
    std::vector<std::string> lines;
    pollfd p{fd_, POLLIN, 0};
    while (::poll(&p, 1, timeout_ms) > 0 && (p.revents & POLLIN) != 0) {
      char tmp[65536];
      ssize_t n = ::recv(fd_, tmp, sizeof tmp, MSG_DONTWAIT);
      if (n <= 0) break;
      buf_.append(tmp, static_cast<std::size_t>(n));
      timeout_ms = 0;
    }
    std::size_t start = 0;
    for (std::size_t nl = buf_.find('\n'); nl != std::string::npos; nl = buf_.find('\n', start)) {
      lines.emplace_back(buf_, start, nl - start);
      start = nl + 1;
    }
    buf_.erase(0, start);
    scan_ = 0;
    return lines;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t scan_ = 0;
};

/// Unsigned field `"key":N` of a flat JSON frame, or `dflt`. The checks scan
/// frames by hand so they do not depend on the parser under test.
std::uint64_t field_u64(const std::string& frame, const char* key, std::uint64_t dflt = ~0ULL) {
  const std::string k = std::string("\"") + key + "\":";
  const std::size_t at = frame.find(k);
  if (at == std::string::npos) return dflt;
  return std::strtoull(frame.c_str() + at + k.size(), nullptr, 10);
}

std::string frame(std::uint64_t id, const char* method, const std::string& params) {
  return "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(id) + ",\"method\":\"" + method +
         "\",\"params\":" + params + "}";
}

bool is_result(const std::string& response, std::uint64_t id) {
  const std::string head = "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(id) + ",\"result\":";
  return response.compare(0, head.size(), head) == 0;
}

/// The verbs of the mix. Reads are single requests; each write is the first
/// half of a pair whose second half undoes it.
enum class Verb : std::uint8_t {
  kInfoLinks, kWhence, kLinkTokens, kInfoFilter, kInfoSched, kBreakpoints,  // reads
  kInject, kReplace, kCatchWork,                                              // write pairs
};
constexpr int kReads = 6;
constexpr int kWrites = 3;

const char* verb_method(Verb v) {
  switch (v) {
    case Verb::kInfoLinks: return "info_links";
    case Verb::kWhence: return "whence";
    case Verb::kLinkTokens: return "link_tokens";
    case Verb::kInfoFilter: return "info_filter";
    case Verb::kInfoSched: return "info_sched";
    case Verb::kBreakpoints: return "breakpoints";
    case Verb::kInject: return "inject";
    case Verb::kReplace: return "replace";
    case Verb::kCatchWork: return "catch_work";
  }
  return "";
}

/// What the parked session looks like on the altered link, learned once
/// after set-up (outside the timed phase).
struct AlterPlan {
  std::string slot0;             ///< payload of the oldest token, restored by replace-back
  std::size_t injected_slot = 0; ///< where `inject` puts its token
};

std::string session_params(std::uint64_t sid, const std::string& rest = "") {
  return "{\"session\":" + std::to_string(sid) + (rest.empty() ? "" : "," + rest) + "}";
}

std::string read_params(Verb v, std::uint64_t sid) {
  switch (v) {
    case Verb::kWhence:
      return session_params(sid, std::string("\"iface\":\"") + kWhenceIface + "\",\"slot\":0");
    case Verb::kLinkTokens:
      return session_params(sid, std::string("\"iface\":\"") + kAlterIface + "\"");
    case Verb::kInfoFilter: return session_params(sid, "\"name\":\"ipred\"");
    case Verb::kInfoSched: return session_params(sid, "\"module\":\"pred\"");
    default: return session_params(sid);
  }
}

/// First and second half of a write pair. The second half of a catch_work
/// pair names the breakpoint the first half returns, so the caller builds it.
std::pair<std::string, std::string> write_pair(Verb v, std::uint64_t sid, const AlterPlan& plan,
                                               std::uint64_t id) {
  const std::string iface = std::string("\"iface\":\"") + kAlterIface + "\"";
  switch (v) {
    case Verb::kInject:
      return {frame(id, "inject", session_params(sid, iface + ",\"value\":\"7\"")),
              frame(id + 1, "remove",
                    session_params(sid, iface + ",\"slot\":" + std::to_string(plan.injected_slot)))};
    case Verb::kReplace:
      return {frame(id, "replace", session_params(sid, iface + ",\"slot\":0,\"value\":\"7\"")),
              frame(id + 1, "replace",
                    session_params(sid, iface + ",\"slot\":0,\"value\":" + json_quote(plan.slot0)))};
    default:
      return {frame(id, "catch_work", session_params(sid, "\"filter\":\"ipred\"")), std::string()};
  }
}

/// The fleet host with its serving thread, the client and the subscriber.
struct Rig {
  dbg::SessionFactory factory;
  std::unique_ptr<server::DebugServer> server;
  std::thread serve_thread;
  LineClient client;
  LineClient sub;
  std::uint64_t sid = 0;
  std::uint64_t next_id = 1;
  std::uint64_t journal_next = 0;  ///< subscriber's expected next cursor
  std::uint64_t deltas = 0;
  std::uint64_t gaps = 0;

  ~Rig() {
    if (server != nullptr) server->request_shutdown();
    if (serve_thread.joinable()) serve_thread.join();
  }

  /// One client round trip; false unless a `result` frame came back.
  bool call(const std::string& method, const std::string& params, std::string& response) {
    const std::uint64_t id = next_id++;
    return client.send_line(frame(id, method.c_str(), params)) && client.read_line(response) &&
           is_result(response, id);
  }

  /// Consumes subscriber frames, checking journal cursor contiguity.
  void absorb(const std::vector<std::string>& lines) {
    for (const std::string& l : lines) {
      if (l.find("\"method\":\"journal.delta\"") == std::string::npos) continue;
      deltas++;
      if (field_u64(l, "from") != journal_next || field_u64(l, "gap") != 0) gaps++;
      journal_next = field_u64(l, "next");
    }
  }
};

/// Set-up, from nothing to ready: serve, connect, create the session, catch
/// pipe's WORK, run to the first stop, subscribe and drain.
std::unique_ptr<Rig> set_up(std::uint64_t seed, WorkloadRun& r) {
  auto rig = std::make_unique<Rig>();
  h264::register_session_rig(rig->factory);
  server::ServerConfig cfg;
  cfg.shards = 1;
  rig->server = std::make_unique<server::DebugServer>(rig->factory, cfg);
  auto port = rig->server->listen_tcp("127.0.0.1", 0);
  r.attempted++;
  if (!port.ok()) {
    r.fail("listen: " + port.status().message());
    return nullptr;
  }
  server::DebugServer* srv = rig->server.get();
  rig->serve_thread = std::thread([srv] { (void)srv->serve(); });
  r.attempted++;
  if (!rig->client.connect_tcp(*port) || !rig->sub.connect_tcp(*port)) {
    r.fail("connect failed");
    return nullptr;
  }
  std::string resp;
  const std::string create = "{\"rig\":\"h264\",\"width\":" + std::to_string(kWidth) +
                             ",\"height\":" + std::to_string(kHeight) +
                             ",\"frames\":" + std::to_string(kFrames) +
                             ",\"seed\":" + std::to_string(seed % 1000000007ULL) + "}";
  r.attempted++;
  if (!rig->call("session_create", create, resp)) {
    r.fail("session_create: " + resp);
    return nullptr;
  }
  const std::size_t at = resp.find("\"session\":{");
  rig->sid = at == std::string::npos ? 0 : field_u64(resp.substr(at + 11), "id", 0);
  const std::string sp = session_params(rig->sid);
  r.attempted += 2;
  if (rig->sid == 0 || !rig->call("catch_work", session_params(rig->sid, "\"filter\":\"pipe\""), resp) ||
      !rig->call("run", sp, resp) || resp.find("\"result\":\"stopped\"") == std::string::npos) {
    r.fail("could not park the session at its first stop: " + resp);
    return nullptr;
  }
  for (const char* stream : {"journal", "run_events"}) {
    r.attempted++;
    const std::uint64_t id = rig->next_id++;
    std::string ack;
    if (!rig->sub.send_line(frame(id, "subscribe",
                                  session_params(rig->sid, std::string("\"stream\":\"") + stream + "\""))) ||
        !rig->sub.read_line(ack) || !is_result(ack, id)) {
      r.fail(std::string("subscribe ") + stream + ": " + ack);
      return nullptr;
    }
    if (std::strcmp(stream, "journal") == 0) rig->journal_next = field_u64(ack, "cursor", 0);
  }
  rig->absorb(rig->sub.drain(0));
  return rig;
}

/// Learns the altered link's oldest payload and the slot `inject` fills,
/// with one probe pair that leaves the link as it was.
bool plan_alterations(Rig& rig, AlterPlan& plan, WorkloadRun& r) {
  std::string before;
  std::string after;
  std::string tmp;
  const std::string tokens = read_params(Verb::kLinkTokens, rig.sid);
  r.attempted += 4;
  if (!rig.call("link_tokens", tokens, before)) return false;
  auto parsed = JsonValue::parse(before);
  if (!parsed.ok()) return false;
  const JsonValue* result = parsed->find("result");
  const JsonValue* rows = result != nullptr ? result->find("tokens") : nullptr;
  if (rows == nullptr || rows->size() == 0) return false;
  // Payloads render as "(U8) 32"; the value grammar wants the literal.
  plan.slot0 = rows->at(0).str_or("value");
  if (const std::size_t sp = plan.slot0.rfind(' '); sp != std::string::npos)
    plan.slot0 = plan.slot0.substr(sp + 1);
  if (!rig.call("inject", session_params(rig.sid, std::string("\"iface\":\"") + kAlterIface +
                                                      "\",\"value\":\"7\""),
                tmp) ||
      !rig.call("link_tokens", tokens, after))
    return false;
  auto injected = JsonValue::parse(after);
  if (!injected.ok()) return false;
  const JsonValue* rows2 = injected->find("result")->find("tokens");
  bool found = false;
  for (std::size_t i = 0; rows2 != nullptr && i < rows2->size(); ++i)
    if (rows2->at(i).find("injected") != nullptr && rows2->at(i).find("injected")->as_bool()) {
      plan.injected_slot = i;
      found = true;
    }
  if (!found) return false;
  const auto pair = write_pair(Verb::kInject, rig.sid, plan, rig.next_id);
  rig.next_id += 2;
  std::string check;
  r.attempted++;
  return rig.client.send_line(pair.second) && rig.client.read_line(tmp) &&
         tmp.find("\"result\"") != std::string::npos && rig.call("link_tokens", tokens, check) &&
         check.substr(check.find("\"result\"")) == before.substr(before.find("\"result\""));
}

/// Median in-process cost of `fn` over `n` calls, in microseconds.
template <typename F>
double median_us(int n, F&& fn) {
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

}  // namespace

WorkloadRun run_rpc_session(const Options& opt, SpanRecorder* spans) {
  WorkloadRun r;
  // Client and server threads share one CPU: a round trip then hands over
  // locally instead of waking another (virtual) CPU, whose wake-up latency on
  // a shared host swings by 2x from minute to minute and would swamp the
  // server's own cost. The server thread inherits this mask.
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu() >= 0 ? sched_getcpu() : 0, &one);
  sched_setaffinity(0, sizeof one, &one);
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  // Set-up takes milliseconds, so it is repeated for a steady median; the
  // last rig serves the timed phase.
  for (int rep = 0; rep < 15; ++rep) {
    rig.reset();
    const std::uint64_t t0 = now_ns();
    {
      Scope span(spans, "setup", spans != nullptr ? spans->new_op() : 0);
      rig = set_up(opt.seed, r);
    }
    setup_s.push_back(seconds_since(t0));
    if (rig == nullptr) return r;
  }
  AlterPlan plan;
  if (!plan_alterations(*rig, plan, r)) {
    r.fail("could not plan the write pairs on " + std::string(kAlterIface));
    return r;
  }
  rig->absorb(rig->sub.drain(0));

  std::mt19937_64 prng(opt.seed);
  Reservoir query_us;
  Reservoir mutate_us;
  Reservoir all_us;
  std::uint64_t requests = 0;
  double rtt_s = 0.0;
  double drain_s = 0.0;
  const std::uint64_t req0 = counter_value("server.requests");
  const std::uint64_t err0 = counter_value("server.errors");
  const std::uint64_t bout0 = counter_value("server.bytes_out");
  const std::uint64_t svc0 = histogram_sum("server.request_ns");
  const std::uint64_t notif0 = counter_value("server.sub.notifications");
  const std::uint64_t drop0 = counter_value("server.sub.dropped");
  const std::uint64_t jrec0 = counter_value("journal.recorded");
  const std::uint64_t jdrop0 = counter_value("journal.dropped");
  const std::uint64_t disp0 = counter_value("sim.dispatch");
  const std::uint64_t ctx0 = counter_value("sim.context_switch");
  const std::uint64_t hook0 = counter_value("hook.invocation");
  const std::uint64_t hook_ns0 = histogram_sum("hook.dispatch_ns");

  std::string resp;
  // One timed round trip; records the latency under `bucket`.
  auto round_trip = [&](const std::string& f, std::uint64_t id, const char* method,
                        Reservoir& bucket, std::uint64_t op) {
    const std::string span_name = spans != nullptr ? std::string("rpc.") + method : std::string();
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    {
      Scope span(spans, span_name, op);
      ok = rig->client.send_line(f) && rig->client.read_line(resp);
    }
    const std::uint64_t dt = now_ns() - t0;
    bucket.add(static_cast<double>(dt) / 1e3);
    all_us.add(static_cast<double>(dt) / 1e3);
    rtt_s += static_cast<double>(dt) / 1e9;
    requests++;
    r.attempted++;
    if (!ok || !is_result(resp, id)) r.fail(std::string(method) + ": " + resp.substr(0, 200));
  };

  const std::uint64_t t_phase = now_ns();
  while (seconds_since(t_phase) < opt.seconds) {
    const std::uint64_t op = spans != nullptr ? spans->new_op() : 0;
    Scope step(spans, "client.step", op);  // self time: the client's own share
    // 8 of 9 steps are one read; the rest are write pairs, so ~80% of
    // requests are reads.
    const std::uint64_t pick = prng() % (kReads * 9);
    if (pick < static_cast<std::uint64_t>(kReads * 8)) {
      const auto v = static_cast<Verb>(pick % kReads);
      const std::uint64_t id = rig->next_id++;
      round_trip(frame(id, verb_method(v), read_params(v, rig->sid)), id, verb_method(v), query_us, op);
    } else {
      const auto v = static_cast<Verb>(kReads + pick % kWrites);
      const std::uint64_t id = rig->next_id;
      rig->next_id += 2;
      auto [first, second] = write_pair(v, rig->sid, plan, id);
      round_trip(first, id, verb_method(v), mutate_us, op);
      if (v == Verb::kCatchWork) {
        const std::uint64_t bp = field_u64(resp, "breakpoint");
        second = frame(id + 1, "delete_breakpoint",
                       session_params(rig->sid, "\"id\":" + std::to_string(bp)));
      }
      round_trip(second, id + 1, v == Verb::kCatchWork ? "delete_breakpoint" : (v == Verb::kInject ? "remove" : "replace"),
                 mutate_us, op);
    }
    const std::uint64_t td = now_ns();
    {
      Scope span(spans, "rpc.subscriber_drain", op);
      rig->absorb(rig->sub.drain(0));
    }
    drain_s += seconds_since(td);
  }
  r.timed_wall_s = seconds_since(t_phase);
  const double rss_mib = peak_rss_mib();  // before the statistics copy samples

  // Output checks: the subscriber must have seen every journal event, with
  // contiguous cursors.
  r.attempted++;
  std::string list;
  const std::uint64_t list_id = rig->next_id;
  std::uint64_t cursor = 0;
  if (rig->call("session_list", "{}", list)) {
    const std::size_t at = list.find("\"id\":" + std::to_string(rig->sid) + ",");
    cursor = at == std::string::npos ? 0 : field_u64(list.substr(at), "journal_events", 0);
  } else {
    r.fail("session_list " + std::to_string(list_id) + ": " + list);
  }
  const std::uint64_t deadline = now_ns() + 2'000'000'000ULL;
  while (rig->journal_next < cursor && now_ns() < deadline) rig->absorb(rig->sub.drain(50));
  r.attempted++;
  if (rig->gaps != 0 || rig->journal_next != cursor || rig->deltas == 0)
    r.fail("journal stream: " + std::to_string(rig->gaps) + " gap(s), cursor " +
           std::to_string(rig->journal_next) + " of " + std::to_string(cursor) + ", " +
           std::to_string(rig->deltas) + " deltas");

  const double wall = r.timed_wall_s > 0 ? r.timed_wall_s : 1e-9;
  const double rps = static_cast<double>(requests) / wall;
  const Tail all_tail = tail(all_us.kept());
  const Tail q_tail = tail(query_us.kept());
  const Tail m_tail = tail(mutate_us.kept());
  r.work_units = static_cast<double>(requests);
  r.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_per_s", rps, "1/s"},
      {"wait_p50_us", median(all_us.kept()), "us"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
  r.table = {
      {"setup_s", median(setup_s), "s", setup_s.size(), ""},
      {"rpc_per_s", rps, "req/s", requests, ""},
      {"query_p50_us", median(query_us.kept()), "us", query_us.seen(), "read verbs"},
      {"query_p99_us", q_tail.value, "us", query_us.seen(), percentile_label(q_tail)},
      {"mutate_p50_us", median(mutate_us.kept()), "us", mutate_us.seen(), "write verbs"},
      {"mutate_p99_us", m_tail.value, "us", mutate_us.seen(), percentile_label(m_tail)},
      {"request_p50_us", median(all_us.kept()), "us", all_us.seen(), "all client requests"},
      {"request_p99_us", all_tail.value, "us", all_us.seen(), percentile_label(all_tail)},
      {"peak_rss_mib", rss_mib, "MiB", 1, ""},
  };
  if (spans == nullptr) return r;

  // --- traced pass: layer metrics ------------------------------------------
  const std::uint64_t reqs = counter_value("server.requests") - req0;
  const double service_s = static_cast<double>(histogram_sum("server.request_ns") - svc0) / 1e9;
  const std::uint64_t notif = counter_value("server.sub.notifications") - notif0;
  const std::uint64_t dropped = counter_value("server.sub.dropped") - drop0;
  r.layers = {
      {"sim.dispatches", static_cast<double>(counter_value("sim.dispatch") - disp0), "count"},
      {"sim.context_switches", static_cast<double>(counter_value("sim.context_switch") - ctx0), "count"},
      {"sim.hook_invocations", static_cast<double>(counter_value("hook.invocation") - hook0), "count"},
      {"sim.hook_dispatch_s", static_cast<double>(histogram_sum("hook.dispatch_ns") - hook_ns0) / 1e9, "s"},
      {"obs.journal_recorded", static_cast<double>(counter_value("journal.recorded") - jrec0), "count"},
      {"obs.journal_dropped", static_cast<double>(counter_value("journal.dropped") - jdrop0), "count"},
      {"server.requests", static_cast<double>(reqs), "count"},
      {"server.errors", static_cast<double>(counter_value("server.errors") - err0), "count"},
      {"server.service_s", service_s, "s"},
      {"server.bytes_out_per_request",
       reqs > 0 ? static_cast<double>(counter_value("server.bytes_out") - bout0) / static_cast<double>(reqs) : 0.0,
       "bytes"},
      {"server.sub.notifications", static_cast<double>(notif), "count"},
      {"server.sub.dropped", static_cast<double>(dropped), "count"},
      {"server.sub.delivered_ratio",
       notif + dropped > 0 ? static_cast<double>(notif) / static_cast<double>(notif + dropped) : 0.0,
       "ratio"},
  };
  r.parts = {
      {"server request service (server.request_ns)", service_s},
      {"socket + framing (round trip - service)", rtt_s - service_s},
      {"subscriber drain", drain_s},
  };
  const double socket_query_med = median(query_us.kept());
  rig.reset();

  // In-process references on a second, unserved host with the same session:
  // handle_frame without the socket, the Session calls behind each verb, and
  // the JSON parse and encode of the frames and views.
  const std::uint64_t op = spans->new_op();
  Scope ref_span(spans, "ref.in_process", op);
  dbg::SessionFactory factory;
  h264::register_session_rig(factory);
  server::DebugServer host(factory, server::ServerConfig{});
  const std::string create = "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"session_create\",\"params\":{\"rig\":\"h264\",\"width\":" +
                             std::to_string(kWidth) + ",\"height\":" + std::to_string(kHeight) +
                             ",\"frames\":" + std::to_string(kFrames) +
                             ",\"seed\":" + std::to_string(opt.seed % 1000000007ULL) + "}}";
  const std::string created = host.handle_frame(create);
  const std::size_t at = created.find("\"session\":{");
  const std::uint64_t sid = at == std::string::npos ? 0 : field_u64(created.substr(at + 11), "id", 0);
  r.attempted += 2;
  if (sid == 0 ||
      !is_result(host.handle_frame(frame(2, "catch_work", session_params(sid, "\"filter\":\"pipe\""))), 2) ||
      host.handle_frame(frame(3, "run", session_params(sid))).find("\"result\":\"stopped\"") == std::string::npos) {
    r.fail("in-process session did not park: " + created.substr(0, 200));
    return r;
  }
  constexpr int kCalls = 400;
  std::vector<double> handle_q;
  std::vector<double> parse_us;
  for (int v = 0; v < kReads; ++v) {
    const std::string f = frame(10, verb_method(static_cast<Verb>(v)), read_params(static_cast<Verb>(v), sid));
    handle_q.push_back(median_us(kCalls, [&] { (void)host.handle_frame(f); }));
    parse_us.push_back(median_us(kCalls, [&] { (void)JsonValue::parse(f); }));
  }
  std::vector<double> handle_m;
  for (int v = kReads; v < kReads + kWrites; ++v) {
    std::vector<double> us;
    for (int i = 0; i < kCalls; ++i) {
      auto [first, second] = write_pair(static_cast<Verb>(v), sid, plan, 20);
      std::uint64_t t0 = now_ns();
      const std::string out = host.handle_frame(first);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (static_cast<Verb>(v) == Verb::kCatchWork)
        second = frame(21, "delete_breakpoint",
                       session_params(sid, "\"id\":" + std::to_string(field_u64(out, "breakpoint"))));
      t0 = now_ns();
      (void)host.handle_frame(second);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    handle_m.push_back(median(us));
    parse_us.push_back(median_us(kCalls, [&] { (void)JsonValue::parse(write_pair(static_cast<Verb>(v), sid, plan, 20).first); }));
  }

  // Direct Session calls behind the verbs, and to_json of their views.
  std::shared_ptr<server::HostedSession> hs = host.sessions().find(sid);
  dbg::Session& s = *hs->session;
  std::vector<double> view;
  std::vector<double> encode;
  auto encode_us = [&](const auto& v) {
    encode.push_back(median_us(kCalls, [&] {
      JsonWriter w;
      dbg::to_json(w, v);
      (void)w.take();
    }));
  };
  view.push_back(median_us(kCalls, [&] { (void)s.links_view(); }));
  encode_us(s.links_view());
  view.push_back(median_us(kCalls, [&] { (void)s.whence_chain(kWhenceIface, 0); }));
  encode_us(*s.whence_chain(kWhenceIface, 0));
  view.push_back(median_us(kCalls, [&] { (void)s.link_tokens_view(kAlterIface); }));
  encode_us(*s.link_tokens_view(kAlterIface));
  view.push_back(median_us(kCalls, [&] { (void)s.filter_view("ipred"); }));
  encode_us(*s.filter_view("ipred"));
  view.push_back(median_us(kCalls, [&] { (void)s.sched_view("pred"); }));
  encode_us(*s.sched_view("pred"));
  view.push_back(median_us(kCalls, [&] { (void)s.breakpoints(); }));

  const dbg::DLink* dl = s.graph().link_by_iface(kAlterIface);
  pedf::Link* fl = dl != nullptr ? s.app().link_by_id(pedf::LinkId(dl->id)) : nullptr;
  std::vector<double> mutate;
  r.attempted++;
  if (fl == nullptr) {
    r.fail("no framework link behind " + std::string(kAlterIface));
  } else {
    const pedf::Value seven = *cli::Interpreter::parse_value(fl->type(), "7");
    const pedf::Value orig = *cli::Interpreter::parse_value(fl->type(), plan.slot0);
    std::vector<double> us;
    for (int i = 0; i < kCalls; ++i) {
      std::uint64_t t0 = now_ns();
      (void)s.inject_token(kAlterIface, seven);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      t0 = now_ns();
      (void)s.remove_token(kAlterIface, plan.injected_slot);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      t0 = now_ns();
      (void)s.replace_token(kAlterIface, 0, seven);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      t0 = now_ns();
      (void)s.replace_token(kAlterIface, 0, orig);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      t0 = now_ns();
      auto bp = s.catch_work("ipred");
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      t0 = now_ns();
      if (bp.ok()) (void)s.delete_breakpoint(*bp);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    mutate.push_back(median(us));
  }

  const double handle_query = median(handle_q);
  r.layers.push_back({"server.handle_us.query", handle_query, "us"});
  r.layers.push_back({"server.handle_us.mutate", median(handle_m), "us"});
  r.layers.push_back({"server.socket_us", socket_query_med - handle_query, "us"});
  r.layers.push_back({"debug.view_us", median(view), "us"});
  r.layers.push_back({"debug.mutate_us", median(mutate), "us"});
  r.layers.push_back({"common.json_parse_us", median(parse_us), "us"});
  r.layers.push_back({"common.json_encode_us", median(encode), "us"});
  return r;
}

}  // namespace perfbench
