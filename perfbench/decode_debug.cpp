// decode_debug: the paper's §VI session. A seeded H.264 stream decoded under
// a scripted GDB-style session, one user in a closed loop: `continue`, read
// the stop, type one inspection command, and every 16th stop `step_both`.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>

#include "bench.hpp"
#include "dfdbg/dbgcli/cli.hpp"
#include "dfdbg/debug/session.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "stats.hpp"
#include "wide_graph.hpp"

namespace perfbench {
namespace {

/// The benchmark's H.264 configuration: 128x128 px x 16 frames gives about
/// 1100 stops per decode under the script below.
h264::H264AppConfig decode_config(std::uint64_t seed) {
  h264::H264AppConfig cfg;
  cfg.params.width = 128;
  cfg.params.height = 128;
  cfg.params.frame_count = 16;
  cfg.seed = seed;
  return cfg;
}

constexpr std::array<const char*, 3> kArm = {
    "filter pipe catch work",
    "filter ipred catch Pipe_in=1,Hwcfg_in=1",
    "iface hwcfg::pipe_MbType_out record bounded 64",
};

/// Inspection rotation, one command after each stop. Every command succeeds
/// at every stop it lands on: the last-token queries come after ipred's first
/// catch, and `whence` names a link that holds a token (see whence_target).
enum class Query : std::uint8_t { kLinks, kSched, kWhence, kIpredLastToken, kPrintLastToken, kRecorded };
constexpr std::array<Query, 6> kRotation = {Query::kLinks,          Query::kSched,
                                           Query::kWhence,         Query::kIpredLastToken,
                                           Query::kPrintLastToken, Query::kRecorded};
constexpr std::size_t kStepBothEvery = 16;

/// The queue `whence` inspects: the first of these links that holds a token,
/// as the user would pick it from `info links`.
constexpr std::array<const char*, 5> kWhenceIfaces = {
    "pipe::coeff_in", "ipred::Pipe_in", "ipf::pipe_in", "pipe::Red2PipeCbMB_in", "vld::bits_in"};

std::string whence_target(const dbg::Session& s) {
  const dbg::LinkView v = s.links_view();
  for (const char* iface : kWhenceIfaces)
    for (const dbg::LinkRow& row : v.links)
      if (row.occupancy > 0 && row.name.size() > std::strlen(iface) &&
          row.name.compare(row.name.size() - std::strlen(iface), std::string::npos, iface) == 0)
        return iface;
  return {};
}

std::string command_for(Query q, const std::string& whence_iface) {
  switch (q) {
    case Query::kLinks: return "info links";
    case Query::kSched: return "info sched pred";
    case Query::kWhence: return "whence " + whence_iface + " 0";
    case Query::kIpredLastToken: return "filter ipred info last_token";
    case Query::kPrintLastToken: return "print last_token";
    case Query::kRecorded: return "iface hwcfg::pipe_MbType_out print";
  }
  return {};
}

/// The direct Session call behind each rotation command (traced pass only):
/// what the command costs minus parsing and text rendering.
bool direct_view(dbg::Session& s, Query q, const std::string& whence_iface) {
  switch (q) {
    case Query::kLinks: return !s.links_view().links.empty();
    case Query::kSched: return s.sched_view("pred").ok();
    case Query::kWhence: return s.whence_chain(whence_iface, 0).ok();
    case Query::kIpredLastToken: return s.last_token_view("ipred").ok();
    case Query::kPrintLastToken: return s.last_token(s.current_actor()) != nullptr;
    case Query::kRecorded: return !s.print_recorded("hwcfg::pipe_MbType_out").empty();
  }
  return false;
}

bool terminal(dbg::StopKind k) {
  return k == dbg::StopKind::kFinished || k == dbg::StopKind::kDeadlock ||
         k == dbg::StopKind::kTimeLimit;
}

/// One debugged decode: the world, the attached session and the user's CLI.
struct Debugged {
  std::unique_ptr<h264::H264App> app;
  std::unique_ptr<dbg::Session> session;
  std::unique_ptr<cli::Interpreter> gdb;
};

/// Set-up: encode and build the decoder, attach, start, arm the script.
std::unique_ptr<Debugged> set_up(const h264::H264AppConfig& cfg, WorkloadRun& r) {
  auto built = h264::H264App::build(cfg);
  if (!built.ok()) {
    r.fail("h264 build: " + built.status().message());
    return nullptr;
  }
  auto d = std::make_unique<Debugged>();
  d->app = std::move(*built);
  d->session = std::make_unique<dbg::Session>(d->app->app());
  d->session->attach();
  d->app->start();
  d->gdb = std::make_unique<cli::Interpreter>(*d->session);
  for (const char* line : kArm) {
    r.attempted++;
    if (!d->gdb->execute(line).ok()) r.fail(std::string("arm: ") + line);
  }
  d->gdb->console().take();
  return d;
}

/// Stops the script must produce on this stream: one WORK catch of pipe per
/// macroblock, one ipred catch per intra macroblock (ipred only sees intra
/// blocks), and two stops per step_both (after the send, after the receive),
/// plus the terminal stop.
std::uint64_t expected_stops(const h264::H264App& app, std::uint64_t step_boths) {
  std::uint64_t intra = 0;
  for (const h264::MbSyntax& mb : app.syntax())
    if (mb.mode == h264::MbMode::kIntraDC || mb.mode == h264::MbMode::kIntraH ||
        mb.mode == h264::MbMode::kIntraV)
      ++intra;
  return app.syntax().size() + intra + 2 * step_boths + 1;
}

/// Reference runs for the layer split: the same stream with no session, and
/// with a session attached but nothing armed, with obs off or on.
double reference_run(const h264::H264AppConfig& cfg, bool attach, bool obs_on, WorkloadRun& r) {
  obs::set_enabled(obs_on);
  auto built = h264::H264App::build(cfg);
  if (!built.ok()) {
    r.fail("reference build: " + built.status().message());
    return 0.0;
  }
  h264::H264App& app = **built;
  std::unique_ptr<dbg::Session> session;
  if (attach) {
    session = std::make_unique<dbg::Session>(app.app());
    session->attach();
  }
  app.start();
  const std::uint64_t t0 = now_ns();
  if (attach) {
    session->run();
  } else {
    app.kernel().run();
  }
  const double s = seconds_since(t0);
  r.attempted++;
  if (!app.decoded_matches_golden()) r.fail("reference decode differs from golden");
  obs::set_enabled(true);
  return s;
}

}  // namespace

WorkloadRun run_decode_debug(const Options& opt, SpanRecorder* spans) {
  WorkloadRun r;
  const h264::H264AppConfig cfg = decode_config(opt.seed);
  std::vector<double> setup_s;
  Reservoir stop_us;
  Reservoir query_us;
  Reservoir view_us;
  std::uint64_t pushes = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t hooks = 0;
  std::uint64_t stops = 0;
  std::uint64_t decodes = 0;
  double continue_s = 0.0;
  double query_s = 0.0;
  double view_s = 0.0;
  double step_s = 0.0;

  const std::uint64_t ctx0 = counter_value("sim.context_switch");
  const std::uint64_t hook_ns0 = histogram_sum("hook.dispatch_ns");
  const std::uint64_t jrec0 = counter_value("journal.recorded");
  const std::uint64_t jdrop0 = counter_value("journal.dropped");

  while (r.timed_wall_s < opt.seconds || setup_s.size() < 3) {
    const std::uint64_t ts = now_ns();
    std::unique_ptr<Debugged> d;
    {
      Scope span(spans, "setup", spans != nullptr ? spans->new_op() : 0);
      d = set_up(cfg, r);
    }
    setup_s.push_back(seconds_since(ts));
    if (d == nullptr) break;
    // Set-up samples beyond the timed phase (short runs) build and discard.
    if (r.timed_wall_s >= opt.seconds) continue;

    dbg::Session& session = *d->session;
    cli::Interpreter& gdb = *d->gdb;
    std::uint64_t k = 0;
    std::uint64_t step_boths = 0;
    const std::uint64_t t_phase = now_ns();
    for (;;) {
      const std::uint64_t op = spans != nullptr ? spans->new_op() : 0;
      // One user turn: its self time is the benchmark's own share.
      Scope turn(spans, "user.turn", op);
      std::uint64_t t0 = now_ns();
      Status st;
      {
        Scope span(spans, "dbgcli.continue", op);
        st = gdb.execute("continue");
      }
      const std::uint64_t dt = now_ns() - t0;
      stop_us.add(static_cast<double>(dt) / 1e3);
      continue_s += static_cast<double>(dt) / 1e9;
      gdb.console().take();
      r.attempted++;
      if (!st.ok()) r.fail("continue: " + st.message());
      if (!st.ok() || session.history().empty() || terminal(session.history().back().kind)) break;

      const Query q = kRotation[k % kRotation.size()];
      const std::string iface = q == Query::kWhence ? whence_target(session) : std::string();
      const std::string cmd = command_for(q, iface);
      t0 = now_ns();
      {
        Scope span(spans, "dbgcli.query", op);
        st = gdb.execute(cmd);
      }
      const std::uint64_t qt = now_ns() - t0;
      query_us.add(static_cast<double>(qt) / 1e3);
      query_s += static_cast<double>(qt) / 1e9;
      gdb.console().take();
      r.attempted++;
      if (!st.ok() || (q == Query::kWhence && iface.empty()))
        r.fail("'" + cmd + "' at stop " + std::to_string(k) + ": " + st.message());

      if (spans != nullptr) {
        t0 = now_ns();
        bool ok = false;
        {
          Scope span(spans, "debug.view", op);
          ok = direct_view(session, q, iface);
        }
        const std::uint64_t vt = now_ns() - t0;
        view_us.add(static_cast<double>(vt) / 1e3);
        view_s += static_cast<double>(vt) / 1e9;
        r.attempted++;
        if (!ok) r.fail("direct view for '" + cmd + "'");
      }

      if (k % kStepBothEvery == kStepBothEvery - 1) {
        t0 = now_ns();
        {
          Scope span(spans, "dbgcli.step_both", op);
          st = gdb.execute("step_both");
        }
        step_s += seconds_since(t0);
        gdb.console().take();
        step_boths++;
        r.attempted++;
        if (!st.ok()) r.fail("step_both at stop " + std::to_string(k) + ": " + st.message());
      }
      ++k;
    }
    r.timed_wall_s += seconds_since(t_phase);

    // Output checks, outside the timed phase.
    decodes++;
    pushes += link_pushes(d->app->app());
    dispatches += d->app->kernel().dispatch_count();
    hooks += d->app->kernel().instrument().hook_invocations();
    stops += session.stop_count();
    r.attempted++;
    if (!d->app->decoded_matches_golden())
      r.fail("decoded frames differ from golden (first bad frame " +
             std::to_string(d->app->first_mismatch_frame()) + ")");
    const std::uint64_t want = expected_stops(*d->app, step_boths);
    r.attempted++;
    if (session.stop_count() != want)
      r.fail("stop count " + std::to_string(session.stop_count()) + ", expected " +
             std::to_string(want));
  }

  const double rss_mib = peak_rss_mib();  // before the statistics copy samples
  const double tokens_per_s = static_cast<double>(pushes) / std::max(r.timed_wall_s, 1e-9);
  const Tail stop_tail = tail(stop_us.kept());
  const Tail query_tail = tail(query_us.kept());
  r.work_units = static_cast<double>(pushes);
  r.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_per_s", tokens_per_s, "1/s"},
      {"wait_p50_us", median(stop_us.kept()), "us"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
  r.table = {
      {"setup_s", median(setup_s), "s", setup_s.size(), ""},
      {"tokens_per_s", tokens_per_s, "tokens/s", static_cast<std::size_t>(decodes), "decodes"},
      {"stop_p50_us", median(stop_us.kept()), "us", stop_us.seen(), ""},
      {"stop_p99_us", stop_tail.value, "us", stop_us.seen(), percentile_label(stop_tail)},
      {"query_p50_us", median(query_us.kept()), "us", query_us.seen(), ""},
      {"query_p99_us", query_tail.value, "us", query_us.seen(), percentile_label(query_tail)},
      {"peak_rss_mib", rss_mib, "MiB", 1, ""},
  };
  if (spans == nullptr) return r;

  // --- traced pass: layer metrics ------------------------------------------
  const double d_n = decodes > 0 ? static_cast<double>(decodes) : 1.0;
  const std::uint64_t jrec = counter_value("journal.recorded") - jrec0;
  const double hook_s = static_cast<double>(histogram_sum("hook.dispatch_ns") - hook_ns0) / 1e9;
  const std::uint64_t ctx = counter_value("sim.context_switch") - ctx0;
  const std::uint64_t jdrop = counter_value("journal.dropped") - jdrop0;

  double plain_s = 0.0;
  double attached_off_s = 0.0;
  double attached_on_s = 0.0;
  {
    Scope span(spans, "ref.h264.plain_run", spans->new_op());
    plain_s = reference_run(cfg, /*attach=*/false, /*obs_on=*/false, r);
  }
  {
    Scope span(spans, "ref.debug.attached_obs_off", spans->new_op());
    attached_off_s = reference_run(cfg, true, false, r);
  }
  {
    Scope span(spans, "ref.debug.attached_obs_on", spans->new_op());
    attached_on_s = reference_run(cfg, true, true, r);
  }
  const double continue_per_decode = continue_s / d_n;
  const double catch_s = continue_per_decode - attached_on_s;
  const double mirror_s = attached_off_s - plain_s;
  const double obs_s = attached_on_s - attached_off_s;
  const double query_med = median(query_us.kept());
  const double view_med = median(view_us.kept());
  r.layers = {
      {"sim.dispatches", static_cast<double>(dispatches), "count"},
      {"sim.context_switches", static_cast<double>(ctx), "count"},
      {"sim.hook_invocations", static_cast<double>(hooks), "count"},
      {"sim.hook_dispatch_s", hook_s, "s"},
      {"pedf.link_pushes", static_cast<double>(pushes), "count"},
      {"h264.plain_run_s", plain_s, "s"},
      {"h264.slowdown", plain_s > 0 ? continue_per_decode / plain_s : 0.0, "ratio"},
      {"debug.stops", static_cast<double>(stops), "count"},
      {"debug.stops_per_khook", hooks > 0 ? static_cast<double>(stops) * 1000.0 / static_cast<double>(hooks) : 0.0, "ratio"},
      {"debug.catch_s", catch_s, "s"},
      {"debug.mirror_s", mirror_s, "s"},
      {"debug.view_us", view_med, "us"},
      {"obs.overhead_s", obs_s, "s"},
      {"obs.journal_recorded", static_cast<double>(jrec), "count"},
      {"obs.journal_dropped", static_cast<double>(jdrop), "count"},
      {"obs.journal_events_per_token", pushes > 0 ? static_cast<double>(jrec) / static_cast<double>(pushes) : 0.0, "ratio"},
      {"dbgcli.query_us", query_med, "us"},
      {"dbgcli.render_us", query_med - view_med, "us"},
  };
  // The continue time telescopes into compute, mirror, obs and catch parts;
  // the CLI parts are the benchmark's spans around each command.
  r.parts = {
      {"h264+sim+pedf compute (plain decode)", plain_s * d_n},
      {"debug hooks + model mirror", mirror_s * d_n},
      {"obs instruments + journal", obs_s * d_n},
      {"debug catchpoints + stops", catch_s * d_n},
      {"dbgcli inspection commands", query_s},
      {"debug direct views (traced only)", view_s},
      {"dbgcli step_both", step_s},
  };
  return r;
}

}  // namespace perfbench
