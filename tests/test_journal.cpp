// Tests of the token provenance flight recorder (dfdbg/obs/journal): ring
// semantics and drop accounting, token id threading through pedf::Link,
// flow-event export ("s"/"f" arrows in the Chrome trace), the `whence`
// causal-chain query, wraparound under a real H.264 run, and replay
// determinism of token ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "dfdbg/dbgcli/cli.hpp"
#include "dfdbg/dbgcli/render.hpp"
#include "dfdbg/debug/session.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/pedf/link.hpp"
#include "dfdbg/trace/chrome_trace.hpp"

namespace dfdbg {
namespace {

using dbg::ActorBehavior;
using dbg::RunOutcome;
using dbg::Session;
using h264::H264App;
using h264::H264AppConfig;

/// Forces a known enabled-state for the duration of one test (the CLI
/// interpreter flips the global flag on construction, so tests must not
/// depend on run order).
struct EnabledGuard {
  explicit EnabledGuard(bool on) : prev_(obs::enabled()) { obs::set_enabled(on); }
  ~EnabledGuard() { obs::set_enabled(prev_); }

 private:
  bool prev_;
};

/// Restores the global journal to its default shape around a test: default
/// capacity (which clears the window), recording on, fresh token sequence.
struct JournalGuard {
  JournalGuard() { restore(); }
  ~JournalGuard() { restore(); }

  static void restore() {
    obs::Journal& j = obs::Journal::global();
    j.set_capacity(obs::Journal::kDefaultCapacity);
    j.set_recording(true);
    j.reset();
  }
};

H264AppConfig cs_config() {
  H264AppConfig cfg;
  cfg.params.width = 32;
  cfg.params.height = 32;
  cfg.params.frame_count = 2;
  cfg.params.qp = 20;
  return cfg;
}

struct Rig {
  std::unique_ptr<H264App> app;
  std::unique_ptr<Session> session;

  explicit Rig(const H264AppConfig& cfg) {
    auto built = H264App::build(cfg);
    EXPECT_TRUE(built.ok()) << built.status().message();
    app = std::move(*built);
    session = std::make_unique<Session>(app->app());
    session->attach();
    app->start();
  }
};

// ---------------------------------------------------------------------------
// Unit behaviour of the Journal itself
// ---------------------------------------------------------------------------

TEST(Journal, TokenIdsMonotonicAndUngated) {
  EnabledGuard off(false);  // ids are allocated even while observability is off
  obs::Journal j(8);
  EXPECT_EQ(j.last_token(), 0u);
  EXPECT_EQ(j.alloc_token(), 1u);
  EXPECT_EQ(j.alloc_token(), 2u);
  EXPECT_EQ(j.alloc_token(), 3u);
  EXPECT_EQ(j.last_token(), 3u);
  j.reset();
  EXPECT_EQ(j.last_token(), 0u);
  EXPECT_EQ(j.alloc_token(), 1u);
}

TEST(Journal, RecordGatedOnEnabledAndRecording) {
  obs::Journal j(8);
  obs::JournalEvent ev;
  ev.kind = obs::JournalKind::kTokenPush;
  {
    EnabledGuard off(false);
    j.record(ev);
    EXPECT_EQ(j.size(), 0u);  // disabled: no event retained
  }
  EnabledGuard on(true);
  j.set_recording(false);
  j.record(ev);
  EXPECT_EQ(j.size(), 0u);  // recording sub-gate silences the journal
  j.set_recording(true);
  j.record(ev);
  EXPECT_EQ(j.size(), 1u);
}

TEST(Journal, WraparoundOverwritesOldestAndCountsDrops) {
  EnabledGuard on(true);
  obs::Journal j(4);
  for (std::uint64_t t = 1; t <= 10; t++) {
    obs::JournalEvent ev;
    ev.time = t;
    ev.token = t;
    j.record(ev);
  }
  EXPECT_EQ(j.size(), 4u);          // bounded
  EXPECT_EQ(j.total_recorded(), 10u);
  EXPECT_EQ(j.dropped(), 6u);       // 10 recorded - 4 retained
  // Window is the newest 4, oldest first.
  for (std::size_t i = 0; i < j.size(); i++) EXPECT_EQ(j.at(i).time, 7 + i);
}

// journal.recorded / journal.dropped fold the journal's own totals, which
// outlive its windows and the journal itself.
TEST(Journal, RegistryTotalsSurviveClearSetCapacityAndTheJournal) {
  EnabledGuard on(true);
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t rec0 = reg.counter("journal.recorded").value();
  const std::uint64_t drop0 = reg.counter("journal.dropped").value();
  {
    obs::Journal j(4);
    obs::JournalEvent ev;
    for (int i = 0; i < 10; ++i) j.record(ev);  // 6 evicted
    j.clear();
    for (int i = 0; i < 3; ++i) j.record(ev);
    j.set_capacity(2);
    for (int i = 0; i < 5; ++i) j.record(ev);  // 3 evicted
    {
      EnabledGuard off(false);
      j.record(ev);  // gated: counts nothing
    }
    EXPECT_EQ(j.total_recorded(), 5u);  // the window's own view
    EXPECT_EQ(j.dropped(), 3u);
    EXPECT_EQ(reg.counter("journal.recorded").value() - rec0, 18u);
    EXPECT_EQ(reg.counter("journal.dropped").value() - drop0, 9u);
  }
  EXPECT_EQ(reg.counter("journal.recorded").value() - rec0, 18u);
  EXPECT_EQ(reg.counter("journal.dropped").value() - drop0, 9u);
}

TEST(Journal, SetCapacityClearsWindowButKeepsNamesAndIds) {
  EnabledGuard on(true);
  obs::Journal j(4);
  std::uint32_t id = j.intern_name("pipe");
  (void)j.alloc_token();
  obs::JournalEvent ev;
  j.record(ev);
  j.set_capacity(16);
  EXPECT_EQ(j.size(), 0u);
  EXPECT_EQ(j.capacity(), 16u);
  EXPECT_EQ(j.dropped(), 0u);
  EXPECT_EQ(j.intern_name("pipe"), id);  // intern table survives
  EXPECT_EQ(j.last_token(), 1u);         // token sequence survives
}

TEST(Journal, InternIsIdempotentAndNamesResolve) {
  obs::Journal j(4);
  std::uint32_t a = j.intern_name("ipred");
  std::uint32_t b = j.intern_name("ipf");
  EXPECT_NE(a, b);
  EXPECT_EQ(j.intern_name("ipred"), a);
  EXPECT_EQ(j.name(a), "ipred");
  EXPECT_EQ(j.name(b), "ipf");
  EXPECT_EQ(j.name(UINT32_MAX), "?");
}

// Names are resolved once, at elaboration and spawn: every record of a
// decode reads an id its actor or process already carries.
TEST(JournalNames, InternedAtElaborationSoADecodeAddsNone) {
  EnabledGuard on(true);
  JournalGuard jg;
  obs::Journal& j = obs::Journal::global();
  auto built = H264App::build(cs_config());
  ASSERT_TRUE(built.ok()) << built.status().message();
  H264App& app = **built;
  for (const pedf::Actor* a : app.app().actors()) {
    ASSERT_NE(a->journal_name(), UINT32_MAX) << a->path();
    EXPECT_EQ(j.name(a->journal_name()), a->path());
  }
  const std::size_t names = j.name_count();
  app.start();
  ASSERT_EQ(app.kernel().run(), sim::RunResult::kFinished);
  EXPECT_TRUE(app.decoded_matches_golden());
  EXPECT_GT(j.total_recorded(), 0u);
  EXPECT_EQ(j.name_count(), names) << "the decode interned a name";
  // And the records name their actors: no push, pop, firing or dispatch
  // record resolves to the unknown-name placeholder.
  for (std::size_t i = 0; i < j.size(); ++i) EXPECT_NE(j.name(j.at(i).actor), "?");
}

TEST(Journal, SummaryAndFormatLast) {
  EnabledGuard on(true);
  obs::Journal j(8);
  obs::JournalEvent push;
  push.kind = obs::JournalKind::kTokenPush;
  push.time = 42;
  push.token = 7;
  push.link = 3;
  push.actor = j.intern_name("vld");
  j.record(push);
  obs::JournalEvent fire;
  fire.kind = obs::JournalKind::kFireBegin;
  fire.time = 43;
  fire.actor = j.intern_name("pipe");
  fire.firing = 2;
  j.record(fire);
  std::string sum = j.summary();
  EXPECT_NE(sum.find("journal: "), std::string::npos);
  EXPECT_NE(sum.find("push"), std::string::npos);
  EXPECT_NE(sum.find("fire-begin"), std::string::npos);
  std::string last = j.format_last(10, [](std::uint32_t link) {
    return "link#" + std::to_string(link);
  });
  EXPECT_NE(last.find("tok#7"), std::string::npos);
  EXPECT_NE(last.find("link#3"), std::string::npos);
  EXPECT_NE(last.find("vld"), std::string::npos);
  EXPECT_NE(last.find("firing=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Token id threading through pedf::Link
// ---------------------------------------------------------------------------

TEST(LinkUid, ThreadsThroughPushPopAndErase) {
  pedf::Link l(pedf::LinkId(0), "a::out -> b::in", pedf::TypeDesc(), nullptr, nullptr);
  EXPECT_EQ(l.last_pushed_uid(), 0u);
  EXPECT_EQ(l.last_popped_uid(), 0u);

  l.push_raw(pedf::Value::u32(10));
  std::uint64_t first = l.last_pushed_uid();
  l.push_raw(pedf::Value::u32(11));
  std::uint64_t second = l.last_pushed_uid();
  l.push_raw(pedf::Value::u32(12));
  std::uint64_t third = l.last_pushed_uid();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(second, first + 1);  // global sequence, consecutive for one pusher
  EXPECT_EQ(third, second + 1);

  // Queue slots expose the ids, parallel to the values.
  EXPECT_EQ(l.token_uid_at(0), first);
  EXPECT_EQ(l.token_uid_at(1), second);
  EXPECT_EQ(l.token_uid_at(2), third);

  // Pop travels in FIFO order and remembers the popped id.
  EXPECT_EQ(l.pop_raw().as_u64(), 10u);
  EXPECT_EQ(l.last_popped_uid(), first);

  // Erasing a middle slot keeps the mapping aligned.
  l.erase_at(0);  // removes the token that carried `second`
  EXPECT_EQ(l.token_uid_at(0), third);

  // Poke (replace in place) keeps the token's identity: an altered token is
  // still "the same token" for provenance purposes.
  l.poke(0, pedf::Value::u32(99));
  EXPECT_EQ(l.token_uid_at(0), third);
  EXPECT_EQ(l.pop_raw().as_u64(), 99u);
  EXPECT_EQ(l.last_popped_uid(), third);
}

// ---------------------------------------------------------------------------
// Flow-event export: "s"/"f" arrows tying a push to its pop
// ---------------------------------------------------------------------------

/// Extracts the value of `"key":` at/after `from` in a JSON line-less blob.
std::string json_value_after(const std::string& js, std::size_t from, const std::string& key) {
  std::size_t k = js.find("\"" + key + "\":", from);
  if (k == std::string::npos) return "";
  k += key.size() + 3;
  std::size_t end = js.find_first_of(",}", k);
  return js.substr(k, end - k);
}

TEST(FlowExport, JournalExportContainsMatchedFlowArrows) {
  EnabledGuard on(true);
  JournalGuard jg;
  Rig rig(cs_config());
  RunOutcome out = rig.session->run();
  ASSERT_EQ(out.result, sim::RunResult::kFinished);

  obs::Journal& j = obs::Journal::global();
  EXPECT_GT(j.size(), 0u);

  trace::ChromeTraceOptions options;
  options.dispatch_instants = true;
  std::string js = trace::export_journal_chrome_trace(j, rig.app->app(), options);
  // Structure: one JSON object with a traceEvents list and flow metadata.
  EXPECT_EQ(js.front(), '{');
  ASSERT_GE(js.size(), 2u);
  EXPECT_EQ(js.substr(js.size() - 2), "}\n");
  EXPECT_NE(js.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(js.find("\"flow_pairs\":"), std::string::npos);

  // At least one flow start, and its id must have a matching finish.
  std::size_t s = js.find("\"ph\":\"s\"");
  ASSERT_NE(s, std::string::npos) << "no flow-start event in journal export";
  std::string id = json_value_after(js, s, "id");
  ASSERT_FALSE(id.empty());
  bool matched = false;
  for (std::size_t f = js.find("\"ph\":\"f\""); f != std::string::npos;
       f = js.find("\"ph\":\"f\"", f + 1)) {
    if (json_value_after(js, f, "id") == id) {
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched) << "flow start id=" << id << " has no matching finish";

  // The flow arrows also overlay onto the TraceCollector-window exporter.
  trace::TraceCollector empty_window(rig.app->app(), 16);
  trace::ChromeTraceOptions overlay;
  overlay.journal = &j;
  std::string js2 = trace::export_chrome_trace(empty_window, rig.app->app(), overlay);
  EXPECT_NE(js2.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(js2.find("\"ph\":\"f\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// `whence`: the causal chain query
// ---------------------------------------------------------------------------

/// Runs the decoder to the first stop on `ipf::ipf_out` with full behaviour
/// annotations and returns the `whence` output for the newest queued token.
std::string whence_at_first_ipf_send() {
  Rig rig(cs_config());
  EXPECT_TRUE(rig.session->configure_behavior("red", ActorBehavior::kSplitter).ok());
  EXPECT_TRUE(rig.session->configure_behavior("pipe", ActorBehavior::kMerger).ok());
  EXPECT_TRUE(rig.session->configure_behavior("ipred", ActorBehavior::kMerger).ok());
  EXPECT_TRUE(rig.session->configure_behavior("ipf", ActorBehavior::kMerger).ok());
  EXPECT_TRUE(rig.session->break_on_send("ipf::ipf_out").ok());
  RunOutcome out = rig.session->run();
  EXPECT_EQ(out.result, sim::RunResult::kStopped);
  const dbg::DLink* dl = rig.session->graph().link_by_iface("ipf::ipf_out");
  EXPECT_NE(dl, nullptr);
  EXPECT_FALSE(dl->queue.empty());
  return cli::render_or_error(rig.session->whence_chain("ipf::ipf_out", dl->queue.size() - 1, 8));
}

TEST(Whence, CausalChainReachesAtLeastThreeHops) {
  EnabledGuard on(true);
  JournalGuard jg;
  std::string chain = whence_at_first_ipf_send();
  EXPECT_NE(chain.find("causal chain of slot"), std::string::npos) << chain;
  // Count "#N tok#" hop lines.
  int hops = 0;
  for (std::size_t p = chain.find(" tok#"); p != std::string::npos;
       p = chain.find(" tok#", p + 1))
    hops++;
  EXPECT_GE(hops, 3) << chain;
}

TEST(Whence, ErrorsAreReadable) {
  EnabledGuard on(true);
  JournalGuard jg;
  Rig rig(cs_config());
  EXPECT_NE(cli::render_or_error(rig.session->whence_chain("nosuch::iface", 0, 8)).find("<no link"),
            std::string::npos);
  EXPECT_NE(cli::render_or_error(rig.session->whence_chain("ipf::ipf_out", 99, 8)).find("no slot 99"),
            std::string::npos);
}

TEST(Whence, ReplayedRunYieldsIdenticalChains) {
  // The deterministic kernel plus a reset token sequence must reproduce the
  // exact same provenance ids and therefore byte-identical `whence` output —
  // the property that makes recorded sessions comparable across replays.
  EnabledGuard on(true);
  JournalGuard jg;
  obs::Journal::global().reset();
  std::string first = whence_at_first_ipf_send();
  obs::Journal::global().reset();
  std::string second = whence_at_first_ipf_send();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("tok#"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TokenRecorder provenance
// ---------------------------------------------------------------------------

TEST(Recorder, RecordsCarryTokenIds) {
  EnabledGuard on(true);
  JournalGuard jg;
  Rig rig(cs_config());
  ASSERT_TRUE(rig.session->record_iface("hwcfg::pipe_MbType_out").ok());
  RunOutcome out = rig.session->run();
  ASSERT_EQ(out.result, sim::RunResult::kFinished);
  const auto* records = rig.session->recorder().records("hwcfg::pipe_MbType_out");
  ASSERT_NE(records, nullptr);
  ASSERT_FALSE(records->empty());
  for (const auto& r : *records) EXPECT_NE(r.token, 0u);
}

// ---------------------------------------------------------------------------
// Wraparound under a real decode: bounded memory, honest drop accounting
// ---------------------------------------------------------------------------

TEST(Wraparound, H264RunAtCapacity16SurvivesAndReportsDrops) {
  EnabledGuard on(true);
  JournalGuard jg;
  obs::Registry::global().reset();
  obs::Journal& j = obs::Journal::global();
  j.set_capacity(16);

  Rig rig(cs_config());
  RunOutcome out = rig.session->run();
  ASSERT_EQ(out.result, sim::RunResult::kFinished);
  EXPECT_TRUE(rig.app->decoded_matches_golden());

  EXPECT_EQ(j.size(), 16u);   // bounded exactly at the configured capacity
  EXPECT_GT(j.dropped(), 0u);  // an H.264 decode overflows 16 slots many times
  EXPECT_EQ(j.total_recorded(), j.dropped() + j.size());
  // The drop count is also visible in the metrics registry.
  EXPECT_GT(obs::Registry::global().counter("journal.dropped").value(), 0u);
  EXPECT_GT(obs::Registry::global().counter("journal.recorded").value(),
            obs::Registry::global().counter("journal.dropped").value());

  // The retained window stays well-ordered (times nondecreasing) and
  // formattable after heavy wraparound.
  for (std::size_t i = 1; i < j.size(); i++) EXPECT_GE(j.at(i).time, j.at(i - 1).time);
  std::string last = j.format_last(16);
  EXPECT_NE(last.find("t="), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI verbs: journal / whence / info flow
// ---------------------------------------------------------------------------

TEST(Cli, JournalWhenceInfoFlowSmoke) {
  JournalGuard jg;
  Rig rig(cs_config());
  cli::Interpreter interp(*rig.session);  // enables obs for the session
  ASSERT_TRUE(interp.execute("filter red configure splitter").ok());
  ASSERT_TRUE(interp.execute("iface ipf::ipf_out catch").ok());
  ASSERT_TRUE(interp.execute("run").ok());
  interp.console().take();

  ASSERT_TRUE(interp.execute("journal").ok());
  std::string out = interp.console().take();
  EXPECT_NE(out.find("journal: "), std::string::npos);
  EXPECT_NE(out.find("token ids allocated"), std::string::npos);

  ASSERT_TRUE(interp.execute("journal last 5").ok());
  out = interp.console().take();
  EXPECT_NE(out.find("t="), std::string::npos);

  ASSERT_TRUE(interp.execute("whence ipf::ipf_out 0").ok());
  out = interp.console().take();
  EXPECT_NE(out.find("causal chain of slot 0"), std::string::npos) << out;
  EXPECT_NE(out.find("tok#"), std::string::npos) << out;

  ASSERT_TRUE(interp.execute("info flow").ok());
  out = interp.console().take();
  EXPECT_NE(out.find("window pushes"), std::string::npos);
  EXPECT_NE(out.find("ipf_out"), std::string::npos);

  // Dump writes a loadable flow-event JSON file.
  std::string path = ::testing::TempDir() + "journal_dump_test.json";
  ASSERT_TRUE(interp.execute("journal dump " + path).ok());
  out = interp.console().take();
  EXPECT_NE(out.find("Journal exported to"), std::string::npos);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string js;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) js.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(js.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"f\""), std::string::npos);

  // Recording gate round-trip and completion of the new verbs.
  ASSERT_TRUE(interp.execute("journal off").ok());
  EXPECT_FALSE(obs::Journal::global().recording());
  ASSERT_TRUE(interp.execute("journal on").ok());
  EXPECT_TRUE(obs::Journal::global().recording());
  auto comps = interp.complete("jour");
  EXPECT_NE(std::find(comps.begin(), comps.end(), "journal"), comps.end());
  comps = interp.complete("whence ipf::ipf_");
  EXPECT_FALSE(comps.empty());
}

}  // namespace
}  // namespace dfdbg
