// Tests of the GDB-style command interpreter: command parsing, transcript
// output, value/expression handling, auto-completion, error reporting.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "dfdbg/common/strings.hpp"
#include "dfdbg/dbgcli/cli.hpp"
#include "dfdbg/h264/app.hpp"
#include "dfdbg/obs/metrics.hpp"

namespace dfdbg::cli {
namespace {

using h264::H264App;
using h264::H264AppConfig;

struct CliRig {
  std::unique_ptr<H264App> app;
  std::unique_ptr<dbg::Session> session;
  std::unique_ptr<Interpreter> gdb;

  explicit CliRig(H264AppConfig cfg = make_config()) {
    auto built = H264App::build(cfg);
    EXPECT_TRUE(built.ok()) << built.status().message();
    app = std::move(*built);
    session = std::make_unique<dbg::Session>(app->app());
    session->attach();
    app->start();
    gdb = std::make_unique<Interpreter>(*session);
  }

  static H264AppConfig make_config() {
    H264AppConfig cfg;
    cfg.params.width = 32;
    cfg.params.height = 32;
    cfg.params.frame_count = 1;
    return cfg;
  }

  std::string exec(const std::string& line) {
    gdb->execute(line);
    return gdb->console().take();
  }
};

TEST(Cli, EmptyAndCommentLinesAreNoOps) {
  CliRig rig;
  EXPECT_TRUE(rig.gdb->execute("").ok());
  EXPECT_TRUE(rig.gdb->execute("   ").ok());
  EXPECT_TRUE(rig.gdb->execute("# just a comment").ok());
  EXPECT_EQ(rig.gdb->console().take(), "");
}

TEST(Cli, UnknownCommandReported) {
  CliRig rig;
  EXPECT_FALSE(rig.gdb->execute("bogus").ok());
  EXPECT_NE(rig.gdb->console().take().find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownCommandWordsShareOneCounter) {
  CliRig rig;
  obs::Registry& reg = obs::Registry::global();
  const std::size_t before = reg.size();
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(rig.gdb->execute(strformat("bogus%04d", i)).ok());
  EXPECT_LE(reg.size(), before + 1);
  EXPECT_GE(reg.counter("cli.cmd.unknown").value(), 1000u);
  // Known verbs keep a counter of their own.
  const std::uint64_t infos = reg.counter("cli.cmd.info").value();
  rig.exec("info breakpoints");
  EXPECT_EQ(reg.counter("cli.cmd.info").value(), infos + 1);
}

TEST(Cli, CatchWorkTranscript) {
  CliRig rig;
  std::string out = rig.exec("filter pipe catch work");
  EXPECT_NE(out.find("stop when WORK of filter `pipe' is triggered"), std::string::npos);
  out = rig.exec("run");
  EXPECT_NE(out.find("[Stopped at WORK entry of filter `pipe']"), std::string::npos);
}

TEST(Cli, CatchTokensWithCommaSpace) {
  // The paper writes "catch Pipe_in=1, Hwcfg_in=1" with a space after the
  // comma; the tokenizer must fuse the condition.
  CliRig rig;
  std::string out = rig.exec("filter ipred catch Pipe_in=1, Hwcfg_in=1");
  EXPECT_NE(out.find("Catchpoint"), std::string::npos);
  out = rig.exec("run");
  EXPECT_NE(out.find("received required tokens (Pipe_in=1, Hwcfg_in=1)"), std::string::npos);
}

TEST(Cli, CatchWildcardInputs) {
  CliRig rig;
  std::string out = rig.exec("filter ipred catch *in=1");
  EXPECT_NE(out.find("Catchpoint"), std::string::npos);
  out = rig.exec("run");
  EXPECT_NE(out.find("Stopped: filter `ipred' received required tokens"), std::string::npos);
}

TEST(Cli, CatchSingleInterfaceByName) {
  CliRig rig;
  rig.exec("filter pipe catch Red2PipeCbMB_in");
  std::string out = rig.exec("run");
  EXPECT_NE(out.find("[Stopped after receiving token from `pipe::Red2PipeCbMB_in']"),
            std::string::npos);
}

TEST(Cli, FilterPrintLastTokenAndHistory) {
  CliRig rig;
  rig.exec("filter pipe catch Red2PipeCbMB_in");
  rig.exec("run");
  std::string out = rig.exec("filter print last_token");
  EXPECT_NE(out.find("$1 = (CbCrMB_t){Addr=0x1000"), std::string::npos);
  out = rig.exec("print $1");
  EXPECT_NE(out.find("$2 = (CbCrMB_t){"), std::string::npos);
  out = rig.exec("print $1.Izz");
  EXPECT_NE(out.find("$3 = (U32)"), std::string::npos);
}

TEST(Cli, PrintFilterVariables) {
  CliRig rig;
  rig.exec("filter pipe catch work");
  rig.exec("run");
  rig.exec("run");
  std::string out = rig.exec("print vld.data.mbs_parsed");
  EXPECT_NE(out.find("= (U32)"), std::string::npos);
  out = rig.exec("print vld.data.nope");
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(Cli, RecordAndPrintIface) {
  CliRig rig;
  rig.exec("iface hwcfg::pipe_MbType_out record");
  rig.exec("filter ipred catch work");
  rig.exec("run");
  std::string out = rig.exec("iface hwcfg::pipe_MbType_out print");
  EXPECT_NE(out.find("#1 (U16)"), std::string::npos);
}

TEST(Cli, RecordOnInputInterface) {
  // Recording works on the receive side too (fed by the pop finish
  // breakpoint with the actually-delivered value).
  CliRig rig;
  rig.exec("iface pipe::Red2PipeCbMB_in record");
  rig.exec("filter pipe catch work");
  rig.exec("run");
  rig.exec("run");
  std::string out = rig.exec("iface pipe::Red2PipeCbMB_in print");
  EXPECT_NE(out.find("#1 (CbCrMB_t){Addr=0x1000"), std::string::npos) << out;
}

TEST(Cli, PrintRecordedUnknownIface) {
  CliRig rig;
  std::string out = rig.exec("iface ghost::port print");
  EXPECT_NE(out.find("not recorded"), std::string::npos);
}

TEST(Cli, GraphToFile) {
  CliRig rig;
  const char* path = "/tmp/dfdbg_graph_test.dot";
  std::string out = rig.exec(std::string("graph tokens > ") + path);
  EXPECT_NE(out.find("Graph written"), std::string::npos);
  FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof buf - 1, f), 0u);
  std::fclose(f);
  EXPECT_NE(std::string(buf).find("digraph"), std::string::npos);
  std::remove(path);
}

TEST(Cli, ConfigureSplitter) {
  CliRig rig;
  std::string out = rig.exec("filter red configure splitter");
  EXPECT_NE(out.find("configured as splitter"), std::string::npos);
  out = rig.exec("filter red configure nonsense");
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(Cli, InfoLastTokenTranscript) {
  CliRig rig;
  rig.exec("filter red configure splitter");
  rig.exec("filter pipe catch Red2PipeCbMB_in");
  rig.exec("run");
  std::string out = rig.exec("filter pipe info last_token");
  EXPECT_NE(out.find("#1 red -> pipe (CbCrMB_t){"), std::string::npos);
  EXPECT_NE(out.find("#2 bh -> red (U32)"), std::string::npos);
}

TEST(Cli, StepBothWithExplicitIface) {
  CliRig rig;
  std::string out = rig.exec("step_both ipred::Add2Dblock_ipf_out");
  EXPECT_NE(out.find("Temporary breakpoint inserted after input interface"), std::string::npos);
  EXPECT_NE(out.find("Temporary breakpoint inserted after outpu"), std::string::npos);
  out = rig.exec("continue");
  EXPECT_NE(out.find("[Stopped after sending token on `ipred::Add2Dblock_ipf_out']"),
            std::string::npos);
  out = rig.exec("continue");
  EXPECT_NE(out.find("[Stopped after receiving token from `ipf::Add2Dblock_ipred_in']"),
            std::string::npos);
}

TEST(Cli, GraphCommand) {
  CliRig rig;
  std::string out = rig.exec("graph");
  EXPECT_NE(out.find("digraph app"), std::string::npos);
  out = rig.exec("graph tokens");
  EXPECT_NE(out.find("[0]"), std::string::npos);
}

TEST(Cli, InfoSubcommands) {
  CliRig rig;
  rig.exec("filter pipe catch work");
  rig.exec("run");
  EXPECT_NE(rig.exec("info links").find("pipe_MbType_out"), std::string::npos);
  EXPECT_NE(rig.exec("info sched pred").find("module `pred'"), std::string::npos);
  EXPECT_NE(rig.exec("info actors").find("h264.pred.ipred"), std::string::npos);
  EXPECT_NE(rig.exec("info breakpoints").find("catch work"), std::string::npos);
  EXPECT_NE(rig.exec("info tokens").find("retained="), std::string::npos);
  EXPECT_NE(rig.exec("info nonsense").find("error:"), std::string::npos);
}

TEST(Cli, BreakpointLifecycle) {
  CliRig rig;
  rig.exec("filter pipe catch work");
  std::string out = rig.exec("info breakpoints");
  EXPECT_NE(out.find("0"), std::string::npos);
  EXPECT_TRUE(rig.gdb->execute("disable 0").ok());
  EXPECT_TRUE(rig.gdb->execute("enable 0").ok());
  EXPECT_TRUE(rig.gdb->execute("delete 0").ok());
  rig.gdb->console().take();
  EXPECT_EQ(rig.exec("info breakpoints"), "");
}

TEST(Cli, SourceBreakAndList) {
  CliRig rig;
  std::string out = rig.exec("break ipred:221");
  EXPECT_NE(out.find("Breakpoint"), std::string::npos);
  out = rig.exec("run");
  EXPECT_NE(out.find("filter `ipred' at line 221"), std::string::npos);
  out = rig.exec("list ipred 221");
  EXPECT_NE(out.find("pedf.io.Add2Dblock_ipf_out"), std::string::npos);
  out = rig.exec("list");  // defaults to the current filter
  EXPECT_NE(out.find("ipred.c"), std::string::npos);
}

TEST(Cli, LineBreakpointSetWhileStoppedInAHook) {
  // On the sequential backends the first stop parks the decoder inside
  // pipe's WORK-entry hook, and `break` then registers the source-line hook.
  // Resuming must run the parked hook intact: registering a hook may not
  // move a running one.
  H264AppConfig cfg = CliRig::make_config();
  cfg.params.frame_count = 2;
  CliRig rig(cfg);
  rig.exec("filter pipe catch work");
  EXPECT_NE(rig.exec("continue").find("[Stopped at WORK entry of filter `pipe']"),
            std::string::npos);
  EXPECT_NE(rig.exec("break ipred:221").find("Breakpoint"), std::string::npos);
  int line_stops = 0;
  for (;;) {
    std::string out = rig.exec("continue");
    if (out.find("[Application finished]") != std::string::npos) break;
    if (out.find("[Breakpoint: filter `ipred' at line 221]") != std::string::npos) {
      ++line_stops;
    } else {
      ASSERT_NE(out.find("[Stopped at WORK entry of filter `pipe']"), std::string::npos) << out;
    }
  }
  EXPECT_GT(line_stops, 0);
}

TEST(Cli, WatchCommand) {
  CliRig rig;
  std::string out = rig.exec("watch vld data mbs_parsed");
  EXPECT_NE(out.find("Watchpoint"), std::string::npos);
  out = rig.exec("run");
  EXPECT_NE(out.find("vld.data.mbs_parsed changed"), std::string::npos);
}

TEST(Cli, TokInsertDelSet) {
  CliRig rig;
  // Tokens can be staged before anything runs (simulation is stopped).
  std::string out = rig.exec("tok insert ipred::Hwcfg_in 20");
  EXPECT_NE(out.find("Token inserted"), std::string::npos);
  out = rig.exec("tok set ipred::Hwcfg_in 0 21");
  EXPECT_NE(out.find("modified"), std::string::npos);
  out = rig.exec("tok del ipred::Hwcfg_in 0");
  EXPECT_NE(out.find("deleted"), std::string::npos);
  out = rig.exec("tok del ipred::Hwcfg_in 5");
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(Cli, TokInsertStructValue) {
  CliRig rig;
  std::string out = rig.exec("tok insert pipe::Red2PipeCbMB_in Addr=0x145D,InterNotIntra=1,Izz=7");
  EXPECT_NE(out.find("Token inserted"), std::string::npos);
  pedf::Link* l = rig.app->app().link_by_iface("pipe::Red2PipeCbMB_in");
  ASSERT_EQ(l->occupancy(), 1u);
  EXPECT_EQ(l->peek(0).field_u64("Addr"), 0x145Du);
  out = rig.exec("tok insert pipe::Red2PipeCbMB_in NoField=3");
  EXPECT_NE(out.find("error:"), std::string::npos);
}

// Every numeric operand is read whole: a malformed, signed or out-of-range
// number is an error, never a number strtoul happened to find in it (which
// made `delete xyz` delete breakpoint 0, and `delete 4294967296` too).
TEST(Cli, MalformedNumbersAreRefused) {
  CliRig rig;
  rig.exec("filter pipe catch work");   // breakpoint 0
  rig.exec("filter ipred catch work");  // breakpoint 1
  const char* const kBad[] = {
      "delete xyz",
      "delete 1x",
      "delete -1",
      "delete 4294967296",
      "disable 0x",
      "enable 1.5",
      "ignore 0 abc",
      "ignore x 1",
      "filter ipred catch Pipe_in=1x",
      "iface pipe::coeff_in catch occupancy many",
      "iface hwcfg::pipe_MbType_out record bounded 6four",
      "break ipred:22x",
      "list ipred 2a1",
      "tok del ipred::Hwcfg_in 0z",
      "tok set ipred::Hwcfg_in -1 5",
      "whence pipe::coeff_in 1x",
      "whence pipe::coeff_in 0 -2",
      "print $1x",
      "trace on 12k",
      "journal last 3x",
      "journal tail 5-",
      "run 10q",
      "run -5",
      "journal capacity -8",
      "journal capacity 99999999999999999999",
  };
  for (const char* line : kBad) {
    const Status s = rig.gdb->execute(line);
    EXPECT_EQ(s.code(), ErrCode::kInvalidArgument) << line << ": " << s.message();
    rig.gdb->console().take();
  }
  // Nothing was acted on: both breakpoints remain and the decode never ran.
  EXPECT_EQ(split(rig.exec("info breakpoints"), '\n').size(), 3u);  // 2 lines + ""
  EXPECT_EQ(rig.session->stop_count(), 0u);
  // Hex and decimal ids still work.
  EXPECT_TRUE(rig.gdb->execute("delete 0x1").ok());
  EXPECT_TRUE(rig.gdb->execute("disable 0").ok());
}

// A run bound behind the clock leaves the clock where it is. `run 5` after
// `run 2000` used to set it back to 5, and that run's dbg.run_cycles sample
// wrapped to nearly 2^64.
TEST(Cli, RunBelowTheClockLeavesItWhereItIs) {
  CliRig rig;
  rig.exec("run 2000");
  ASSERT_EQ(rig.app->kernel().now(), 2000u);  // the decode runs past the bound
  obs::Histogram& cycles = obs::Registry::global().histogram("dbg.run_cycles");
  const std::uint64_t sum0 = cycles.sum();
  const std::uint64_t count0 = cycles.count();
  EXPECT_TRUE(rig.gdb->execute("run 5").ok());
  rig.gdb->console().take();
  EXPECT_EQ(rig.app->kernel().now(), 2000u);
  EXPECT_EQ(cycles.count(), count0 + 1);
  EXPECT_EQ(cycles.sum(), sum0);  // a zero-cycle run
  // The decode goes on from where it stood.
  rig.exec("run");
  EXPECT_GT(rig.app->kernel().now(), 2000u);
  EXPECT_TRUE(rig.app->decoded_matches_golden());
}

// `tok insert|set` payloads are read whole too: trailing characters or a
// malformed struct field are refused instead of storing what strtoull found.
TEST(Cli, MalformedTokenPayloadsAreRefused) {
  CliRig rig;
  const char* const kBad[] = {
      "tok insert pipe::MbType_in 5x",
      "tok insert pipe::MbType_in ''",
      "tok insert pipe::Red2PipeCbMB_in Addr=zz",
      "tok insert pipe::Red2PipeCbMB_in Addr=0x145D,Izz=",
      "tok insert pipe::Red2PipeCbMB_in Addr=1,Izz=7q",
  };
  for (const char* line : kBad) {
    const Status s = rig.gdb->execute(line);
    EXPECT_EQ(s.code(), ErrCode::kInvalidArgument) << line << ": " << s.message();
    rig.gdb->console().take();
  }
  EXPECT_EQ(rig.app->app().link_by_iface("pipe::MbType_in")->occupancy(), 0u);
  EXPECT_EQ(rig.app->app().link_by_iface("pipe::Red2PipeCbMB_in")->occupancy(), 0u);
  // Decimal, hex and negative text still parse (negative: two's complement).
  ASSERT_TRUE(rig.gdb->execute("tok insert pipe::MbType_in 0x1f").ok());
  ASSERT_TRUE(rig.gdb->execute("tok insert pipe::MbType_in -1").ok());
  ASSERT_TRUE(rig.gdb->execute("tok set pipe::MbType_in 0 12").ok());
  const pedf::Link* l = rig.app->app().link_by_iface("pipe::MbType_in");
  ASSERT_EQ(l->occupancy(), 2u);
  EXPECT_EQ(l->peek(0).as_u64(), 12u);
  EXPECT_EQ(l->peek(1).as_u64(), 0xffffu);  // U16
  EXPECT_FALSE(rig.gdb->execute("tok set pipe::MbType_in 0 12.5").ok());
  EXPECT_EQ(l->peek(0).as_u64(), 12u);
}

TEST(Cli, DataExchangeToggleAndFocus) {
  CliRig rig;
  std::string out = rig.exec("disable data-exchange");
  EXPECT_NE(out.find("[Data-exchange breakpoints disabled]"), std::string::npos);
  out = rig.exec("enable data-exchange");
  EXPECT_NE(out.find("[Data-exchange breakpoints enabled]"), std::string::npos);
  out = rig.exec("focus ipred::Pipe_in ipred::Hwcfg_in");
  EXPECT_NE(out.find("restricted to 2 interface(s)"), std::string::npos);
  out = rig.exec("unfocus");
  EXPECT_NE(out.find("restored"), std::string::npos);
}

TEST(Cli, ScriptRunsAndCountsFailures) {
  CliRig rig;
  int failures = rig.gdb->run_script({
      "filter pipe catch work",
      "bogus command",
      "run",
  });
  EXPECT_EQ(failures, 1);
  EXPECT_NE(rig.gdb->console().take().find("[Stopped at WORK entry"), std::string::npos);
}

TEST(Cli, HelpListsThePaperCommands) {
  CliRig rig;
  std::string out = rig.exec("help");
  for (const char* cmd : {"catch work", "step_both", "configure splitter", "last_token",
                          "record", "focus", "data-exchange"})
    EXPECT_NE(out.find(cmd), std::string::npos) << cmd;
}

TEST(Cli, SourceRunsScriptFile) {
  CliRig rig;
  const char* path = "/tmp/dfdbg_test_script.gdb";
  FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment line\nfilter pipe catch work\nrun\n", f);
  std::fclose(f);
  ASSERT_TRUE(rig.gdb->execute(std::string("source ") + path).ok());
  EXPECT_NE(rig.gdb->console().take().find("[Stopped at WORK entry of filter `pipe']"),
            std::string::npos);
  std::remove(path);
}

TEST(Cli, SourceMissingFileFails) {
  CliRig rig;
  EXPECT_FALSE(rig.gdb->execute("source /nonexistent/script").ok());
}

TEST(Cli, SaveThenSourceReplaysTheSetup) {
  const char* path = "/tmp/dfdbg_saved_session.gdb";
  {
    CliRig rig;
    rig.exec("filter pipe catch work");
    rig.exec("filter red configure splitter");
    rig.exec("iface hwcfg::pipe_MbType_out record");
    rig.exec("break ipred:221");
    rig.exec("run");                 // not replayable
    rig.exec("info breakpoints");    // query, not replayable
    std::string out = rig.exec(std::string("save ") + path);
    EXPECT_NE(out.find("Saved 4 command(s)"), std::string::npos) << out;
  }
  {
    CliRig rig;
    ASSERT_TRUE(rig.gdb->execute(std::string("source ") + path).ok());
    EXPECT_EQ(rig.session->breakpoints().size(), 2u);  // catch work + line bp
    EXPECT_TRUE(rig.session->recorder().enabled("hwcfg::pipe_MbType_out"));
    EXPECT_EQ(rig.session->graph().actor_by_name("red")->behavior,
              dbg::ActorBehavior::kSplitter);
  }
  std::remove(path);
}

TEST(Cli, ExportJsonState) {
  CliRig rig;
  rig.exec("filter pipe catch work");
  rig.exec("run");
  std::string json = rig.exec("export");
  EXPECT_NE(json.find("\"actors\""), std::string::npos);
  EXPECT_NE(json.find("\"links\""), std::string::npos);
  EXPECT_NE(json.find("\"breakpoints\""), std::string::npos);
  EXPECT_NE(json.find("\"path\": \"h264.pred.pipe\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"catch-work\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  long braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_str = !in_str;
    if (in_str) continue;
    if (c == '{') braces++;
    if (c == '}') braces--;
    if (c == '[') brackets++;
    if (c == ']') brackets--;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// `save` keeps the setup a session was built with, not the questions asked
// of it.
TEST(Cli, SaveSkipsQueries) {
  CliRig rig;
  rig.exec("filter pipe catch work");
  rig.exec("iface hwcfg::pipe_MbType_out record");
  for (const char* query : {"iface hwcfg::pipe_MbType_out tokens", "iface hwcfg::pipe_MbType_out print",
                            "filter pipe info", "filter pipe info last_token", "info links",
                            "info breakpoints", "info sched pred"})
    EXPECT_TRUE(rig.gdb->execute(query).ok()) << query;
  EXPECT_EQ(rig.gdb->replayable(),
            (std::vector<std::string>{"filter pipe catch work", "iface hwcfg::pipe_MbType_out record"}));
}

// Every sub-verb the table declares reaches its verb's handler (an error there
// is a usage or lookup error, never "unknown <verb> verb|topic").
TEST(Cli, EverySubVerbDispatches) {
  CliRig rig;
  for (const Verb& v : Interpreter::verbs()) {
    if (v.word != "filter" && v.word != "iface" && v.word != "info") continue;
    for (const SubVerb& sub : v.subs) {
      std::string line(v.word);
      if (sub.at == 1) line += v.word == "filter" ? " pipe" : " hwcfg::pipe_MbType_out";
      line += " " + std::string(sub.word);
      rig.gdb->execute(line);
      EXPECT_EQ(rig.gdb->console().take().find("unknown " + std::string(v.word)), std::string::npos)
          << line;
    }
  }
}

// docs/COMMANDS.md documents every word the interpreter dispatches.
TEST(Cli, CommandsDocNamesEveryWord) {
  std::ifstream in(std::string(DFDBG_SOURCE_DIR) + "/docs/COMMANDS.md");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  for (const Verb& v : Interpreter::verbs()) {
    for (std::string_view word : {v.word, v.alias}) {
      if (word.empty()) continue;
      const std::string w(word);
      EXPECT_TRUE(doc.find("`" + w + "`") != std::string::npos ||
                  doc.find("`" + w + " ") != std::string::npos)
          << w << " is not in docs/COMMANDS.md";
    }
  }
}

// --- auto-completion (paper Contribution #1's UX) ------------------------------

TEST(CliCompletion, EveryWordCompletesFromEmpty) {
  CliRig rig;
  const std::vector<std::string> all = rig.gdb->complete("");
  for (const Verb& v : Interpreter::verbs()) {
    for (std::string_view word : {v.word, v.alias}) {
      if (word.empty()) continue;
      EXPECT_NE(std::find(all.begin(), all.end(), word), all.end()) << word;
    }
  }
}

TEST(CliCompletion, EverySubVerbCompletes) {
  CliRig rig;
  for (const Verb& v : Interpreter::verbs()) {
    for (const SubVerb& sub : v.subs) {
      std::string line(v.word);
      if (sub.at == 1)
        line += v.operand == Operand::kIface ? " hwcfg::pipe_MbType_out"
                                             : (v.operand == Operand::kFilter ? " pipe" : " pred");
      line += " ";
      auto c = rig.gdb->complete(line);
      EXPECT_NE(std::find(c.begin(), c.end(), sub.word), c.end()) << line << "| " << sub.word;
    }
  }
  auto c = rig.gdb->complete("iface hwcfg::pipe_MbType_out ");
  EXPECT_NE(std::find(c.begin(), c.end(), "tokens"), c.end());
}

TEST(CliCompletion, CommandPrefix) {
  CliRig rig;
  auto c = rig.gdb->complete("fi");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], "filter");
}

TEST(CliCompletion, FilterNames) {
  CliRig rig;
  auto c = rig.gdb->complete("filter ip");
  ASSERT_EQ(c.size(), 2u);  // ipf, ipred
  EXPECT_EQ(c[0], "ipf");
  EXPECT_EQ(c[1], "ipred");
}

TEST(CliCompletion, FilterVerbs) {
  CliRig rig;
  auto c = rig.gdb->complete("filter ipred c");
  EXPECT_NE(std::find(c.begin(), c.end(), "catch"), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), "configure"), c.end());
}

TEST(CliCompletion, CatchSuggestsFilterInputs) {
  CliRig rig;
  auto c = rig.gdb->complete("filter ipred catch ");
  EXPECT_NE(std::find(c.begin(), c.end(), "Pipe_in"), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), "Hwcfg_in"), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), "work"), c.end());
}

TEST(CliCompletion, IfaceNames) {
  CliRig rig;
  auto c = rig.gdb->complete("iface hwcfg::");
  EXPECT_NE(std::find(c.begin(), c.end(), "hwcfg::pipe_MbType_out"), c.end());
}

}  // namespace
}  // namespace dfdbg::cli
