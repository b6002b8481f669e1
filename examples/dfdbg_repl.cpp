// Interactive dataflow debugger REPL over the H.264 case-study decoder.
//
// Usage:
//   ./build/examples/dfdbg_repl [fault]
//     fault: none | rate-mismatch | corrupt-splitter | drop-config | skip-ipf
//
// Then drive it with the paper's commands:
//   (dfdbg) graph
//   (dfdbg) filter pipe catch work
//   (dfdbg) run
//   (dfdbg) filter pipe info last_token
//   (dfdbg) complete filter ip        # completion candidates
//   (dfdbg) quit
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "dfdbg/common/strings.hpp"
#include "dfdbg/dbgcli/cli.hpp"
#include "dfdbg/dbgcli/timetravel.hpp"
#include "dfdbg/debug/session.hpp"
#include "dfdbg/h264/app.hpp"

using namespace dfdbg;

namespace {
/// Rebuildable instance for reverse execution.
class ReplInstance : public cli::ReplayInstance {
 public:
  explicit ReplInstance(const h264::H264AppConfig& cfg) {
    auto built = h264::H264App::build(cfg);
    DFDBG_CHECK_MSG(built.ok(), built.status().message());
    app_ = std::move(*built);
  }
  pedf::Application& app() override { return app_->app(); }
  void start() override { app_->start(); }

 private:
  std::unique_ptr<h264::H264App> app_;
};
}  // namespace

int main(int argc, char** argv) {
  h264::H264AppConfig cfg;
  cfg.params.width = 32;
  cfg.params.height = 32;
  cfg.params.frame_count = 2;
  if (argc > 1) {
    std::string fault = argv[1];
    if (fault == "rate-mismatch") {
      cfg.fault.kind = h264::FaultPlan::Kind::kRateMismatch;
      cfg.fault.trigger_mb = 0;
      cfg.fault.period = 1;
    } else if (fault == "corrupt-splitter") {
      cfg.fault.kind = h264::FaultPlan::Kind::kCorruptSplitter;
      cfg.fault.trigger_mb = 2;
    } else if (fault == "drop-config") {
      cfg.fault.kind = h264::FaultPlan::Kind::kDropConfig;
      cfg.fault.trigger_mb = 2;
    } else if (fault == "skip-ipf") {
      cfg.fault.kind = h264::FaultPlan::Kind::kSkipIpf;
      cfg.fault.trigger_mb = 1;
    } else if (fault != "none") {
      std::fprintf(stderr,
                   "unknown fault '%s' (use none|rate-mismatch|corrupt-splitter|"
                   "drop-config|skip-ipf)\n",
                   fault.c_str());
      return 2;
    }
  }

  cli::TimeTravelDebugger tt(
      [cfg] { return std::unique_ptr<cli::ReplayInstance>(new ReplInstance(cfg)); });

  std::printf("dataflow-dbg REPL — H.264 decoder loaded (%d MBs, fault: %s)\n",
              cfg.params.total_mbs(), h264::to_string(cfg.fault.kind));
  std::printf("`help` lists the debugger commands; the REPL adds complete <prefix>,\n"
              "reverse (travel back one stop) and quit\n");

  std::string line;
  for (;;) {
    std::printf("(dfdbg) ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = trim(line);
    if (trimmed == "quit" || trimmed == "q" || trimmed == "exit") break;
    if (trimmed == "reverse" || trimmed == "rc") {
      Status s = tt.reverse_continue();
      if (!s.ok()) {
        std::printf("error: %s\n", s.message().c_str());
      } else if (!tt.session().history().empty()) {
        std::printf("%s   (back at stop %zu)\n",
                    tt.session().history().back().message.c_str(), tt.stop_count());
      } else {
        std::printf("[back at the beginning of the execution]\n");
      }
      continue;
    }
    if (trimmed == "run" || trimmed == "r" || trimmed == "continue" || trimmed == "c") {
      auto out = tt.cont();
      for (const auto& ev : out.stops) std::printf("%s\n", ev.message.c_str());
      continue;
    }
    if (starts_with(trimmed, "complete")) {
      std::string prefix(trim(trimmed.substr(std::strlen("complete"))));
      for (const std::string& c : tt.cli().complete(prefix))
        std::printf("  %s\n", c.c_str());
      continue;
    }
    tt.execute(line);
    std::fputs(tt.cli().console().take().c_str(), stdout);
  }
  std::printf("bye\n");
  return 0;
}
