// CS-D — §VI-D token state & information flow: token recording
// (`iface ... record/print`) and provenance (`filter ... info last_token`
// with the splitter behaviour). Verifies the transcripts and measures the
// recording/provenance machinery.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/dbgcli/render.hpp"

using namespace dfdbg;

namespace {

/// The recorded-MbType transcript (5/10/15) on a forced-mode stream.
bool transcript_check(std::string* recorded, std::string* provenance) {
  h264::H264AppConfig cfg = benchutil::decoder_config(2, 2, 1);
  cfg.forced_modes.assign(static_cast<std::size_t>(cfg.params.total_mbs()),
                          h264::MbMode::kIntraDC);
  cfg.forced_modes[1] = h264::MbMode::kIntraH;
  cfg.forced_modes[2] = h264::MbMode::kIntraV;
  auto built = h264::H264App::build(cfg);
  DFDBG_CHECK(built.ok());
  auto& app = **built;
  dbg::Session session(app.app());
  session.attach();
  app.start();
  DFDBG_CHECK(session.record_iface("hwcfg::pipe_MbType_out").ok());
  DFDBG_CHECK(session.configure_behavior("red", dbg::ActorBehavior::kSplitter).ok());
  DFDBG_CHECK(session.break_on_receive("pipe::Red2PipeCbMB_in").ok());
  for (int i = 0; i < 3; ++i) {
    auto out = session.run();
    DFDBG_CHECK(out.result == sim::RunResult::kStopped);
  }
  *recorded = session.print_recorded("hwcfg::pipe_MbType_out");
  *provenance = cli::render_or_error(session.last_token_view("pipe"));
  return starts_with(*recorded, "#1 (U16) 5\n#2 (U16) 10\n#3 (U16) 15") &&
         provenance->find("#1 red -> pipe (CbCrMB_t){") != std::string::npos &&
         provenance->find("#2 bh -> red (U32)") != std::string::npos;
}

void BM_DecodeWithRecordingOff(benchmark::State& state) {
  for (auto _ : state) {
    double t = benchutil::run_decoder_once(benchutil::decoder_config(2, 2, 2), true, nullptr);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_DecodeWithRecordingOff);

void BM_DecodeWithRecordingAll(benchmark::State& state) {
  // Record every interface of the decoder (the paper's "communication-
  // intensive" worst case).
  std::size_t mem = 0;
  std::uint64_t total = 0;
  for (auto _ : state) {
    auto built = h264::H264App::build(benchutil::decoder_config(2, 2, 2));
    DFDBG_CHECK(built.ok());
    auto& app = **built;
    dbg::Session session(app.app());
    session.attach();
    for (const dbg::DConnection& c : session.graph().connections()) {
      if (c.link != UINT32_MAX && !c.is_input)
        DFDBG_CHECK(session.record_iface(c.iface()).ok());
    }
    app.start();
    for (;;) {
      auto out = session.run();
      if (out.result != sim::RunResult::kStopped) break;
    }
    mem = session.recorder().memory_bytes();
    total = session.recorder().total_recorded();
  }
  state.counters["recorded_tokens"] = static_cast<double>(total);
  state.counters["recording_bytes"] = static_cast<double>(mem);
}
BENCHMARK(BM_DecodeWithRecordingAll);

void BM_ProvenanceWalk(benchmark::State& state) {
  // Cost of walking a deep provenance chain.
  dbg::GraphModel model;
  model.on_register_actor(dbg::DActorKind::kFilter, "a", "m.a", "", "m", 0);
  model.on_register_actor(dbg::DActorKind::kFilter, "b", "m.b", "", "m", 1);
  model.on_register_port("m.a", "o", false, "U32");
  model.on_register_port("m.b", "i", true, "U32");
  model.on_register_port("m.b", "o", false, "U32");
  model.on_register_port("m.a", "i", true, "U32");
  model.on_register_link(0, "a::o -> b::i", "m.a", "o", "m.b", "i", "U32", "L1");
  model.on_register_link(1, "b::o -> a::i", "m.b", "o", "m.a", "i", "U32", "L1");
  model.on_graph_ready();
  model.set_behavior("a", dbg::ActorBehavior::kPipeline);
  model.set_behavior("b", dbg::ActorBehavior::kPipeline);
  // Ping-pong a token 64 hops deep.
  dbg::TokenId last;
  std::uint64_t idx = 0;
  for (int hop = 0; hop < 64; ++hop) {
    std::uint32_t link = hop % 2 == 0 ? 0u : 1u;
    const std::uint32_t producer = hop % 2 == 0 ? 0 : 1;  // framework ids of m.a, m.b
    const std::uint32_t consumer = 1 - producer;
    last = model.on_push(link, idx++, pedf::Value::u32(1), producer, 1);
    model.on_pop(link, consumer, 2);
  }
  for (auto _ : state) {
    auto path = model.token_path(last, 64);
    benchmark::DoNotOptimize(path.size());
  }
  state.counters["chain_depth"] =
      static_cast<double>(model.token_path(last, 64).size());
}
BENCHMARK(BM_ProvenanceWalk);

}  // namespace

int main(int argc, char** argv) {
  std::string recorded, provenance;
  bool ok = transcript_check(&recorded, &provenance);
  std::printf("=== CS-D: token recording & information flow transcripts ===\n");
  std::printf("(gdb) iface hwcfg::pipe_MbType_out print\n%s", recorded.c_str());
  std::printf("(gdb) filter pipe info last_token\n%s", provenance.c_str());
  std::printf("transcripts match the paper: %s\n\n", ok ? "YES" : "NO");
  benchutil::run_all_benchmarks(&argc, argv);
  return ok ? 0 : 1;
}
