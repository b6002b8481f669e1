// dfdbg-transcript: runs a seeded wide synthetic graph under the parallel
// backend and prints the merged journal transcript to stdout.
//
// The point is the determinism sweep in scripts/check_build.sh: two runs at
// the same (workers, seed) must produce byte-identical output, at every
// worker count. The transcript covers every journal event the debugger
// replays — dispatch records, token pushes/pops with provenance ids, in
// barrier merge order — so a byte diff is the strongest cheap witness that
// the barrier protocol (per-round journal merge, deferred notifies, boundary
// drains) and sparse wakes kept the schedule a function of the program.
//
// Usage: dfdbg-transcript <workers> [seed] [tokens]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "../bench/wide_graph.hpp"
#include "dfdbg/obs/journal.hpp"
#include "dfdbg/obs/metrics.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <workers> [seed] [tokens]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfdbg;
  if (argc < 2 || argc > 4) return usage(argv[0]);
  const int workers = std::atoi(argv[1]);
  if (workers < 1 || workers > sim::kMaxParallelWorkers) return usage(argv[0]);
  const std::uint32_t seed = argc > 2 ? static_cast<std::uint32_t>(std::atoll(argv[2])) : 1u;
  const std::size_t tokens = argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 32;

  obs::set_enabled(true);
  obs::Journal& j = obs::Journal::global();
  j.set_capacity(1 << 18);
  j.reset();

  benchutil::WideGraphConfig cfg;
  cfg.pipelines = 4;
  cfg.stages = 2;
  cfg.tokens = tokens;
  cfg.spin = 16;
  cfg.seed = seed;
  cfg.fixed_partitions = true;
  auto w = benchutil::build_wide_world(cfg, sim::ProcessBackend::kParallel, workers);
  benchutil::run_wide_world(*w);

  const std::uint64_t checksum = benchutil::sink_checksum(*w);
  if (checksum != w->expected_checksum) {
    std::fprintf(stderr, "FAIL: sink checksum %llu != expected %llu\n",
                 static_cast<unsigned long long>(checksum),
                 static_cast<unsigned long long>(w->expected_checksum));
    return 1;
  }
  std::fputs(j.format_last(j.size()).c_str(), stdout);
  return 0;
}
