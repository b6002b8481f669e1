// The benchmark's own wide synthetic graph: `lanes` independent pipelines of
// `stages` filters each, fanned into one merge filter and a host sink. This is
// the shape of the google-benchmark suite's BM_ParallelScaling, kept here so
// that edits to that suite cannot silently change what this benchmark runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dfdbg/pedf/application.hpp"
#include "dfdbg/pedf/filter.hpp"
#include "dfdbg/pedf/module.hpp"
#include "dfdbg/sim/kernel.hpp"
#include "dfdbg/sim/platform.hpp"

namespace perfbench {

/// Per-token stage work: `iters` xorshift rounds, pure integer mixing.
inline std::uint32_t spin(std::uint32_t iters, std::uint32_t x) {
  x |= 1u;
  for (std::uint32_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
  }
  return x;
}

/// What a stage does to a token: order-preserving, but dependent on the spin
/// result so the work cannot be optimised away.
inline std::uint32_t stage(std::uint32_t v, std::uint32_t iters) {
  return v + 1u + (spin(iters, v) & 1u);
}

struct WideConfig {
  int lanes = 16;
  int stages = 2;
  std::size_t tokens = 256;  ///< per lane
  std::uint32_t iters = 4000;
  std::uint32_t seed = 1;
};

/// Payload stream of every lane, recomputable on the host.
inline std::vector<std::vector<std::uint32_t>> wide_inputs(const WideConfig& cfg) {
  std::vector<std::vector<std::uint32_t>> lanes(static_cast<std::size_t>(cfg.lanes));
  for (int p = 0; p < cfg.lanes; ++p) {
    std::uint32_t x = cfg.seed ^ (0x9E3779B9u * static_cast<std::uint32_t>(p + 1));
    for (std::size_t j = 0; j < cfg.tokens; ++j) {
      if (x == 0) x = 1;
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      lanes[static_cast<std::size_t>(p)].push_back(x);
    }
  }
  return lanes;
}

/// Host reference: the order-independent sum of what the sink must receive.
inline std::uint64_t wide_reference_checksum(const WideConfig& cfg) {
  std::uint64_t sum = 0;
  for (const auto& lane : wide_inputs(cfg))
    for (std::uint32_t v : lane) {
      for (int s = 0; s < cfg.stages; ++s) v = stage(v, cfg.iters);
      sum += v;
    }
  return sum;
}

struct WideWorld {
  std::unique_ptr<sim::Kernel> kernel;
  std::unique_ptr<sim::Platform> platform;
  std::unique_ptr<pedf::Application> app;
  pedf::HostSink* sink = nullptr;
};

/// Builds and elaborates the graph on a fresh kernel. One platform cluster
/// per lane and one PE per stage, so the default partition map spreads the
/// lanes over the parallel backend's workers.
inline std::unique_ptr<WideWorld> build_wide(const WideConfig& cfg,
                                             const std::vector<std::vector<std::uint32_t>>& inputs,
                                             sim::ProcessBackend backend, int workers) {
  using pedf::PortDir;
  auto w = std::make_unique<WideWorld>();
  w->kernel = std::make_unique<sim::Kernel>(backend, workers);
  sim::PlatformConfig pc;
  pc.clusters = cfg.lanes;
  pc.pes_per_cluster = cfg.stages + 1;
  w->platform = std::make_unique<sim::Platform>(*w->kernel, pc);
  w->app = std::make_unique<pedf::Application>(*w->platform, "wide");
  w->app->set_model_latencies(false);

  const pedf::TypeDesc u32{pedf::ScalarType::kU32};
  auto root = std::make_unique<pedf::Module>("top");
  root->add_port("out", PortDir::kOut, u32);
  const std::uint32_t iters = cfg.iters;
  for (int p = 0; p < cfg.lanes; ++p) {
    root->add_port("in" + std::to_string(p), PortDir::kIn, u32);
    for (int s = 0; s < cfg.stages; ++s) {
      auto f = std::make_unique<pedf::FnFilter>(
          "s" + std::to_string(p) + "_" + std::to_string(s), [iters](pedf::FilterContext& ctx) {
            auto v = ctx.in("in").get_opt();
            if (!v.has_value()) {
              ctx.stop();
              return;
            }
            ctx.out("out").put(
                pedf::Value::u32(stage(static_cast<std::uint32_t>(v->as_u64()), iters)));
          });
      f->add_port("in", PortDir::kIn, u32);
      f->add_port("out", PortDir::kOut, u32);
      f->set_free_running(true);
      root->add_filter(std::move(f));
    }
  }
  const int lanes = cfg.lanes;
  auto merge = std::make_unique<pedf::FnFilter>("merge", [lanes](pedf::FilterContext& ctx) {
    for (int p = 0; p < lanes; ++p) {
      auto v = ctx.in("in" + std::to_string(p)).get_opt();
      if (!v.has_value()) {
        ctx.stop();
        return;
      }
      ctx.out("out").put(*v);
    }
  });
  for (int p = 0; p < cfg.lanes; ++p)
    merge->add_port("in" + std::to_string(p), PortDir::kIn, u32);
  merge->add_port("out", PortDir::kOut, u32);
  merge->set_free_running(true);
  root->add_filter(std::move(merge));

  for (int p = 0; p < cfg.lanes; ++p) {
    const std::string lane = std::to_string(p);
    root->bind("this.in" + lane, "s" + lane + "_0.in");
    for (int s = 1; s < cfg.stages; ++s)
      root->bind("s" + lane + "_" + std::to_string(s - 1) + ".out",
                 "s" + lane + "_" + std::to_string(s) + ".in");
    root->bind("s" + lane + "_" + std::to_string(cfg.stages - 1) + ".out", "merge.in" + lane);
  }
  root->bind("merge.out", "this.out");
  pedf::Application& app = *w->app;
  app.set_root(std::move(root));

  for (int p = 0; p < cfg.lanes; ++p) {
    for (int s = 0; s < cfg.stages; ++s)
      app.map_actor("top.s" + std::to_string(p) + "_" + std::to_string(s),
                    "c" + std::to_string(p) + "p" + std::to_string(s));
    std::vector<pedf::Value> stream;
    stream.reserve(cfg.tokens);
    for (std::uint32_t v : inputs[static_cast<std::size_t>(p)]) stream.push_back(pedf::Value::u32(v));
    app.add_host_source("src" + std::to_string(p), "top.in" + std::to_string(p), std::move(stream));
  }
  app.map_actor("top.merge", "c0p" + std::to_string(cfg.stages));
  w->sink = &app.add_host_sink("snk", "top.out",
                               static_cast<std::size_t>(cfg.lanes) * cfg.tokens);
  if (!app.elaborate().ok()) return nullptr;
  return w;
}

/// Tokens moved over every link of the world so far.
inline std::uint64_t link_pushes(const pedf::Application& app) {
  std::uint64_t n = 0;
  for (const auto& l : app.links()) n += l->push_index();
  return n;
}

}  // namespace perfbench
