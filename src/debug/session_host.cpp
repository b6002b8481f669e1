#include "dfdbg/debug/session_host.hpp"

#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "dfdbg/mind/analyze.hpp"
#include "dfdbg/mind/instantiate.hpp"
#include "dfdbg/mind/parser.hpp"
#include "dfdbg/sim/platform.hpp"
#include "wide_graph.hpp"

namespace dfdbg::dbg {
namespace {

/// Rigs that honour SessionSpec::backend flip the process-default backend
/// around kernel construction (the H.264 builder constructs its own kernel);
/// SessionFactory::build serializes on this mutex so concurrent creates on
/// different shard threads never observe each other's override.
std::mutex& build_mutex() {
  static std::mutex mu;
  return mu;
}

struct AdlRig {
  std::unique_ptr<sim::Kernel> kernel;
  std::unique_ptr<sim::Platform> platform;
  std::unique_ptr<pedf::Application> app;
};

Result<SessionFactory::RigParts> build_wide(const SessionSpec& spec) {
  if (spec.pipelines < 1 || spec.stages < 1 || spec.tokens < 1)
    return Status::error(ErrCode::kInvalidArgument, "wide rig needs pipelines/stages/tokens >= 1");
  auto backend = parse_backend(spec.backend);
  if (!backend.ok()) return backend.status();
  benchutil::WideGraphConfig cfg;
  cfg.pipelines = spec.pipelines;
  cfg.stages = spec.stages;
  cfg.tokens = static_cast<std::size_t>(spec.tokens);
  cfg.spin = spec.spin;
  cfg.seed = spec.seed;
  auto world = benchutil::build_wide_world(cfg, *backend, spec.workers);
  SessionFactory::RigParts parts;
  parts.app = world->app.get();
  parts.kernel = world->kernel.get();
  parts.holder = std::shared_ptr<void>(world.release(), [](void* p) {
    delete static_cast<benchutil::WideWorld*>(p);
  });
  return parts;
}

Result<SessionFactory::RigParts> build_adl(const SessionSpec& spec) {
  if (spec.path.empty()) return Status::error(ErrCode::kInvalidArgument, "adl rig needs a path");
  if (spec.top.empty()) return Status::error(ErrCode::kInvalidArgument, "adl rig needs a top definition");
  if (spec.steps < 1) return Status::error(ErrCode::kInvalidArgument, "adl rig needs steps >= 1");
  std::ifstream in(spec.path);
  if (!in) return Status::error("cannot open " + spec.path);
  std::ostringstream ss;
  ss << in.rdbuf();
  auto doc = mind::parse(ss.str());
  if (!doc.ok()) return doc.status();
  auto rep = mind::analyze(*doc, spec.top);
  if (!rep.ok()) return rep.status();

  auto backend = parse_backend(spec.backend);
  if (!backend.ok()) return backend.status();
  auto rig = std::make_shared<AdlRig>();
  rig->kernel = std::make_unique<sim::Kernel>(*backend, spec.workers);
  rig->platform = std::make_unique<sim::Platform>(*rig->kernel, sim::PlatformConfig{});
  rig->app = std::make_unique<pedf::Application>(*rig->platform, spec.top);
  mind::FilterRegistry registry;
  registry.set_default_steps(static_cast<std::uint64_t>(spec.steps));
  auto root = mind::instantiate(*doc, spec.top, "main", rig->app->types(), registry);
  if (!root.ok()) return root.status();
  pedf::Module& mod = rig->app->set_root(std::move(*root));
  // Generic host I/O on the top-level boundary ports (mindc's `run` recipe).
  for (const auto& port : mod.ports()) {
    if (port->dir() == pedf::PortDir::kIn) {
      std::vector<pedf::Value> stream(static_cast<std::size_t>(spec.steps),
                                      pedf::Value::zero_of(port->type()));
      rig->app->add_host_source("src_" + port->name(), "main." + port->name(),
                                std::move(stream));
    } else {
      rig->app->add_host_sink("snk_" + port->name(), "main." + port->name(),
                              static_cast<std::size_t>(spec.steps));
    }
  }
  if (Status s = rig->app->elaborate(); !s.ok()) return s;
  SessionFactory::RigParts parts;
  parts.app = rig->app.get();
  parts.kernel = rig->kernel.get();
  parts.holder = std::move(rig);
  return parts;
}

}  // namespace

SessionWorld::~SessionWorld() {
  // Teardown records too (link drains, fiber unwinds): keep it in-session.
  ThreadJournalScope scope(journal.get());
  session.reset();
  rig.reset();
}

Result<sim::ProcessBackend> parse_backend(const std::string& name) {
  if (name.empty()) return sim::default_process_backend();
  if (name == "fibers") return sim::ProcessBackend::kFibers;
  if (name == "parallel") return sim::ProcessBackend::kParallel;
  return Status::error(ErrCode::kInvalidArgument, "unknown backend '" + name +
                                  "' (fibers|parallel)");
}

SessionFactory::SessionFactory() {
  register_rig("wide", build_wide);
  register_rig("adl", build_adl);
}

void SessionFactory::register_rig(const std::string& name, Builder builder) {
  rigs_[name] = std::move(builder);
}

std::vector<std::string> SessionFactory::rigs() const {
  std::vector<std::string> out;
  out.reserve(rigs_.size());
  for (const auto& [name, b] : rigs_) out.push_back(name);
  return out;
}

Result<std::unique_ptr<SessionWorld>> SessionFactory::build(const SessionSpec& spec) const {
  auto it = rigs_.find(spec.rig);
  if (it == rigs_.end()) return Status::error(ErrCode::kNotFound, "unknown rig '" + spec.rig + "'");
  if (spec.quota.journal_capacity < 2)
    return Status::error(ErrCode::kInvalidArgument, "journal_capacity must be >= 2");

  std::lock_guard<std::mutex> lock(build_mutex());
  auto world = std::make_unique<SessionWorld>();
  world->journal = std::make_unique<obs::Journal>(spec.quota.journal_capacity);
  // Everything from rig construction through start() runs under the session
  // journal: kernels capture it as their shard base, and any event recorded
  // while wiring up lands in the session's private ring.
  ThreadJournalScope scope(world->journal.get());
  auto parts = it->second(spec);
  if (!parts.ok()) return parts.status();
  world->rig = std::move(parts->holder);
  world->app = parts->app;
  world->kernel = parts->kernel;
  world->session = std::make_unique<Session>(*world->app);
  world->session->attach();
  world->app->start();
  return world;
}

}  // namespace dfdbg::dbg
