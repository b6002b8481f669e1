#include "dfdbg/sim/platform.hpp"

#include <sstream>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/strings.hpp"

namespace dfdbg::sim {

void MemoryModel::access(Kernel& kernel, std::uint64_t bytes) {
  accesses_.fetch_add(1, std::memory_order_relaxed);
  bytes_moved_.fetch_add(bytes, std::memory_order_relaxed);
  // One latency per access plus one cycle per 8-byte word beyond the first.
  SimTime cost = latency_ + (bytes > 8 ? (bytes - 1) / 8 : 0);
  if (kernel.current() != nullptr) kernel.advance(cost);
}

void Pe::execute(Kernel& kernel, SimTime cycles) {
  while (busy_) kernel.wait(free_event_);
  busy_ = true;
  executions_++;
  busy_cycles_ += cycles;
  kernel.advance(cycles);
  busy_ = false;
  kernel.notify(free_event_);
}

void DmaEngine::transfer(Kernel& kernel, MemoryModel& src, MemoryModel& dst,
                         std::uint64_t bytes) {
  // Parallel backend: engines serve every partition, but the busy flag and
  // free event assume single-partition use (an event's waiters must share a
  // partition). With several partitions, exclusivity is waived for workers —
  // latency is still paid, engine contention is not modelled. A one-worker
  // parallel kernel keeps full contention modelling, which is what makes its
  // schedule byte-identical to the sequential backends.
  bool exclusive = kernel.current_partition() < 0 || kernel.partition_count() == 1;
  if (exclusive) {
    while (busy_) kernel.wait(free_event_);
    busy_ = true;
  }
  transfers_.fetch_add(1, std::memory_order_relaxed);
  bytes_moved_.fetch_add(bytes, std::memory_order_relaxed);
  // Touch both ends: each zero-byte access counts and waits its memory's
  // latency (no per-word cost), then the engine's setup and bandwidth.
  src.access(kernel, 0);
  dst.access(kernel, 0);
  SimTime cost = setup_ + (bw_ > 0 ? bytes / bw_ : 0);
  kernel.advance(cost);
  if (exclusive) {
    busy_ = false;
    kernel.notify(free_event_);
  }
}

Platform::Platform(Kernel& kernel, const PlatformConfig& config)
    : kernel_(kernel), config_(config) {
  DFDBG_CHECK(config.host_cores >= 1);
  DFDBG_CHECK(config.clusters >= 1);
  DFDBG_CHECK(config.pes_per_cluster >= 1);
  for (int i = 0; i < config.host_cores; ++i)
    host_.push_back(std::make_unique<Pe>(strformat("host%d", i), PeKind::kHost, -1));
  for (int c = 0; c < config.clusters; ++c) {
    Cluster cl;
    cl.index = c;
    for (int p = 0; p < config.pes_per_cluster; ++p)
      cl.pes.push_back(std::make_unique<Pe>(strformat("c%dp%d", c, p), PeKind::kFabric, c));
    for (int a = 0; a < config.accel_slots_per_cluster; ++a)
      cl.accelerators.push_back(
          std::make_unique<Pe>(strformat("c%da%d", c, a), PeKind::kAccelerator, c));
    cl.l1 = std::make_unique<MemoryModel>(strformat("L1.c%d", c), config.l1_bytes,
                                          config.l1_latency);
    fabric_.push_back(std::move(cl));
  }
  l2_ = std::make_unique<MemoryModel>("L2", config.l2_bytes, config.l2_latency);
  l3_ = std::make_unique<MemoryModel>("L3", config.l3_bytes, config.l3_latency);
  for (int d = 0; d < config.dma_engines; ++d)
    dmas_.push_back(std::make_unique<DmaEngine>(strformat("dma%d", d), config.dma_setup_cycles,
                                                config.dma_bytes_per_cycle));
}

Pe* Platform::pe_by_name(const std::string& name) const {
  for (const auto& p : host_)
    if (p->name() == name) return p.get();
  for (const auto& cl : fabric_) {
    for (const auto& p : cl.pes)
      if (p->name() == name) return p.get();
    for (const auto& p : cl.accelerators)
      if (p->name() == name) return p.get();
  }
  return nullptr;
}

Pe& Platform::allocate_fabric_pe() {
  std::size_t total = static_cast<std::size_t>(config_.clusters) *
                      static_cast<std::size_t>(config_.pes_per_cluster);
  std::size_t idx = next_pe_ % total;
  next_pe_++;
  // Spread across clusters first, then across PEs within a cluster.
  std::size_t cluster = idx % static_cast<std::size_t>(config_.clusters);
  std::size_t pe = idx / static_cast<std::size_t>(config_.clusters);
  return *fabric_[cluster].pes[pe];
}

std::size_t Platform::pe_count() const {
  std::size_t n = host_.size();
  for (const auto& cl : fabric_) n += cl.pes.size() + cl.accelerators.size();
  return n;
}

std::string Platform::to_dot() const {
  std::ostringstream os;
  os << "digraph p2012 {\n  rankdir=LR;\n  node [shape=box];\n";
  os << "  subgraph cluster_host {\n    label=\"Host (ARM)\";\n";
  for (const auto& p : host_) os << "    \"" << p->name() << "\";\n";
  os << "  }\n";
  for (const auto& cl : fabric_) {
    os << "  subgraph cluster_c" << cl.index << " {\n    label=\"Cluster " << cl.index
       << "\";\n";
    for (const auto& p : cl.pes) os << "    \"" << p->name() << "\";\n";
    for (const auto& p : cl.accelerators)
      os << "    \"" << p->name() << "\" [shape=component];\n";
    os << "    \"" << cl.l1->name() << "\" [shape=cylinder];\n";
    for (const auto& p : cl.pes)
      os << "    \"" << p->name() << "\" -> \"" << cl.l1->name() << "\";\n";
    for (const auto& p : cl.accelerators)
      os << "    \"" << p->name() << "\" -> \"" << cl.l1->name() << "\";\n";
    os << "  }\n";
  }
  os << "  \"L2\" [shape=cylinder];\n  \"L3\" [shape=cylinder];\n";
  for (const auto& cl : fabric_) os << "  \"" << cl.l1->name() << "\" -> \"L2\";\n";
  for (const auto& d : dmas_) {
    os << "  \"" << d->name() << "\" [shape=cds];\n";
    os << "  \"L2\" -> \"" << d->name() << "\" -> \"L3\";\n";
  }
  for (const auto& p : host_) os << "  \"" << p->name() << "\" -> \"L3\";\n";
  os << "}\n";
  return os.str();
}

}  // namespace dfdbg::sim
