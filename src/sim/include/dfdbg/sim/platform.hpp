// Functional model of the P2012-like MPSoC platform (paper Fig. 1):
// a general-purpose multicore host, a fabric of clusters of configurable
// PEs sharing an L1 memory, an inter-cluster L2, a host-fabric L3 reached
// through DMA engines, and optional hardware-accelerator slots wired into
// the fabric.
//
// The model is functional-with-latencies: memory accesses, DMA transfers and
// PE execution advance simulated time; PEs are exclusive resources (two
// actors mapped to the same PE serialize).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfdbg/sim/event.hpp"
#include "dfdbg/sim/kernel.hpp"
#include "dfdbg/sim/time.hpp"

namespace dfdbg::sim {

/// Dimensions and latencies of the simulated platform.
struct PlatformConfig {
  int host_cores = 2;          ///< general-purpose host cores (ARM side)
  int clusters = 4;            ///< fabric clusters
  int pes_per_cluster = 16;    ///< STxP70-like PEs per cluster
  int accel_slots_per_cluster = 2;  ///< HW accelerator slots per cluster
  std::uint64_t l1_bytes = 256 * 1024;
  std::uint64_t l2_bytes = 1 * 1024 * 1024;
  std::uint64_t l3_bytes = 64 * 1024 * 1024;
  SimTime l1_latency = 1;      ///< cycles per access
  SimTime l2_latency = 8;
  SimTime l3_latency = 32;
  int dma_engines = 2;
  SimTime dma_setup_cycles = 16;
  std::uint64_t dma_bytes_per_cycle = 8;
};

/// A latency-modelled memory. Accesses advance simulated time when performed
/// from process context and are counted for the platform statistics.
class MemoryModel {
 public:
  MemoryModel(std::string name, std::uint64_t bytes, SimTime latency)
      : name_(std::move(name)), bytes_(bytes), latency_(latency) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t size_bytes() const { return bytes_; }
  [[nodiscard]] SimTime latency() const { return latency_; }

  /// Performs one access of `bytes` bytes: advances time by the latency plus
  /// a per-word cost. Must be called from process context.
  void access(Kernel& kernel, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t access_count() const {
    return accesses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_transferred() const {
    return bytes_moved_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::uint64_t bytes_;
  SimTime latency_;
  // Shared memories (L1, L2, L3) are touched by every partition's workers
  // under the parallel backend; relaxed atomics keep the tallies exact.
  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<std::uint64_t> bytes_moved_{0};
};

/// Where a processing element lives.
enum class PeKind { kHost, kFabric, kAccelerator };

/// An exclusive processing element. Actors mapped to the same PE serialize
/// through acquire/execute/release.
class Pe {
 public:
  Pe(std::string name, PeKind kind, int cluster_index)
      : name_(std::move(name)), kind_(kind), cluster_(cluster_index),
        free_event_("pe-free:" + name_) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] PeKind kind() const { return kind_; }
  /// Cluster index, or -1 for host PEs.
  [[nodiscard]] int cluster_index() const { return cluster_; }
  [[nodiscard]] bool busy() const { return busy_; }

  /// Runs `cycles` of computation on this PE, waiting for exclusivity first.
  /// Must be called from process context.
  void execute(Kernel& kernel, SimTime cycles);

  [[nodiscard]] SimTime busy_cycles() const { return busy_cycles_; }
  [[nodiscard]] std::uint64_t execution_count() const { return executions_; }

 private:
  std::string name_;
  PeKind kind_;
  int cluster_;
  bool busy_ = false;
  Event free_event_;
  SimTime busy_cycles_ = 0;
  std::uint64_t executions_ = 0;
};

/// A fabric cluster: PEs + accelerator slots sharing an L1 memory.
struct Cluster {
  int index = 0;
  std::vector<std::unique_ptr<Pe>> pes;
  std::vector<std::unique_ptr<Pe>> accelerators;
  std::unique_ptr<MemoryModel> l1;
};

/// A DMA engine moving data between memories (host<->fabric exchanges).
class DmaEngine {
 public:
  DmaEngine(std::string name, SimTime setup_cycles, std::uint64_t bytes_per_cycle)
      : name_(std::move(name)), setup_(setup_cycles), bw_(bytes_per_cycle),
        free_event_("dma-free:" + name_) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Transfers `bytes` from `src` to `dst`, serializing concurrent users of
  /// this engine. Three timed waits: `src`'s access latency, `dst`'s access
  /// latency (zero-byte MemoryModel::access calls, which also count the
  /// touches), then setup plus bytes/bandwidth — with the default config, an
  /// L2<->L3 transfer of 64 B takes 8 + 32 + 16 + 8 = 64 cycles. Must be
  /// called from process context. Parallel backend: a DMA engine is the one
  /// platform resource deliberately shared across partitions, so exclusivity
  /// is waived there — each worker pays the full transfer latency but engine
  /// contention is not modelled (see docs/KERNEL.md "Parallel backend").
  void transfer(Kernel& kernel, MemoryModel& src, MemoryModel& dst, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t transfer_count() const {
    return transfers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_transferred() const {
    return bytes_moved_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  SimTime setup_;
  std::uint64_t bw_;
  bool busy_ = false;
  Event free_event_;
  std::atomic<std::uint64_t> transfers_{0};
  std::atomic<std::uint64_t> bytes_moved_{0};
};

/// The whole platform instance. Owns all hardware models.
class Platform {
 public:
  /// Builds a platform of the given dimensions. `kernel` must outlive it.
  Platform(Kernel& kernel, const PlatformConfig& config);

  [[nodiscard]] const PlatformConfig& config() const { return config_; }
  [[nodiscard]] Kernel& kernel() { return kernel_; }

  [[nodiscard]] const std::vector<std::unique_ptr<Pe>>& host_pes() const { return host_; }
  [[nodiscard]] const std::vector<Cluster>& fabric() const { return fabric_; }
  [[nodiscard]] std::vector<Cluster>& fabric() { return fabric_; }
  [[nodiscard]] MemoryModel& l2() { return *l2_; }
  [[nodiscard]] MemoryModel& l3() { return *l3_; }
  [[nodiscard]] std::vector<std::unique_ptr<DmaEngine>>& dmas() { return dmas_; }

  /// PE lookup by name ("host0", "c1p3", "c0a1"); nullptr if unknown.
  [[nodiscard]] Pe* pe_by_name(const std::string& name) const;

  /// Deterministic round-robin allocation of fabric PEs for actor mapping.
  Pe& allocate_fabric_pe();

  /// Total number of PEs (host + fabric + accelerators).
  [[nodiscard]] std::size_t pe_count() const;

  /// Emits the platform topology as Graphviz DOT (regenerates paper Fig. 1).
  [[nodiscard]] std::string to_dot() const;

 private:
  Kernel& kernel_;
  PlatformConfig config_;
  std::vector<std::unique_ptr<Pe>> host_;
  std::vector<Cluster> fabric_;
  std::unique_ptr<MemoryModel> l2_;
  std::unique_ptr<MemoryModel> l3_;
  std::vector<std::unique_ptr<DmaEngine>> dmas_;
  std::size_t next_pe_ = 0;
};

}  // namespace dfdbg::sim
