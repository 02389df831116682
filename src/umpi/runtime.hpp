// runtime.hpp — the UMPI job: topology, fabric, and one thread per rank.
//
// A Runtime is one "job launch". Checkpoint/restart creates a *fresh*
// Runtime (the paper's "get a fresh lower half at restart", Figure 1) and
// replays communicator construction into it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sched/scheduler.hpp"
#include "simnet/cost_model.hpp"
#include "simnet/fabric.hpp"
#include "simnet/topology.hpp"
#include "umpi/coll/module.hpp"
#include "umpi/rank.hpp"

namespace manatee::umpi {

struct RuntimeConfig {
  int world_size = 4;
  int ranks_per_node = 8;
  simnet::CostParams cost{};

  /// Cluster shape (simnet/topology.hpp): node grouping, rail counts,
  /// per-level link costs, in-switch collective capability. A zero
  /// topo.ranks_per_node inherits `ranks_per_node` above, so existing
  /// configurations keep their flat layout untouched.
  simnet::TopoSpec topo{};

  /// Collective-algorithm tuning applied to every communicator of the job
  /// (forced algorithms + heuristic thresholds). Must be identical across
  /// ranks — it is part of the job configuration, exactly like world_size.
  coll::CollTuning coll{};

  /// Rank scheduling backend: N rank fibers multiplexed onto a worker pool
  /// (events, the default) or one OS thread per rank (sched/scheduler.hpp).
  /// Purely an execution-engine choice — results are bit-identical across
  /// backends.
  sched::SchedConfig sched{};
};

/// The function each rank thread executes (the "MPI application").
using AppFn = std::function<void(Rank&)>;

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Launch one task per rank running `app` on the configured scheduler
  /// backend (fibers on a worker pool, or one OS thread per rank) and
  /// block until all finish. Exceptions thrown by rank tasks are captured
  /// and the first one is rethrown here. May be called once per Runtime.
  void run(const AppFn& app);

  /// Scheduler counters of the completed run() (fiber backend only).
  [[nodiscard]] const sched::SchedStats& sched_stats() const noexcept {
    return sched_stats_;
  }

  [[nodiscard]] const RuntimeConfig& config() const noexcept { return config_; }
  [[nodiscard]] simnet::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const simnet::Topology& topology() const noexcept {
    return fabric_.topology();
  }
  [[nodiscard]] const simnet::CostModel& cost() const noexcept {
    return fabric_.cost();
  }
  [[nodiscard]] int world_size() const noexcept { return config_.world_size; }

  /// Rank objects are created in the constructor and live until the
  /// Runtime is destroyed, so clocks and counters remain inspectable after
  /// run() returns.
  [[nodiscard]] Rank& rank(int world_rank);

  /// The job-wide world group, built once and shared by every rank's world
  /// communicator (Group copies are O(1) shared handles). Without this a
  /// 65536-rank world pays world_size copies of a world_size-entry member
  /// table — ~16 GiB of pure duplication.
  [[nodiscard]] const Group& world_group() const noexcept {
    return world_group_;
  }

  /// The world communicator's collective module, likewise built once:
  /// selection inputs (tuning, size, topology view) are identical on every
  /// rank, and computing the topology view is O(p log p) per communicator —
  /// per-rank construction made job startup O(p^2 log p).
  [[nodiscard]] const coll::CollModulePtr& world_coll_module() const noexcept {
    return world_coll_module_;
  }

  /// Job makespan: maximum final virtual clock across ranks.
  [[nodiscard]] simnet::SimTime max_clock() const;

  /// Aggregate call counters across ranks.
  [[nodiscard]] CallCounters total_counters() const;

  /// Allocate `count` consecutive communicator base-context ids.
  std::uint64_t allocate_context_block(int count);

  /// True once any rank thread has failed; blocking waits observe this and
  /// unwind instead of deadlocking on a dead peer.
  [[nodiscard]] bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Graceful job stop (set after a completed checkpoint when the engine is
  /// configured to end the allocation): blocking waits unwind with
  /// JobStopping instead of waiting on peers that have already stopped.
  void request_stop() noexcept;
  [[nodiscard]] bool stop_requested() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

 private:
  RuntimeConfig config_;
  simnet::Fabric fabric_;
  Group world_group_;
  coll::CollModulePtr world_coll_module_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::atomic<std::uint64_t> next_base_context_;
  std::atomic<bool> aborted_{false};
  std::atomic<bool> stopping_{false};
  sched::SchedStats sched_stats_{};
  bool ran_ = false;
};

}  // namespace manatee::umpi
