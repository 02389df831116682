// scenario.hpp — the reusable checkpoint/restart scenario harness.
//
// One Scenario composes {workload × world size × protocol ×
// collective-algorithm override × failure schedule} into a single
// parameterized runner with a golden-run oracle: the failure-free
// trajectory (a native run of the same workload) must be bit-identical to
// the chained crash/restart trajectory driven by split::Lifecycle. Every
// integration test that used to hand-wire engines, image directories, and
// fingerprint plumbing goes through here instead.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "split/lifecycle.hpp"
#include "umpi/coll/module.hpp"

namespace manatee::harness {

/// A per-rank application returning its result fingerprint.
using FingerprintApp = std::function<std::uint64_t(split::Api&)>;

/// Workload proxies available to scenarios, scaled for test runtimes.
enum class WorkloadKind { kMixed, kLammps, kComd, kSw4, kVasp, kPoissonCg };
[[nodiscard]] const char* workload_name(WorkloadKind kind);

/// All proxies usable under `protocol` (PoissonCg is NBC-only → CC only;
/// MixedApp drops its NBC phase under 2PC).
[[nodiscard]] std::vector<WorkloadKind> workloads_for(split::Protocol protocol);

/// Rough failure-free virtual makespan of the scaled workload (ns) — the
/// anchor for sizing Poisson means / fixed-time schedules relative to the
/// job length.
[[nodiscard]] simnet::SimTime approx_virtual_makespan_ns(WorkloadKind kind);

/// Rough per-rank collective-call count of the scaled workload — the
/// anchor for collective-count failure ladders (p2p-heavy proxies have too
/// few collectives for count-based schedules).
[[nodiscard]] std::uint64_t approx_collective_calls(WorkloadKind kind);

/// Instantiate the scaled workload (protocol decides NBC usage).
[[nodiscard]] FingerprintApp make_workload(WorkloadKind kind,
                                           split::Protocol protocol);

struct Scenario {
  /// Unique tag; names the image directory (parallel scenarios must differ).
  std::string tag = "scenario";
  WorkloadKind workload = WorkloadKind::kMixed;
  /// When set, runs instead of the `workload` proxy (the proxy registry is
  /// the common case; hand-written apps plug in here).
  FingerprintApp custom_app;
  int world = 4;
  int ranks_per_node = 4;
  /// Cluster shape (simnet/topology.hpp). Zero topo.ranks_per_node inherits
  /// `ranks_per_node` above; switch_coll enables the in-switch offload.
  /// Applied to the golden run and every lifecycle segment alike.
  simnet::TopoSpec topo{};
  /// How checkpoints drain in-switch collective state (cut-through vs
  /// quiesce; see ckpt/coordinator.hpp).
  ckpt::SwitchDrainMode switch_drain = ckpt::SwitchDrainMode::kCutThrough;
  split::Protocol protocol = split::Protocol::kCC;
  /// Collective-algorithm override (empty strings = heuristic selection).
  umpi::coll::CollTuning coll{};
  /// Rank scheduling backend (events vs threads; defaults honor
  /// MANATEE_SCHED so whole suites can be flipped wholesale). Applied to
  /// the golden run and every lifecycle segment alike.
  sched::SchedConfig sched{};
  /// Whole-lifecycle failure schedule (see failure_schedule.hpp).
  split::FailureSchedule failures{};
  int retain_generations = 3;
  std::size_t max_segments = 16;
  // ---- checkpoint write-back pipeline axes (split/engine.hpp knobs) ----
  bool ckpt_delta = false;
  bool ckpt_async = false;
  bool ckpt_replicate = false;
  int ckpt_full_every = 8;
  /// Crash-injection seam forwarded to the engine (false = skip the
  /// publish rename of that generation once).
  std::function<bool(std::uint64_t)> ckpt_publish_hook;
  /// Run the §4.2.2 drain-graph oracle on every crashed segment.
  bool check_oracle = true;
  long wait_timeout_ms = 20'000;

  [[nodiscard]] std::string describe() const;
};

struct ScenarioOutcome {
  std::vector<std::uint64_t> golden;   ///< failure-free (native) fingerprints
  std::vector<std::uint64_t> chained;  ///< post-storm final fingerprints
  split::LifecycleReport lifecycle;
  std::string image_dir;
};

/// Fresh (emptied) scratch directory `<tmp>/manatee_<pid>/<tag>`: private
/// to this process and removed with it at exit.
[[nodiscard]] std::string fresh_dir(const std::string& tag);

/// Engine-config builder for tests that drive engines directly (shared by
/// the non-lifecycle integration tests).
[[nodiscard]] split::EngineConfig make_engine_config(
    split::Protocol protocol, int world, const std::string& image_dir,
    std::vector<std::uint64_t> trigger_at_collectives = {},
    bool stop_after_checkpoint = false, int ranks_per_node = 4,
    bool record_trace = true);

/// gtest-asserting drain-graph oracle check for checkpoint cycles
/// [1, cycles] of `engine` (minimality only applies to CC).
void expect_safe_state(split::Engine& engine, std::uint64_t cycles,
                       bool minimality);

/// Run golden (failure-free native) + chained lifecycle for one scenario.
/// Performs no assertions; throws on engine-level errors.
[[nodiscard]] ScenarioOutcome run_scenario(const Scenario& scenario);

/// Full gtest-asserting round trip: chained == golden, the lifecycle
/// completed, every crash restored from a generation, the oracle accepted
/// every crashed segment's drain (when enabled). Returns the outcome so
/// callers can assert scenario-specific extras (crash counts, generations).
ScenarioOutcome expect_scenario_roundtrip(const Scenario& scenario);

}  // namespace manatee::harness
