// lifecycle.hpp — the failure-schedule lifecycle driver.
//
// One Lifecycle = one logical application execution surviving a *storm* of
// failures: it chains engine segments
//
//   run → checkpoint (schedule trigger) → simulated crash → fresh engine →
//   restart from the newest valid image generation → … → completion
//
// exactly the paper's chained-resource-allocation workflow, generalized
// from one hop to arbitrarily many. Each segment is a fresh Engine (a fresh
// lower half); the crash is simulated by stopping the job right after its
// first completed checkpoint (a segment whose checkpoint completed only
// after every rank returned still counts as crashed). The configured FailureSchedule spans the
// whole lifecycle: collective-count and fixed-time triggers are consumed in
// order across segments, and the Poisson arrival stream continues where the
// previous segment's draws left off, so a single seed reproduces the entire
// storm. Image generations are numbered, pruned to the newest K after every
// crash, and restored with corrupt/missing-generation fallback
// (ckpt/generation.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "split/engine.hpp"

namespace manatee::split {

struct LifecycleConfig {
  /// Base engine configuration for every segment. Must use a checkpoint
  /// protocol (CC or 2PC), a non-empty image_dir, and retain_generations
  /// ≥ 1; `failures` is the whole-lifecycle schedule. stop_after_checkpoint
  /// is managed by the driver and ignored here.
  EngineConfig engine;

  /// Safety cap on chained segments (initial run + restarts). A schedule
  /// still firing past this cap ends the lifecycle with completed == false.
  std::size_t max_segments = 32;

  /// Optional per-segment observer, called after each segment finishes
  /// while its Engine is still alive (drain-graph oracle checks in tests).
  /// Arguments: the segment's engine, its report, and the 0-based index.
  std::function<void(Engine&, const RunReport&, std::size_t)> on_segment;
};

struct LifecycleReport {
  /// Per-segment run reports, in order (front = initial run).
  std::vector<RunReport> segments;
  /// Simulated crashes (= restarts performed when completed).
  std::uint64_t crashes = 0;
  /// Completed checkpoint cycles summed over all segments.
  std::uint64_t checkpoints = 0;
  /// Generation each restart segment restored from (size == crashes).
  std::vector<std::uint64_t> restored_generations;
  /// Newest generation on disk when the lifecycle ended.
  std::uint64_t final_generation = 0;
  /// The application ran to completion in the final segment.
  bool completed = false;
};

class Lifecycle {
 public:
  explicit Lifecycle(LifecycleConfig config);

  /// Run the full chain. The same app function is used for the initial run
  /// and every restart (deterministic re-execution model).
  LifecycleReport run(const WrappedApp& app);

 private:
  /// Drop the triggers a finished segment consumed and carry the Poisson
  /// stream forward, producing the next segment's schedule.
  void advance_schedule(const ScheduleCursor& cursor);

  LifecycleConfig config_;
  FailureSchedule remaining_;
};

}  // namespace manatee::split
