#include "split/lifecycle.hpp"

#include <algorithm>

#include "ckpt/generation.hpp"
#include "common/error.hpp"
#include "common/log.hpp"

namespace manatee::split {

Lifecycle::Lifecycle(LifecycleConfig config) : config_(std::move(config)) {
  MANATEE_REQUIRE(config_.engine.protocol != Protocol::kNative,
                  "lifecycle needs a checkpoint protocol (CC or 2PC)");
  MANATEE_REQUIRE(!config_.engine.image_dir.empty(),
                  "lifecycle needs an image directory");
  MANATEE_REQUIRE(config_.engine.retain_generations >= 1,
                  "lifecycle needs generational images (retain_generations >= 1)");
  MANATEE_REQUIRE(config_.max_segments >= 1, "lifecycle needs at least one segment");
  remaining_ = config_.engine.failures;
}

void Lifecycle::advance_schedule(const ScheduleCursor& cursor) {
  // The cursor consumed its thresholds in sorted order; mirror that order
  // before dropping the consumed prefix.
  std::sort(remaining_.at_collectives.begin(), remaining_.at_collectives.end());
  std::sort(remaining_.at_times.begin(), remaining_.at_times.end());
  const auto drop = [](auto& vec, std::uint64_t n) {
    vec.erase(vec.begin(),
              vec.begin() + static_cast<std::ptrdiff_t>(
                                std::min<std::uint64_t>(n, vec.size())));
  };
  drop(remaining_.at_collectives, cursor.collective_triggers_consumed());
  drop(remaining_.at_times, cursor.time_triggers_consumed());
  if (remaining_.poisson_mean_ns > 0) {
    remaining_.poisson_seed = cursor.poisson_rng_state();
    const auto used = cursor.poisson_arrivals_consumed();
    remaining_.poisson_max_arrivals =
        remaining_.poisson_max_arrivals > used
            ? remaining_.poisson_max_arrivals - used
            : 0;
  }
}

LifecycleReport Lifecycle::run(const WrappedApp& app) {
  LifecycleReport report;
  for (std::size_t segment = 0; segment < config_.max_segments; ++segment) {
    EngineConfig cfg = config_.engine;
    cfg.failures = remaining_;
    // The simulated crash: the segment ends right after its first
    // completed checkpoint. A segment whose schedule never fires runs to
    // completion and ends the lifecycle.
    cfg.stop_after_checkpoint = true;

    Engine engine(cfg);
    const RunReport r = segment == 0 ? engine.run(app) : engine.restart(app);
    advance_schedule(engine.schedule_cursor());

    report.segments.push_back(r);
    report.checkpoints += r.checkpoints;
    if (segment > 0) report.restored_generations.push_back(r.restored_generation);
    if (config_.on_segment) config_.on_segment(engine, r, segment);

    // A checkpoint that completes only after every rank has returned from
    // the app (requested during a collective-free tail: CC parks only at
    // collective entries, blocked waits and finalize) leaves no wrapper
    // call to stop at. The machine still failed: the segment counts as
    // crashed, and the restart replays it to the end from that image.
    if (!r.stopped_after_checkpoint && r.checkpoints == 0) {
      report.completed = true;
      break;
    }
    ++report.crashes;
    // Numeric-only retention: 2-phase publication means every *listed*
    // generation is complete (a crash mid-write leaves only an invisible
    // .tmp), so the newest listed generation is valid by construction and
    // the world-aware newest-valid protection (with its extra image reads)
    // is unnecessary here. Delta-chain bases kept generations still
    // reference are protected inside retain() itself.
    ckpt::GenerationStore::retain(
        config_.engine.image_dir,
        static_cast<std::size_t>(config_.engine.retain_generations));
  }
  report.final_generation = ckpt::GenerationStore::latest(config_.engine.image_dir);
  if (!report.completed) {
    LOG_WARN("lifecycle hit max_segments ("
             << config_.max_segments
             << ") with the failure schedule still firing; application did "
                "not complete");
  }
  return report;
}

}  // namespace manatee::split
