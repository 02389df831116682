// Restart failure modes and edge cases: corrupted images, mismatched
// worlds, decision-log replay, checkpointing at program extremes, and the
// chained-restart generation machinery (restart from a restart's images,
// stale/corrupt generation fallback, N-times-chained stop_after_checkpoint).
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>

#include "ckpt/generation.hpp"
#include "common/error.hpp"
#include "harness/scenario.hpp"
#include "split/lifecycle.hpp"

namespace manatee::split {
namespace {

using harness::fresh_dir;

EngineConfig cc(int world, const std::string& dir) {
  return harness::make_engine_config(Protocol::kCC, world, dir, {}, false, 4,
                                     /*record_trace=*/false);
}

void simple_app(Api& api, int iterations) {
  double v = api.rank(), s = 0;
  api.register_value("v", v);
  api.register_value("s", s);
  for (int i = 0; i < iterations; ++i) {
    api.allreduce(kWorldComm, std::as_bytes(std::span(&v, 1)),
                  std::as_writable_bytes(std::span(&s, 1)), umpi::Datatype::kDouble,
                  umpi::ReduceOp::kSum);
    api.once([&] { v = s / api.size() + 1.0; });
  }
}

std::uint64_t simple_fingerprint_app(Api& api, int iterations) {
  double v = api.rank(), s = 0;
  api.register_value("v", v);
  api.register_value("s", s);
  for (int i = 0; i < iterations; ++i) {
    api.allreduce(kWorldComm, std::as_bytes(std::span(&v, 1)),
                  std::as_writable_bytes(std::span(&s, 1)), umpi::Datatype::kDouble,
                  umpi::ReduceOp::kSum);
    api.once([&] { v = s / api.size() + 1.0; });
  }
  return std::bit_cast<std::uint64_t>(v) ^ std::bit_cast<std::uint64_t>(s);
}

void take_checkpoint(int world, const std::string& dir, std::uint64_t trigger,
                     int iterations = 10) {
  auto config = cc(world, dir);
  config.failures.at_collectives = {trigger};
  Engine engine(config);
  const auto report = engine.run([&](Api& api) { simple_app(api, iterations); });
  ASSERT_EQ(report.checkpoints, 1u);
}

/// One run writing a numbered generation per trigger (no crash between).
void take_generations(int world, const std::string& dir,
                      std::vector<std::uint64_t> triggers, int iterations = 10) {
  auto config = cc(world, dir);
  config.failures.at_collectives = std::move(triggers);
  config.retain_generations = 8;
  const auto expected = config.failures.at_collectives.size();
  Engine engine(config);
  const auto report = engine.run([&](Api& api) { simple_app(api, iterations); });
  ASSERT_EQ(report.checkpoints, expected);
}

void corrupt_file(const std::string& path, std::streamoff offset = 40) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  char c;
  f.seekg(offset);
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x20));
}

TEST(RestartEdges, CorruptedImageRejected) {
  const auto dir = fresh_dir("edge_corrupt");
  take_checkpoint(4, dir, 3);

  // Flip a byte in rank 2's image.
  corrupt_file(ckpt::CkptImage::path_for(dir, 2));

  Engine engine(cc(4, dir));
  EXPECT_THROW(engine.restart([&](Api& api) { simple_app(api, 10); }),
               CheckpointError);
}

TEST(RestartEdges, MissingImageRejected) {
  const auto dir = fresh_dir("edge_missing");
  take_checkpoint(4, dir, 3);
  std::filesystem::remove(ckpt::CkptImage::path_for(dir, 1));
  Engine engine(cc(4, dir));
  EXPECT_THROW(engine.restart([&](Api& api) { simple_app(api, 10); }),
               CheckpointError);
}

TEST(RestartEdges, WorldSizeMismatchRejected) {
  const auto dir = fresh_dir("edge_world");
  take_checkpoint(4, dir, 3);
  Engine engine(cc(8, dir));  // restart with a different world
  EXPECT_THROW(engine.restart([&](Api& api) { simple_app(api, 10); }),
               Error);
}

TEST(RestartEdges, RestartWithoutImageDirRejected) {
  EngineConfig config;
  config.runtime.world_size = 2;
  config.protocol = Protocol::kCC;
  Engine engine(config);
  EXPECT_THROW(engine.restart([](Api&) {}), UsageError);
}

TEST(RestartEdges, SegmentSizeMismatchOnRestoreRejected) {
  const auto dir = fresh_dir("edge_segsize");
  take_checkpoint(4, dir, 3);
  Engine engine(cc(4, dir));
  EXPECT_THROW(engine.restart([](Api& api) {
                 // Register "v" with a different size than the image.
                 std::vector<double> wrong(2);
                 api.register_state("v", wrong);
               }),
               CheckpointError);
}

TEST(RestartEdges, DecisionLogReplaysBranches) {
  const auto dir = fresh_dir("edge_decide");
  const int world = 4;

  auto app = [](Api& api, std::uint64_t* out) {
    double v = api.rank() + 1.0, s = 0;
    std::int64_t bumps = 0;
    api.register_value("v", v);
    api.register_value("s", s);
    api.register_value("bumps", bumps);
    for (int i = 0; i < 12; ++i) {
      api.allreduce(kWorldComm, std::as_bytes(std::span(&v, 1)),
                    std::as_writable_bytes(std::span(&s, 1)),
                    umpi::Datatype::kDouble, umpi::ReduceOp::kMax);
      // Data-dependent branch: without decide(), replay would evaluate this
      // against restored (future) data and diverge.
      if (api.decide([&] { return s < api.size() + 6.0; })) {
        api.once([&] {
          v += 1.0;
          ++bumps;
        });
      } else {
        api.once([&] { v *= 0.5; });
      }
    }
    *out = static_cast<std::uint64_t>(bumps) ^
           std::bit_cast<std::uint64_t>(v);
  };

  // Native baseline.
  std::vector<std::uint64_t> native(world);
  {
    EngineConfig config;
    config.runtime.world_size = world;
    Engine engine(config);
    engine.run([&](Api& api) {
      app(api, &native[static_cast<std::size_t>(api.rank())]);
    });
  }
  {
    auto config = cc(world, dir);
    config.failures.at_collectives = {5};
    config.stop_after_checkpoint = true;
    Engine engine(config);
    std::uint64_t sink;
    const auto report = engine.run([&](Api& api) { app(api, &sink); });
    ASSERT_EQ(report.checkpoints, 1u);
  }
  Engine engine(cc(world, dir));
  std::vector<std::uint64_t> restored(world);
  engine.restart([&](Api& api) {
    app(api, &restored[static_cast<std::size_t>(api.rank())]);
  });
  EXPECT_EQ(restored, native);
}

TEST(RestartEdges, CheckpointAtFirstCollective) {
  const auto dir = fresh_dir("edge_first");
  take_checkpoint(4, dir, 1, /*iterations=*/6);
  Engine engine(cc(4, dir));
  EXPECT_NO_THROW(engine.restart([&](Api& api) { simple_app(api, 6); }));
}

TEST(RestartEdges, CheckpointAtLastCollective) {
  const auto dir = fresh_dir("edge_last");
  take_checkpoint(4, dir, 6, /*iterations=*/6);  // the final collective
  Engine engine(cc(4, dir));
  EXPECT_NO_THROW(engine.restart([&](Api& api) { simple_app(api, 6); }));
}

TEST(RestartEdges, DoubleRestartFromSameImages) {
  // Images are read-only: restarting twice from the same set must give the
  // same results (the chained-allocation pattern re-reads on every retry).
  const auto dir = fresh_dir("edge_double");
  take_checkpoint(4, dir, 4, 10);

  auto run_restart = [&] {
    Engine engine(cc(4, dir));
    std::vector<double> out(4);
    engine.restart([&](Api& api) {
      double v = api.rank(), s = 0;
      api.register_value("v", v);
      api.register_value("s", s);
      for (int i = 0; i < 10; ++i) {
        api.allreduce(kWorldComm, std::as_bytes(std::span(&v, 1)),
                      std::as_writable_bytes(std::span(&s, 1)),
                      umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
        api.once([&] { v = s / api.size() + 1.0; });
      }
      out[static_cast<std::size_t>(api.rank())] = v;
    });
    return out;
  };
  EXPECT_EQ(run_restart(), run_restart());
}

TEST(RestartEdges, ImageMetadataSane) {
  const auto dir = fresh_dir("edge_meta");
  take_checkpoint(4, dir, 3);
  for (int r = 0; r < 4; ++r) {
    const auto img = ckpt::CkptImage::read_file(ckpt::CkptImage::path_for(dir, r));
    EXPECT_EQ(img.rank, r);
    EXPECT_EQ(img.world_size, 4);
    EXPECT_EQ(img.cycle, 1u);
    EXPECT_TRUE(img.has("engine/meta"));
    EXPECT_TRUE(img.has("engine/protocol"));
    EXPECT_TRUE(img.has("engine/vreqs"));
    EXPECT_TRUE(img.has("engine/unexpected"));
    EXPECT_TRUE(img.has("engine/decisions"));
    EXPECT_TRUE(img.has("app/v"));
    EXPECT_TRUE(img.has("app/s"));
  }
}

// ---- chained-restart / generation edge cases ---------------------------------

TEST(RestartEdges, RestartFromARestartsImages) {
  // Two chained crashes: segment 2 restores generation 1 and writes
  // generation 2; segment 3 must restore from generation 2 — a checkpoint
  // taken *by a restarted run*.
  harness::Scenario scenario;
  scenario.tag = "edge_chain2";
  scenario.world = 4;
  scenario.custom_app = [](Api& api) { return simple_fingerprint_app(api, 12); };
  scenario.failures.at_collectives = {3, 6};
  harness::ScenarioOutcome out;
  ASSERT_NO_THROW(out = harness::run_scenario(scenario));
  ASSERT_TRUE(out.lifecycle.completed);
  ASSERT_EQ(out.lifecycle.crashes, 2u);
  ASSERT_EQ(out.lifecycle.restored_generations, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(out.chained, out.golden);
}

TEST(RestartEdges, StaleGenerationPresentPicksNewest) {
  // Two generations on disk; restart must restore the newest, not the
  // stale one.
  const int world = 4;
  const auto dir = fresh_dir("edge_stale");
  take_generations(world, dir, {3, 7});
  ASSERT_EQ(ckpt::GenerationStore::list(dir),
            (std::vector<std::uint64_t>{1, 2}));

  Engine engine(cc(world, dir));
  const auto report =
      engine.restart([&](Api& api) { simple_app(api, 10); });
  EXPECT_EQ(report.restored_generation, 2u);
}

TEST(RestartEdges, CorruptLatestGenerationFallsBackToPrevious) {
  // The acceptance case: latest generation corrupted → restart falls back
  // to generation K−1 and still reproduces the failure-free result.
  const int world = 4;
  const int iterations = 10;

  // Failure-free baseline.
  std::vector<std::uint64_t> native(world);
  {
    EngineConfig config;
    config.runtime.world_size = world;
    Engine engine(config);
    engine.run([&](Api& api) {
      native[static_cast<std::size_t>(api.rank())] =
          simple_fingerprint_app(api, iterations);
    });
  }

  const auto dir = fresh_dir("edge_fallback");
  take_generations(world, dir, {3, 7}, iterations);
  corrupt_file(ckpt::GenerationStore::image_path(dir, 2, 1));

  Engine engine(cc(world, dir));
  std::vector<std::uint64_t> restored(world);
  const auto report = engine.restart([&](Api& api) {
    restored[static_cast<std::size_t>(api.rank())] =
        simple_fingerprint_app(api, iterations);
  });
  EXPECT_EQ(report.restored_generation, 1u)
      << "corrupt latest generation must fall back to its predecessor";
  EXPECT_EQ(restored, native);
}

TEST(RestartEdges, MissingRankImageInLatestGenerationFallsBack) {
  const int world = 4;
  const auto dir = fresh_dir("edge_missing_gen");
  take_generations(world, dir, {3, 7});
  std::filesystem::remove(ckpt::GenerationStore::image_path(dir, 2, 3));

  Engine engine(cc(world, dir));
  const auto report = engine.restart([&](Api& api) { simple_app(api, 10); });
  EXPECT_EQ(report.restored_generation, 1u);
}

TEST(RestartEdges, AllGenerationsUnusableRejected) {
  const int world = 4;
  const auto dir = fresh_dir("edge_all_bad");
  take_generations(world, dir, {3, 7});
  corrupt_file(ckpt::GenerationStore::image_path(dir, 1, 0));
  corrupt_file(ckpt::GenerationStore::image_path(dir, 2, 0));

  Engine engine(cc(world, dir));
  EXPECT_THROW(engine.restart([&](Api& api) { simple_app(api, 10); }),
               CheckpointError);
}

TEST(RestartEdges, StopAfterCheckpointChainedNTimes) {
  // The chained-allocation pattern N deep: every segment crashes right
  // after its checkpoint; generations number monotonically; retention
  // keeps only the newest K; the final segment completes and matches the
  // failure-free run.
  harness::Scenario scenario;
  scenario.tag = "edge_chainN";
  scenario.world = 4;
  scenario.retain_generations = 2;
  scenario.custom_app = [](Api& api) { return simple_fingerprint_app(api, 16); };
  // Collective triggers count *executed* (post-replay) collectives, so each
  // is relative to the segment it fires in: crashes land ~2, ~5, ~9, ~14
  // collectives into the 16-iteration run.
  scenario.failures.at_collectives = {2, 3, 4, 5};
  harness::ScenarioOutcome out;
  ASSERT_NO_THROW(out = harness::run_scenario(scenario));
  ASSERT_TRUE(out.lifecycle.completed);
  EXPECT_EQ(out.lifecycle.crashes, 4u);
  EXPECT_EQ(out.lifecycle.segments.size(), 5u);
  EXPECT_EQ(out.lifecycle.restored_generations,
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(out.lifecycle.final_generation, 4u);
  EXPECT_LE(ckpt::GenerationStore::list(out.image_dir).size(), 3u);
  EXPECT_EQ(out.chained, out.golden);
}

TEST(RestartEdges, RetentionNeverDeletesTheNewestGeneration) {
  const auto dir = fresh_dir("edge_retain");
  take_generations(4, dir, {2, 5, 8});
  ckpt::GenerationStore::retain(dir, 1);
  EXPECT_EQ(ckpt::GenerationStore::list(dir), (std::vector<std::uint64_t>{3}));
  // And keep==0 is refused outright.
  EXPECT_THROW(ckpt::GenerationStore::retain(dir, 0), UsageError);
}

TEST(RestartEdges, RetentionProtectsTheNewestValidGeneration) {
  // A half-written latest checkpoint must not let numeric retention delete
  // the only generation the restart fallback could still use.
  const int world = 4;
  const auto dir = fresh_dir("edge_retain_valid");
  take_generations(world, dir, {3, 7});
  corrupt_file(ckpt::GenerationStore::image_path(dir, 2, 0));

  // keep=1 by number alone would keep only the corrupt gen 2; the
  // world-aware overload must also preserve gen 1 (the newest valid).
  ckpt::GenerationStore::retain(dir, 1, world);
  EXPECT_EQ(ckpt::GenerationStore::list(dir),
            (std::vector<std::uint64_t>{1, 2}));

  // Restart still succeeds, from the protected generation.
  Engine engine(cc(world, dir));
  const auto report = engine.restart([&](Api& api) { simple_app(api, 10); });
  EXPECT_EQ(report.restored_generation, 1u);
}

TEST(RestartEdges, RestoredSegmentShadowHoldsTheRestoredBytes) {
  // Rank 0 sets v in a once block, joins a split, and returns. After the
  // first crash it replays with every op skipped, so no op refreshes its
  // shadow: the second checkpoint (taken while it sits in finalize) must
  // still capture the restored v, not the bytes it registered before the
  // restore copy.
  harness::Scenario scenario;
  scenario.tag = "edge_restored_shadow";
  scenario.world = 3;
  scenario.failures.trigger_rank = 1;
  scenario.failures.at_times = {5'000'000, 12'000'000};
  scenario.custom_app = [](Api& api) -> std::uint64_t {
    double v = 0, s = 0;
    api.register_value("v", v);
    api.register_value("s", s);
    if (api.rank() == 0) api.once([&] { v = 42; });
    const VComm workers =
        api.comm_split(kWorldComm, api.rank() == 0 ? -1 : 1, api.rank());
    if (api.rank() == 0) return std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 20; ++i) {
      api.compute(1'000'000);
      api.allreduce(workers, std::as_bytes(std::span(&v, 1)),
                    std::as_writable_bytes(std::span(&s, 1)),
                    umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
      api.once([&] { v = s / 2 + 1; });
    }
    return std::bit_cast<std::uint64_t>(v) ^ std::bit_cast<std::uint64_t>(s);
  };
  const auto out = harness::expect_scenario_roundtrip(scenario);
  EXPECT_EQ(out.lifecycle.crashes, 2u);
  EXPECT_EQ(out.chained[0], std::bit_cast<std::uint64_t>(42.0))
      << "rank 0 lost its restored state across the second checkpoint";
}

TEST(RestartEdges, CheckpointCompletingAfterTheAppReturnedStillCrashes) {
  // The request lands in rank 1's collective-free tail. CC parks only at
  // collective entries, blocked waits and finalize, so the cycle completes
  // after every rank has returned and no wrapper call is left to stop at.
  // The machine still failed: the lifecycle must restart from that image.
  harness::Scenario scenario;
  scenario.tag = "edge_tail_checkpoint";
  scenario.world = 2;
  scenario.failures.trigger_rank = 1;
  scenario.failures.at_times = {5'000'000};
  scenario.custom_app = [](Api& api) -> std::uint64_t {
    std::uint64_t steps = 0;
    api.register_value("steps", steps);
    if (api.rank() == 1) {
      for (int i = 0; i < 20; ++i) {
        api.compute(1'000'000);
        api.once([&] { steps = steps * 31 + 7; });
      }
    }
    return steps;
  };
  const auto out = harness::expect_scenario_roundtrip(scenario);
  EXPECT_EQ(out.lifecycle.checkpoints, 1u);
  EXPECT_EQ(out.lifecycle.crashes, 1u)
      << "a completed checkpoint ended the lifecycle without a crash";
  EXPECT_EQ(out.lifecycle.restored_generations, (std::vector<std::uint64_t>{1}));
}

TEST(RestartEdges, ForeignDirectoryNamesIgnoredByGenerationScan) {
  // Overflowing or non-numeric gen_* names are foreign files, not
  // generations — the scan must skip them instead of throwing.
  const auto dir = fresh_dir("edge_foreign");
  take_generations(4, dir, {3});
  std::filesystem::create_directories(
      std::filesystem::path(dir) / "gen_99999999999999999999999");
  std::filesystem::create_directories(std::filesystem::path(dir) / "gen_x7");
  EXPECT_EQ(ckpt::GenerationStore::list(dir), (std::vector<std::uint64_t>{1}));
}

}  // namespace
}  // namespace manatee::split
