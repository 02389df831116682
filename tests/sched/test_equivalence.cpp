// Cross-backend equivalence: the scheduler is purely an execution-engine
// choice, so the events backend must produce the same results as the
// threads reference backend.
//
// What "identical" can mean depends on the run shape:
//
//  * Failure-free runs with no checkpoint activity are fully deterministic
//    in virtual time (observation-point-only clock merges, PR 2), so the
//    ENTIRE RunReport must be bit-identical across backends.
//  * Once a drain is involved, the *cut position* is wall-schedule
//    dependent (ranks race ahead before observing the request; targets
//    max-merge whatever SEQ they reached), so drain-relative quantities
//    (ckpt_durations, protocol message counts, post-restore makespans)
//    legitimately differ between any two runs — including two threads
//    runs. For those shapes we assert the schedule-independent core:
//    application fingerprints, checkpoint/crash counts, and completion.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "simnet/mailbox.hpp"
#include "split/engine.hpp"

namespace manatee::harness {
namespace {

using split::Engine;
using split::EngineConfig;
using split::Protocol;
using split::RunReport;

struct BackendRun {
  RunReport report;
  std::vector<std::uint64_t> fingerprints;
};

BackendRun run_once(sched::Backend backend, Protocol protocol, int world,
                    std::vector<std::uint64_t> triggers,
                    const std::string& tag) {
  simnet::MessageStore::set_wait_timeout_ms(20'000);
  EngineConfig config = make_engine_config(
      protocol, world, fresh_dir(tag + "_" + sched::backend_name(backend)),
      std::move(triggers));
  config.runtime.sched.backend = backend;
  Engine engine(config);
  BackendRun out;
  out.fingerprints.resize(static_cast<std::size_t>(world));
  const FingerprintApp app = make_workload(WorkloadKind::kMixed, protocol);
  out.report = engine.run([&](split::Api& api) {
    out.fingerprints[static_cast<std::size_t>(api.rank())] = app(api);
  });
  return out;
}

void expect_full_report_eq(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.wrapper_collective_calls, b.wrapper_collective_calls);
  EXPECT_EQ(a.wrapper_p2p_calls, b.wrapper_p2p_calls);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.ckpt_durations, b.ckpt_durations);
  EXPECT_EQ(a.restart_duration, b.restart_duration);
  EXPECT_EQ(a.stopped_after_checkpoint, b.stopped_after_checkpoint);
  EXPECT_EQ(a.restored_generation, b.restored_generation);
  EXPECT_EQ(a.ckpt_protocol_messages, b.ckpt_protocol_messages);
  EXPECT_EQ(a.collective_messages, b.collective_messages);
  EXPECT_EQ(a.image_bytes_total, b.image_bytes_total);
}

void expect_same_lifecycle(const ScenarioOutcome& a, const ScenarioOutcome& b) {
  EXPECT_EQ(a.golden, b.golden);
  EXPECT_EQ(a.chained, b.chained);
  EXPECT_EQ(a.lifecycle.crashes, b.lifecycle.crashes);
  EXPECT_EQ(a.lifecycle.completed, b.lifecycle.completed);
}

class EquivalenceWorlds : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceWorlds, FailureFreeRunReportsAreBitIdentical) {
  const int world = GetParam();
  for (const Protocol protocol : {Protocol::kCC, Protocol::kTpc}) {
    SCOPED_TRACE(split::protocol_name(protocol));
    const std::string tag = "sched_eq_w" + std::to_string(world) + "_" +
                            split::protocol_name(protocol);
    const BackendRun threads =
        run_once(sched::Backend::kThreads, protocol, world, {}, tag);
    const BackendRun events =
        run_once(sched::Backend::kEvents, protocol, world, {}, tag);
    expect_full_report_eq(threads.report, events.report);
    EXPECT_EQ(threads.fingerprints, events.fingerprints);
  }
}

TEST_P(EquivalenceWorlds, CheckpointRunsAgreeOnScheduleIndependentFields) {
  const int world = GetParam();
  for (const Protocol protocol : {Protocol::kCC, Protocol::kTpc}) {
    SCOPED_TRACE(split::protocol_name(protocol));
    const std::string tag = "sched_eq_ck_w" + std::to_string(world) + "_" +
                            split::protocol_name(protocol);
    const BackendRun threads =
        run_once(sched::Backend::kThreads, protocol, world, {3, 9}, tag);
    const BackendRun events =
        run_once(sched::Backend::kEvents, protocol, world, {3, 9}, tag);
    EXPECT_EQ(threads.fingerprints, events.fingerprints);
    EXPECT_EQ(threads.report.checkpoints, events.report.checkpoints);
    EXPECT_EQ(threads.report.wrapper_collective_calls,
              events.report.wrapper_collective_calls);
    EXPECT_EQ(threads.report.wrapper_p2p_calls,
              events.report.wrapper_p2p_calls);
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, EquivalenceWorlds,
                         ::testing::Values(2, 3, 5, 8, 13, 16));

class LifecycleEquivalenceWorlds : public ::testing::TestWithParam<int> {};

TEST_P(LifecycleEquivalenceWorlds, CrashRestartChainsMatchAcrossBackends) {
  // Full lifecycle storms (checkpoint → crash → restore → …) under both
  // backends: each chain must round-trip against its own golden run (the
  // harness asserts that), and the final state plus the deterministic
  // lifecycle shape must agree across backends.
  const int world = GetParam();
  ScenarioOutcome outcomes[2];
  int i = 0;
  for (const auto backend :
       {sched::Backend::kThreads, sched::Backend::kEvents}) {
    Scenario scenario;
    scenario.tag = "sched_eq_life_w" + std::to_string(world) + "_" +
                   sched::backend_name(backend);
    scenario.workload = WorkloadKind::kMixed;
    scenario.world = world;
    scenario.protocol = Protocol::kCC;
    scenario.failures.at_collectives = {5, 11};
    scenario.retain_generations = 2;
    scenario.sched.backend = backend;
    outcomes[i++] = expect_scenario_roundtrip(scenario);
  }
  expect_same_lifecycle(outcomes[0], outcomes[1]);
}

INSTANTIATE_TEST_SUITE_P(Worlds, LifecycleEquivalenceWorlds,
                         ::testing::Values(2, 4, 8, 16));

TEST(LifecycleEquivalence, TwoPhaseCommitChainMatchesAcrossBackends) {
  ScenarioOutcome outcomes[2];
  int i = 0;
  for (const auto backend :
       {sched::Backend::kThreads, sched::Backend::kEvents}) {
    Scenario scenario;
    scenario.tag =
        std::string("sched_eq_life_tpc_") + sched::backend_name(backend);
    scenario.workload = WorkloadKind::kMixed;
    scenario.world = 4;
    scenario.protocol = Protocol::kTpc;
    scenario.failures.at_collectives = {6};
    scenario.retain_generations = 2;
    scenario.sched.backend = backend;
    outcomes[i++] = expect_scenario_roundtrip(scenario);
  }
  expect_same_lifecycle(outcomes[0], outcomes[1]);
}

}  // namespace
}  // namespace manatee::harness
