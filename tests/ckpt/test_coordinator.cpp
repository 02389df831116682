// Unit tests for the coordinator's phase machine, target tables, and
// termination-detection criteria (single-threaded: ranks simulated by
// direct calls).
#include "ckpt/coordinator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simnet/fabric.hpp"

namespace manatee::ckpt {
namespace {

using SeqMap = std::map<std::uint64_t, std::uint64_t>;

TEST(Coordinator, PhaseLifecycle) {
  Coordinator c(2, nullptr);
  EXPECT_EQ(c.phase(), CkptPhase::kIdle);
  EXPECT_FALSE(c.ckpt_pending());

  EXPECT_TRUE(c.request_checkpoint());
  EXPECT_EQ(c.phase(), CkptPhase::kDrain);
  EXPECT_TRUE(c.ckpt_pending());
  EXPECT_FALSE(c.request_checkpoint());  // idempotent during a cycle
}

TEST(Coordinator, TargetsAreElementwiseMax) {
  Coordinator c(2, nullptr);
  c.request_checkpoint();
  c.post_seq(0, SeqMap{{10, 5}, {20, 1}});
  c.post_seq(1, SeqMap{{10, 3}, {30, 7}});

  std::uint64_t version = 0;
  SeqMap targets;
  EXPECT_TRUE(c.pull_targets(version, targets));
  EXPECT_EQ(targets, (SeqMap{{10, 5}, {20, 1}, {30, 7}}));
  EXPECT_FALSE(c.pull_targets(version, targets));  // unchanged since
}

TEST(Coordinator, AllSeqPostedTracksContributions) {
  Coordinator c(3, nullptr);
  c.request_checkpoint();
  EXPECT_FALSE(c.all_seq_posted());
  c.post_seq(0, {});
  c.post_seq(2, {});
  EXPECT_FALSE(c.all_seq_posted());
  c.post_seq(1, {});
  EXPECT_TRUE(c.all_seq_posted());
}

TEST(Coordinator, CcWriteRequiresAllParkedAndBalanced) {
  Coordinator c(2, nullptr);
  c.request_checkpoint();
  c.post_seq(0, SeqMap{{1, 1}});
  c.post_seq(1, SeqMap{{1, 1}});
  std::uint64_t version = 0;
  SeqMap targets;
  c.pull_targets(version, targets);

  c.report_cc(0, Coordinator::CcStatus{true, 0, 0, version});
  EXPECT_EQ(c.phase(), CkptPhase::kDrain);  // rank 1 not parked yet
  c.report_cc(1, Coordinator::CcStatus{true, 1, 0, version});
  EXPECT_EQ(c.phase(), CkptPhase::kDrain);  // Σsent=1 > Σrecv=0: in-flight update
  c.report_cc(0, Coordinator::CcStatus{true, 0, 1, version});      // rank 0 consumed it
  EXPECT_EQ(c.phase(), CkptPhase::kWrite);  // all parked, counts balanced
}

TEST(Coordinator, CcWriteRequiresCurrentVersion) {
  Coordinator c(2, nullptr);
  c.request_checkpoint();
  c.post_seq(0, SeqMap{{1, 1}});
  std::uint64_t v0 = 0;
  SeqMap targets;
  c.pull_targets(v0, targets);
  c.report_cc(0, Coordinator::CcStatus{true, 0, 0, v0});

  // Rank 1 posts later, bumping the version; rank 0's park is now stale.
  c.post_seq(1, SeqMap{{1, 2}});
  c.report_cc(1, Coordinator::CcStatus{true, 0, 0, v0 + 1});
  EXPECT_EQ(c.phase(), CkptPhase::kDrain);  // rank 0 parked on stale version

  c.report_cc(0, Coordinator::CcStatus{true, 0, 0, v0 + 1});
  EXPECT_EQ(c.phase(), CkptPhase::kWrite);
}

TEST(Coordinator, WriteCompletesCycle) {
  Coordinator c(2, nullptr);
  c.request_checkpoint();
  c.post_seq(0, {});
  c.post_seq(1, {});
  std::uint64_t v = 0;
  SeqMap t;
  c.pull_targets(v, t);
  c.report_cc(0, Coordinator::CcStatus{true, 0, 0, v});
  c.report_cc(1, Coordinator::CcStatus{true, 0, 0, v});
  ASSERT_EQ(c.phase(), CkptPhase::kWrite);

  c.report_written(0);
  EXPECT_EQ(c.phase(), CkptPhase::kWrite);
  c.report_written(1);
  EXPECT_EQ(c.phase(), CkptPhase::kIdle);
  EXPECT_EQ(c.completed_cycles(), 1u);

  // A second cycle starts clean.
  EXPECT_TRUE(c.request_checkpoint());
  EXPECT_FALSE(c.all_seq_posted());
}

TEST(Coordinator, TpcFullyEnteredInstanceBlocksWrite) {
  Coordinator c(2, nullptr);
  // Both ranks enter the inserted barrier of instance (g=9, n=0).
  c.tpc_enter(0, 9, 0, 2);
  c.tpc_enter(1, 9, 0, 2);
  c.request_checkpoint();
  c.report_tpc(0, true);
  c.report_tpc(1, true);
  // All parked, but the instance is fully entered and not done: unsafe.
  EXPECT_EQ(c.phase(), CkptPhase::kDrain);

  // Both execute and finish the real collective; instance closes.
  c.tpc_execute(0, 9, 0);
  c.tpc_execute(1, 9, 0);
  c.tpc_done(0, 9, 0);
  c.tpc_done(1, 9, 0);
  c.report_tpc(0, true);
  c.report_tpc(1, true);
  EXPECT_EQ(c.phase(), CkptPhase::kWrite);
}

TEST(Coordinator, TpcPartiallyEnteredInstanceIsSafe) {
  Coordinator c(3, nullptr);
  c.tpc_enter(0, 9, 0, 3);
  c.tpc_enter(1, 9, 0, 3);  // rank 2 has not entered
  c.request_checkpoint();
  c.report_tpc(0, true);
  c.report_tpc(1, true);
  c.report_tpc(2, true);  // parked at a poll site
  EXPECT_EQ(c.phase(), CkptPhase::kWrite);
}

TEST(Coordinator, TpcExecutingRankIsUnparked) {
  Coordinator c(1, nullptr);
  c.tpc_enter(0, 5, 0, 1);
  c.request_checkpoint();
  c.report_tpc(0, true);
  // Execution clears the parked flag.
  c.tpc_execute(0, 5, 0);
  EXPECT_EQ(c.phase(), CkptPhase::kDrain);
  c.tpc_done(0, 5, 0);
  c.report_tpc(0, true);
  EXPECT_EQ(c.phase(), CkptPhase::kWrite);
}

TEST(Coordinator, DoneRanksTracked) {
  Coordinator c(2, nullptr);
  EXPECT_FALSE(c.all_done());
  c.report_done(0);
  EXPECT_FALSE(c.all_done());
  c.report_done(1);
  EXPECT_TRUE(c.all_done());
}

TEST(Coordinator, ReportDoneWakesEveryStoreOnceOnTheLastFinisher) {
  // Ranks parked in at_finalize wait for all-done: the first N-1 finishers
  // must not wake N stores each, and a repeated report counts once.
  constexpr int kWorld = 4;
  simnet::Fabric fabric(simnet::Topology(kWorld, 2), simnet::CostModel());
  Coordinator c(kWorld, &fabric);
  const auto generations = [&] {
    std::vector<std::uint64_t> out;
    for (int r = 0; r < kWorld; ++r) out.push_back(fabric.store(r).token().generation);
    return out;
  };
  const auto before = generations();
  for (int r = 0; r < kWorld - 1; ++r) c.report_done(r);
  c.report_done(0);
  EXPECT_FALSE(c.all_done());
  EXPECT_EQ(generations(), before);

  c.report_done(kWorld - 1);
  EXPECT_TRUE(c.all_done());
  const auto after = generations();
  for (int r = 0; r < kWorld; ++r) EXPECT_GT(after[r], before[r]) << "rank " << r;

  c.report_done(kWorld - 1);
  EXPECT_EQ(generations(), after);
}

TEST(Coordinator, DoneSurvivesCheckpointCycles) {
  Coordinator c(2, nullptr);
  c.report_done(0);
  c.request_checkpoint();
  c.report_done(0);
  EXPECT_FALSE(c.all_done());
  c.report_done(1);
  EXPECT_TRUE(c.all_done());
}

TEST(Coordinator, CycleStatsRecordUpdateCounts) {
  Coordinator c(1, nullptr);
  c.request_checkpoint();
  c.post_seq(0, SeqMap{{1, 1}});
  std::uint64_t v = 0;
  SeqMap t;
  c.pull_targets(v, t);
  c.report_cc(0, Coordinator::CcStatus{true, 5, 5, v});
  ASSERT_EQ(c.phase(), CkptPhase::kWrite);
  const auto stats = c.cycle_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].cycle, 1u);
  EXPECT_EQ(stats[0].cc_updates_sent, 5u);
}

TEST(Coordinator, DebugDumpMentionsState) {
  Coordinator c(2, nullptr);
  c.request_checkpoint();
  const auto dump = c.debug_dump();
  EXPECT_NE(dump.find("phase=1"), std::string::npos);
  EXPECT_NE(dump.find("rank 0"), std::string::npos);
}

// ---- p2p-aware target cascade ------------------------------------------------
//
// The stall structure captured from RandomDrainP s1770_w8_t23_cc: a rank
// that owes collectives is blocked in a point-to-point receive whose
// matching send lies beyond a parked peer's collective frontier. The
// coordinator must force the parked peer's next collective into the
// target set — and must do so only under a full stall certificate.

constexpr std::uint64_t kG = 42;

/// World 3: request delivered, rank 0 one op ahead on group kG.
void start_stall_cycle(Coordinator& c) {
  c.request_checkpoint();
  c.post_seq(0, SeqMap{{kG, 1}});
  c.post_seq(1, {});
  c.post_seq(2, {});
}

Coordinator::CcStatus parked_at_entry(std::uint64_t version, std::uint64_t g,
                                      std::uint64_t next_seq) {
  Coordinator::CcStatus s;
  s.parked = true;
  s.seen_version = version;
  s.has_next = true;
  s.next_ggid = g;
  s.next_seq = next_seq;
  return s;
}

Coordinator::CcStatus blocked_on(std::uint64_t version, int src) {
  Coordinator::CcStatus s;
  s.parked = false;
  s.seen_version = version;
  s.blocked_on = src;
  return s;
}

TEST(Coordinator, P2pCascadeForcesParkedEntryOnCertifiedStall) {
  Coordinator c(3, nullptr);
  start_stall_cycle(c);
  std::uint64_t v = 0;
  SeqMap targets;
  c.pull_targets(v, targets);

  c.report_cc(0, parked_at_entry(v, kG, 2));
  c.report_cc(1, Coordinator::CcStatus{true, 0, 0, v});
  c.report_cc(2, blocked_on(v, 0));

  // Stall certified: targets must now include the forced node (kG, 2).
  SeqMap after;
  std::uint64_t v2 = v;
  ASSERT_TRUE(c.pull_targets(v2, after));
  EXPECT_GT(v2, v);
  EXPECT_EQ(after[kG], 2u);
  const auto forced = c.forced_targets(1);
  ASSERT_TRUE(forced.contains(kG));
  EXPECT_EQ(forced.at(kG), 2u);
  EXPECT_EQ(c.phase(), CkptPhase::kDrain);  // still draining, wider cut
}

TEST(Coordinator, P2pCascadeWaitsForFreeRunningRanks) {
  Coordinator c(3, nullptr);
  start_stall_cycle(c);
  std::uint64_t v = 0;
  SeqMap targets;
  c.pull_targets(v, targets);

  c.report_cc(0, parked_at_entry(v, kG, 2));
  // Rank 1 is executing (not parked, not blocked): no stall.
  c.report_cc(1, Coordinator::CcStatus{false, 0, 0, v});
  c.report_cc(2, blocked_on(v, 0));
  EXPECT_TRUE(c.forced_targets(1).empty());
}

TEST(Coordinator, P2pCascadeWaitsForCurrentVersionAndBalance) {
  {
    Coordinator c(3, nullptr);
  start_stall_cycle(c);
    std::uint64_t v = 0;
    SeqMap targets;
    c.pull_targets(v, targets);
    c.report_cc(0, parked_at_entry(v, kG, 2));
    c.report_cc(1, Coordinator::CcStatus{true, 0, 0, v - 1});  // stale table
    c.report_cc(2, blocked_on(v, 0));
    EXPECT_TRUE(c.forced_targets(1).empty());
  }
  {
    Coordinator c(3, nullptr);
  start_stall_cycle(c);
    std::uint64_t v = 0;
    SeqMap targets;
    c.pull_targets(v, targets);
    c.report_cc(0, parked_at_entry(v, kG, 2));
    Coordinator::CcStatus unbalanced;  // an update is still in flight
    unbalanced.parked = true;
    unbalanced.sent = 1;
    unbalanced.seen_version = v;
    c.report_cc(1, unbalanced);
    c.report_cc(2, blocked_on(v, 0));
    EXPECT_TRUE(c.forced_targets(1).empty());
  }
}

TEST(Coordinator, P2pCascadeFollowsChainThroughBlockedParkedRank) {
  Coordinator c(3, nullptr);
  start_stall_cycle(c);
  std::uint64_t v = 0;
  SeqMap targets;
  c.pull_targets(v, targets);

  // Rank 2 blocked on rank 1; rank 1 parked *inside a receive* (no entry
  // info) blocked on rank 0; rank 0 entry-parked: force rank 0's node.
  c.report_cc(0, parked_at_entry(v, kG, 2));
  Coordinator::CcStatus parked_blocked;
  parked_blocked.parked = true;
  parked_blocked.seen_version = v;
  parked_blocked.blocked_on = 0;
  c.report_cc(1, parked_blocked);
  c.report_cc(2, blocked_on(v, 1));

  const auto forced = c.forced_targets(1);
  ASSERT_TRUE(forced.contains(kG));
  EXPECT_EQ(forced.at(kG), 2u);
}

TEST(Coordinator, P2pCascadeUnknownSourceLeftToWatchdog) {
  Coordinator c(3, nullptr);
  start_stall_cycle(c);
  std::uint64_t v = 0;
  SeqMap targets;
  c.pull_targets(v, targets);

  c.report_cc(0, parked_at_entry(v, kG, 2));
  c.report_cc(1, Coordinator::CcStatus{true, 0, 0, v});
  c.report_cc(2, blocked_on(v, Coordinator::kBlockedUnknown));
  EXPECT_TRUE(c.forced_targets(1).empty());
}

}  // namespace
}  // namespace manatee::ckpt
