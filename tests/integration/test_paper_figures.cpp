// Scenario tests that re-create the paper's worked examples (Figures 2a,
// 2b, 3a, 3b) and assert the CC drain behaves exactly as the paper
// describes: which ranks continue, which nodes get visited during the
// drain, and how targets cascade.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/drain_graph.hpp"
#include "harness/scenario.hpp"
#include "split/engine.hpp"

namespace manatee::split {
namespace {

using harness::fresh_dir;

/// Events for one rank after its request marker, up to the image write.
std::vector<core::TraceEvent> drained_ops(const std::vector<core::TraceEvent>& ev,
                                          std::uint64_t cycle = 1) {
  std::vector<core::TraceEvent> out;
  bool after_request = false;
  for (const auto& e : ev) {
    if (e.kind == core::TraceEventKind::kCkptRequestSeen && e.cycle == cycle) {
      after_request = true;
      continue;
    }
    if (e.kind == core::TraceEventKind::kImageWritten && e.cycle == cycle) break;
    if (after_request && e.kind == core::TraceEventKind::kCollectiveExecuted) {
      out.push_back(e);
    }
  }
  return out;
}

/// Per-rank SEQ per ggid at the request marker.
std::map<std::uint64_t, std::uint64_t> seq_at_request(
    const std::vector<core::TraceEvent>& ev, std::uint64_t cycle = 1) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& e : ev) {
    if (e.kind == core::TraceEventKind::kCkptRequestSeen && e.cycle == cycle) break;
    if (e.kind == core::TraceEventKind::kCollectiveExecuted) {
      out[e.ggid] = std::max(out[e.ggid], e.seq);
    }
  }
  return out;
}

// Figure 2a: three ranks; P1 has already visited node N3 (its 2nd op on the
// pair group {P1,P2}); P2 has only visited N2; the drain must carry P2 into
// N3 and nothing further.
TEST(PaperFigures, Fig2aSimpleContinuation) {
  simnet::MessageStore::set_wait_timeout_ms(15'000);
  EngineConfig config;
  config.runtime.world_size = 3;
  config.protocol = Protocol::kCC;
  config.image_dir = fresh_dir("fig_2a");
  config.record_trace = true;

  Engine engine(config);
  engine.run([&](Api& api) {
    const int rank = api.rank();
    double v = rank, s = 0;
    api.register_value("v", v);
    api.register_value("s", s);
    auto span_v = std::as_bytes(std::span(&v, 1));
    auto span_s = std::as_writable_bytes(std::span(&s, 1));

    const VComm g01 = api.comm_create(kWorldComm, umpi::Group({0, 1}));
    const VComm g12 = api.comm_create(kWorldComm, umpi::Group({1, 2}));

    // N1 = {P2,P3} op (ranks 1,2 here); N2 = {P1,P2} op; then P1 (rank 0)
    // rushes ahead into N3 = second {P1,P2} op, and rank 0 triggers the
    // checkpoint right before it.
    if (!g12.is_null()) api.allreduce(g12, span_v, span_s, umpi::Datatype::kDouble,
                                      umpi::ReduceOp::kSum);  // N1
    if (!g01.is_null()) {
      api.allreduce(g01, span_v, span_s, umpi::Datatype::kDouble,
                    umpi::ReduceOp::kSum);  // N2
      if (rank == 0) engine.request_checkpoint();
      // Rank 1 stalls in compute so rank 0 visits N3 first.
      if (rank == 1) api.compute(50'000);
      api.allreduce(g01, span_v, span_s, umpi::Datatype::kDouble,
                    umpi::ReduceOp::kSum);  // N3
    }
  });

  const auto traces = engine.traces();
  core::DrainGraph graph(traces);
  const auto verdict = graph.check_safe_state(1, true);
  EXPECT_TRUE(verdict.ok) << verdict.error;

  // Rank 2 (P3 in the figure) participates only in N1, which both members
  // finished before the request: it must not drain anything.
  EXPECT_TRUE(drained_ops(traces[2]).empty());
}

// Figure 3a topology under uneven rates: groups {0,1}, {1,2}, {2,3,4},
// {4,5} advance at different paces; a checkpoint lands mid-run; every
// reached state must satisfy both safe-state conditions and each rank's
// drained ops must be confined to groups it belongs to.
TEST(PaperFigures, Fig3aUnevenRates) {
  simnet::MessageStore::set_wait_timeout_ms(15'000);
  EngineConfig config;
  config.runtime.world_size = 6;
  config.protocol = Protocol::kCC;
  config.image_dir = fresh_dir("fig_3a");
  config.failures.at_collectives = {9};
  config.record_trace = true;

  const std::vector<umpi::Group> groups{umpi::Group({0, 1}), umpi::Group({1, 2}),
                                        umpi::Group({2, 3, 4}), umpi::Group({4, 5})};

  Engine engine(config);
  engine.run([&](Api& api) {
    double v = api.rank(), s = 0;
    api.register_value("v", v);
    api.register_value("s", s);
    std::vector<VComm> comms;
    for (const auto& g : groups) comms.push_back(api.comm_create(kWorldComm, g));
    const int rates[] = {2, 1, 3, 2};
    for (int round = 0; round < 10; ++round) {
      for (std::size_t g = 0; g < comms.size(); ++g) {
        if (comms[g].is_null() || round % rates[g] != 0) continue;
        api.allreduce(comms[g], std::as_bytes(std::span(&v, 1)),
                      std::as_writable_bytes(std::span(&s, 1)),
                      umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
      }
      api.compute(3'000);
    }
  });

  const auto traces = engine.traces();
  core::DrainGraph graph(traces);
  ASSERT_EQ(graph.complete_cycles(), 1u);
  const auto verdict = graph.check_safe_state(1, true);
  EXPECT_TRUE(verdict.ok) << verdict.error;

  // Membership confinement: a rank only ever drains ops of its own groups.
  for (int r = 0; r < 6; ++r) {
    for (const auto& e : drained_ops(traces[static_cast<std::size_t>(r)])) {
      EXPECT_NE(std::find(e.members.begin(), e.members.end(), r), e.members.end())
          << "rank " << r << " executed an op of a foreign group during drain";
    }
  }
}

// Figure 2b / 3b: the cascade. Rank 2 must reach a target on {1,2}, but to
// get there its program first passes a NEW op on {2,3,4} — pushing that
// group beyond its request-time target and forcing ranks 3 and 4 to
// continue as well (Condition A applied transitively).
TEST(PaperFigures, Fig3bCascadingTargets) {
  simnet::MessageStore::set_wait_timeout_ms(15'000);
  EngineConfig config;
  config.runtime.world_size = 5;
  config.protocol = Protocol::kCC;
  config.image_dir = fresh_dir("fig_3b");
  config.record_trace = true;
  // Rank 1's {1,2} bcast must complete at the root without rank 2 (the
  // premise of the cascade below): pin the eager linear algorithm so a
  // MANATEE_COLL preset can't swap in an offload that synchronizes every
  // member before the root returns.
  config.runtime.coll.force(umpi::coll::CollKind::kBcast, "linear");

  Engine engine(config);
  engine.run([&](Api& api) {
    const int rank = api.rank();
    double v = rank, s = 0;
    api.register_value("v", v);
    api.register_value("s", s);
    auto in = std::as_bytes(std::span(&v, 1));
    auto out = std::as_writable_bytes(std::span(&s, 1));

    const VComm g12 = api.comm_create(kWorldComm, umpi::Group({1, 2}));
    const VComm g234 = api.comm_create(kWorldComm, umpi::Group({2, 3, 4}));

    // Rank 1 visits {1,2}#1 — a broadcast it roots, so it completes without
    // rank 2 — then triggers the checkpoint. Rank 2's program order reaches
    // a fresh {2,3,4} op *before* its {1,2}#1, executing it beyond the
    // request-time target (the cascade). Ranks 2-4 synchronize on the
    // request in wall time (virtual compute is wall-instant, so api.compute
    // cannot order wall events).
    double bval = 1.0;
    api.register_value("bval", bval);
    auto bspan = std::as_writable_bytes(std::span(&bval, 1));
    if (rank == 1) {
      api.bcast(g12, bspan, 0);  // root: fire-and-forget toward rank 2
      engine.request_checkpoint();
    }
    if (rank == 2) {
      while (!engine.coordinator().ckpt_pending()) {
      }
      api.poll();
      api.allreduce(g234, in, out, umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
      api.bcast(g12, bspan, 0);
    }
    if (rank == 3 || rank == 4) {
      while (!engine.coordinator().ckpt_pending()) {
      }
      api.poll();
      api.allreduce(g234, in, out, umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
    }
  });

  const auto traces = engine.traces();
  core::DrainGraph graph(traces);
  const auto verdict = graph.check_safe_state(1, true);
  EXPECT_TRUE(verdict.ok) << verdict.error;

  // The cascade happened: ranks 3 and 4 drained the {2,3,4} op even though
  // at request time that group's target did not cover it.
  const auto g234_ggid = umpi::Group({2, 3, 4}).member_set_hash();
  for (int r : {3, 4}) {
    bool drained_g234 = false;
    for (const auto& e : drained_ops(traces[static_cast<std::size_t>(r)])) {
      if (e.ggid == g234_ggid) drained_g234 = true;
    }
    const auto at_request = seq_at_request(traces[static_cast<std::size_t>(r)]);
    const auto it = at_request.find(g234_ggid);
    const bool had_executed = it != at_request.end() && it->second >= 1;
    EXPECT_TRUE(drained_g234 || had_executed)
        << "rank " << r << " never executed the cascaded {2,3,4} op";
  }
  // And the coordinator observed peer target updates (the SEND of Alg. 2).
  std::uint64_t updates = 0;
  for (const auto& st : engine.coordinator().cycle_stats()) {
    updates += st.cc_updates_sent;
  }
  EXPECT_GT(updates, 0u);
}

// MPI_SIMILAR communicators share one collective clock: ops on a dup and
// on a reordered split of the same member set advance the SAME ggid, and a
// checkpoint drains them as one group (paper §4.1).
TEST(PaperFigures, SimilarCommunicatorsShareClock) {
  simnet::MessageStore::set_wait_timeout_ms(15'000);
  EngineConfig config;
  config.runtime.world_size = 4;
  config.protocol = Protocol::kCC;
  config.image_dir = fresh_dir("fig_similar");
  config.failures.at_collectives = {6};
  config.record_trace = true;

  Engine engine(config);
  engine.run([&](Api& api) {
    double v = api.rank(), s = 0;
    api.register_value("v", v);
    api.register_value("s", s);
    auto in = std::as_bytes(std::span(&v, 1));
    auto out = std::as_writable_bytes(std::span(&s, 1));
    const VComm dup = api.comm_dup(kWorldComm);
    const VComm rev = api.comm_split(kWorldComm, 0, -api.rank());
    for (int i = 0; i < 6; ++i) {
      api.allreduce(i % 2 == 0 ? dup : rev, in, out, umpi::Datatype::kDouble,
                    umpi::ReduceOp::kSum);
    }
  });

  const auto traces = engine.traces();
  // All collective events across dup/rev/world share one ggid (they are all
  // MPI_SIMILAR to the world group) with strictly increasing seq per rank.
  std::set<std::uint64_t> ggids;
  for (const auto& e : traces[0]) {
    if (e.kind == core::TraceEventKind::kCollectiveExecuted) ggids.insert(e.ggid);
  }
  EXPECT_EQ(ggids.size(), 1u);

  core::DrainGraph graph(traces);
  const auto verdict = graph.check_safe_state(1, true);
  EXPECT_TRUE(verdict.ok) << verdict.error;
}

}  // namespace
}  // namespace manatee::split
