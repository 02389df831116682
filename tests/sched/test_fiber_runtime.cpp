// Events backend under the full UMPI runtime: large multiplexed worlds,
// stack vacating, abort propagation from a throwing fiber rank, and the
// deadlock watchdog.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sched/fiber.hpp"
#include "simnet/mailbox.hpp"
#include "umpi/runtime.hpp"

namespace manatee::umpi {
namespace {

RuntimeConfig world_on(sched::Backend backend, int n, int ranks_per_node = 8) {
  RuntimeConfig config;
  config.world_size = n;
  config.ranks_per_node = ranks_per_node;
  config.sched.backend = backend;
  return config;
}

RuntimeConfig events_world(int n, int ranks_per_node = 8) {
  return world_on(sched::Backend::kEvents, n, ranks_per_node);
}

template <typename T>
std::span<const std::byte> cspan(const T& v) {
  return std::as_bytes(std::span(&v, 1));
}

template <typename T>
std::span<std::byte> wspan(T& v) {
  return std::as_writable_bytes(std::span(&v, 1));
}

TEST(EventsSmoke, ThousandRankCollectivesDriveStacklessly) {
  // The headline smoke: 1024 simulated ranks multiplexed on the worker
  // pool, running a real barrier + allreduce with full verification. The
  // fan-in waits are served by continuation firings — at least some parks
  // must be stackless, and results must match the threads run bit for bit
  // (asserted exhaustively in tests/sched/test_equivalence.cpp).
  simnet::MessageStore::set_wait_timeout_ms(120'000);
  constexpr int kWorld = 1024;
  Runtime runtime(events_world(kWorld));
  runtime.run([](Rank& self) {
    self.barrier(self.world());
    const std::int64_t mine = self.world_rank();
    std::int64_t sum = 0;
    self.allreduce(self.world(), cspan(mine), wspan(sum), Datatype::kInt64,
                   ReduceOp::kSum);
    EXPECT_EQ(sum, static_cast<std::int64_t>(kWorld) * (kWorld - 1) / 2);
    self.barrier(self.world());
  });
  const auto& stats = runtime.sched_stats();
  EXPECT_GE(stats.dispatches, static_cast<std::uint64_t>(kWorld));
  EXPECT_LE(stats.stacks_mapped, static_cast<std::uint64_t>(kWorld));
  EXPECT_GT(stats.stackless_parks, 0u);
  EXPECT_GT(runtime.max_clock(), 0);
  simnet::MessageStore::set_wait_timeout_ms(10'000);
}

/// Per-rank digests and the virtual makespan of a world running blocking
/// collectives (allreduce, bcast, barrier, allgather) on `backend`.
struct CollectiveRun {
  std::vector<std::uint64_t> digests;
  simnet::SimTime makespan = 0;
  sched::SchedStats stats;
};

CollectiveRun run_blocking_collectives(sched::Backend backend, int world,
                                       int workers) {
  RuntimeConfig config = world_on(backend, world, 4);
  config.sched.workers = workers;
  Runtime runtime(config);
  CollectiveRun out;
  out.digests.resize(static_cast<std::size_t>(world));
  runtime.run([&](Rank& self) {
    std::uint64_t digest = 0;
    for (int round = 0; round < 4; ++round) {
      const std::int64_t mine = (self.world_rank() + 1) * (round + 1);
      std::int64_t sum = 0;
      self.allreduce(self.world(), cspan(mine), wspan(sum), Datatype::kInt64,
                     ReduceOp::kSum);
      std::int64_t root_value = self.world_rank() == round ? sum + round : 0;
      self.bcast(self.world(), wspan(root_value), round);
      self.barrier(self.world());
      std::vector<std::int64_t> all(static_cast<std::size_t>(world));
      self.allgather(self.world(), cspan(mine),
                     std::as_writable_bytes(std::span(all)));
      digest = digest * 31 + static_cast<std::uint64_t>(sum);
      digest = digest * 31 + static_cast<std::uint64_t>(root_value);
      for (const std::int64_t v : all) {
        digest = digest * 31 + static_cast<std::uint64_t>(v);
      }
    }
    out.digests[static_cast<std::size_t>(self.world_rank())] = digest;
  });
  out.makespan = runtime.max_clock();
  out.stats = runtime.sched_stats();
  return out;
}

TEST(EventsSmoke, BlockingCollectivesVacateParkedStacks) {
  // Every quiescent shallow park vacates its stack to the heap, so an
  // events world blocked in collectives must vacate — except under the
  // sanitizers, which keep shadow state for stack memory. One worker
  // defers the decommits into a batch, two decommit eagerly; either way
  // the copy-out/restore must be invisible: results and virtual time
  // equal the threads reference run.
  simnet::MessageStore::set_wait_timeout_ms(30'000);
  constexpr int kWorld = 16;
  const CollectiveRun threads =
      run_blocking_collectives(sched::Backend::kThreads, kWorld, 0);
  EXPECT_EQ(threads.stats.stack_vacations, 0u);
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const CollectiveRun events =
        run_blocking_collectives(sched::Backend::kEvents, kWorld, workers);
    EXPECT_EQ(events.digests, threads.digests);
    EXPECT_EQ(events.makespan, threads.makespan);
    if (sched::detail::stack_vacate_supported()) {
      EXPECT_GT(events.stats.stack_vacations, 0u);
    } else {
      EXPECT_EQ(events.stats.stack_vacations, 0u);
    }
  }
  simnet::MessageStore::set_wait_timeout_ms(10'000);
}

TEST(EventsSmoke, AbortUnwindsParkedEventDrivenRanks) {
  // A rank faulting mid-collective must unwind peers whose waits are held
  // by a registered watch + armed continuation, not a stackful park.
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  Runtime runtime(events_world(8));
  EXPECT_THROW(
      runtime.run([](Rank& self) {
        if (self.world_rank() == 3) throw std::runtime_error("injected fault");
        self.barrier(self.world());
        self.barrier(self.world());
      }),
      std::runtime_error);
  EXPECT_TRUE(runtime.aborted());
}

TEST(FiberRuntime, AbortPropagatesFromThrowingFiberRank) {
  // Satellite: when the throwing rank is a fiber, first_error capture +
  // notify_all_ranks must still unwind every parked peer.
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  Runtime runtime(events_world(8));
  EXPECT_THROW(
      runtime.run([](Rank& self) {
        if (self.world_rank() == 3) {
          throw std::runtime_error("boom from fiber rank 3");
        }
        // Everyone else blocks on a message that never arrives; the abort
        // broadcast must wake their parked fibers and unwind them.
        int v = 0;
        self.recv(self.world(), wspan(v), 3, 77);
        FAIL() << "recv should have unwound on peer abort";
      }),
      std::runtime_error);
  EXPECT_TRUE(runtime.aborted());
}

TEST(FiberRuntime, WatchdogFaultsParkedFibers) {
  // The distributed-deadlock watchdog must keep firing when the parked
  // waiters are fibers: deadlines travel into the backend's deadline heap
  // and an idle worker expires them.
  simnet::MessageStore::set_wait_timeout_ms(300);
  Runtime runtime(events_world(2));
  EXPECT_THROW(
      runtime.run([](Rank& self) {
        if (self.world_rank() == 0) {
          int v = 0;
          self.recv(self.world(), wspan(v), 1, 5);  // never sent
        }
      }),
      RuntimeFault);
  simnet::MessageStore::set_wait_timeout_ms(10'000);
}

TEST(FiberRuntime, SingleWorkerRunsWholeWorld) {
  // Pin the pool to one worker: the whole world advances purely by
  // cooperative scheduling — any lost wakeup or missing yield deadlocks.
  simnet::MessageStore::set_wait_timeout_ms(30'000);
  RuntimeConfig config = events_world(64);
  config.sched.workers = 1;
  Runtime runtime(config);
  runtime.run([](Rank& self) {
    const std::int64_t mine = 1;
    std::int64_t sum = 0;
    self.allreduce(self.world(), cspan(mine), wspan(sum), Datatype::kInt64,
                   ReduceOp::kSum);
    EXPECT_EQ(sum, 64);
    // Exercise the p2p ring under multiplexing, too.
    const int next = (self.world_rank() + 1) % 64;
    const int prev = (self.world_rank() + 63) % 64;
    int token = self.world_rank();
    int got = -1;
    auto req = self.irecv(self.world(), wspan(got), prev, 9);
    self.send(self.world(), cspan(token), next, 9);
    self.wait(req);
    EXPECT_EQ(got, prev);
  });
  EXPECT_EQ(runtime.sched_stats().workers, 1);
  simnet::MessageStore::set_wait_timeout_ms(10'000);
}

TEST(FiberRuntime, BusyPollTestLoopCannotStarvePeers) {
  // MPI_Test busy loops are legal application code; the miss-path yield in
  // Rank::test must keep the sender runnable on a single worker.
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  RuntimeConfig config = events_world(2);
  config.sched.workers = 1;
  Runtime runtime(config);
  runtime.run([](Rank& self) {
    if (self.world_rank() == 0) {
      int v = 0;
      auto req = self.irecv(self.world(), wspan(v), 1, 0);
      while (!self.test(req)) {
      }
      EXPECT_EQ(v, 41);
    } else {
      const int v = 41;
      self.send(self.world(), cspan(v), 0, 0);
    }
  });
}

}  // namespace
}  // namespace manatee::umpi
