// Core fiber-scheduler units: context switching, stack pooling, yield
// ordering, and the Waiter park/notify state machine in both modes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"
#include "sched/fiber.hpp"
#include "sched/scheduler.hpp"
#include "sched/waiter.hpp"

namespace manatee::sched {
namespace {

using namespace std::chrono_literals;

SchedConfig events(int workers = 1) {
  SchedConfig config;
  config.backend = Backend::kEvents;
  config.workers = workers;
  return config;
}

TEST(SchedBackend, ParseNames) {
  EXPECT_EQ(parse_backend("threads"), Backend::kThreads);
  EXPECT_EQ(parse_backend("events"), Backend::kEvents);
  // A typo — or the retired "fibers" backend — must fail loudly, never
  // silently fall back to the default.
  EXPECT_THROW((void)parse_backend("coroutines"), UsageError);
  EXPECT_THROW((void)parse_backend(""), UsageError);
  EXPECT_THROW((void)parse_backend("Events"), UsageError);
  EXPECT_THROW((void)parse_backend("fibers"), UsageError);
  EXPECT_STREQ(backend_name(Backend::kThreads), "threads");
  EXPECT_STREQ(backend_name(Backend::kEvents), "events");
}

TEST(SchedBackend, DefaultIsEventsUnlessOverridden) {
  const char* env = std::getenv("MANATEE_SCHED");
  const Backend expected = env != nullptr && *env != '\0'
                               ? parse_backend(env)
                               : Backend::kEvents;
  EXPECT_EQ(default_backend(), expected);
  EXPECT_EQ(SchedConfig{}.backend, expected);
}

TEST(SchedBackend, ThreadsRunEveryTask) {
  std::vector<std::atomic<int>> ran(8);
  SchedConfig config;
  config.backend = Backend::kThreads;
  const auto stats = run_tasks(config, 8, [&](int i) {
    ran[static_cast<std::size_t>(i)].store(1);
    EXPECT_EQ(current_fiber(), nullptr);
  });
  for (auto& r : ran) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(stats.workers, 8);
  EXPECT_EQ(stats.stacks_mapped, 0u);
}

TEST(SchedBackend, EventsRunEveryTask) {
  std::vector<std::atomic<int>> ran(64);
  const auto stats = run_tasks(events(2), 64, [&](int i) {
    ran[static_cast<std::size_t>(i)].store(1);
    EXPECT_NE(current_fiber(), nullptr);
  });
  for (auto& r : ran) EXPECT_EQ(r.load(), 1);
  EXPECT_LE(stats.workers, 2);
  EXPECT_GE(stats.dispatches, 64u);
}

TEST(SchedBackend, YieldInterleavesDeterministicallyOnOneWorker) {
  // A single worker drains the ready deque FIFO, so two yielding fibers
  // must alternate exactly.
  std::vector<int> order;
  run_tasks(events(1), 2, [&](int i) {
    for (int k = 0; k < 4; ++k) {
      order.push_back(i);
      yield();
    }
  });
  const std::vector<int> expected{0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_EQ(order, expected);
}

TEST(SchedBackend, StacksAreReusedAcrossSequentialFibers) {
  // Run-to-completion tasks on one worker: only one stack is ever live, so
  // the pool maps one stack and recycles it for every later fiber.
  const auto stats = run_tasks(events(1), 32, [](int) {});
  EXPECT_EQ(stats.stacks_mapped, 1u);
  EXPECT_EQ(stats.stacks_reused, 31u);
}

TEST(SchedBackend, ConcurrentlyLiveFibersGetDistinctStacks) {
  // Every fiber yields once before finishing, so all four are live at once
  // and each needs its own stack.
  const auto stats = run_tasks(events(1), 4, [](int) { yield(); });
  EXPECT_EQ(stats.stacks_mapped, 4u);
  EXPECT_EQ(stats.stacks_reused, 0u);
}

// Burn `frames` stack frames, each holding live data, and verify the data
// survives the recursion and interleaved context switches.
std::uint64_t deep(int frames, std::uint64_t acc) {
  volatile std::uint64_t local[32];
  for (int i = 0; i < 32; ++i) local[i] = acc + static_cast<std::uint64_t>(i);
  if (frames > 0) acc = deep(frames - 1, acc + 1);
  yield();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(local[i]),
              (acc - static_cast<std::uint64_t>(frames)) +
                  static_cast<std::uint64_t>(i));
  }
  return acc;
}

TEST(SchedBackend, DeepStacksSurviveSwitches) {
  std::vector<std::uint64_t> out(4);
  run_tasks(events(1), 4, [&](int i) {
    // ~300 frames x ~300B of live locals stays well inside the 256 KiB
    // default stack while exercising a real call chain across switches.
    out[static_cast<std::size_t>(i)] =
        deep(300, static_cast<std::uint64_t>(i) * 1000);
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i) * 1000 + 300);
  }
}

TEST(SchedBackend, RunTasksInsideFiberIsRejected) {
  run_tasks(events(1), 1, [](int) {
    EXPECT_THROW(run_tasks(SchedConfig{}, 1, [](int) {}), UsageError);
  });
}

TEST(SchedBackend, FiberLocalLogLabels) {
  // Each fiber's label must survive arbitrary interleavings with the other
  // fibers on the same OS thread (satellite: fiber-local log labels).
  run_tasks(events(1), 4, [](int i) {
    const std::string mine = "fiber " + std::to_string(i);
    set_log_thread_label(mine);
    for (int k = 0; k < 3; ++k) {
      yield();
      EXPECT_EQ(log_detail::thread_label(), mine);
    }
  });
}

TEST(Waiter, ThreadModeParkAndNotify) {
  common::Mutex m;
  Waiter w;
  bool ready = false;
  bool woke = false;
  std::thread t([&] {
    common::MutexLock lock(m);
    while (!ready) {
      ASSERT_TRUE(w.park_until(m, std::chrono::steady_clock::now() + 5s));
    }
    woke = true;
  });
  {
    common::MutexLock lock(m);
    ready = true;
    w.notify();
  }
  t.join();
  EXPECT_TRUE(woke);
}

TEST(Waiter, ThreadModeTimeout) {
  common::Mutex m;
  Waiter w;
  common::MutexLock lock(m);
  EXPECT_FALSE(w.park_until(m, std::chrono::steady_clock::now() + 10ms));
}

TEST(Waiter, FiberParkAndNotify) {
  common::Mutex m;
  Waiter w;
  bool ready = false;
  bool woke = false;
  run_tasks(events(1), 2, [&](int i) {
    if (i == 0) {
      common::MutexLock lock(m);
      while (!ready) {
        ASSERT_TRUE(w.park_until(m, std::chrono::steady_clock::now() + 5s));
      }
      woke = true;
    } else {
      common::MutexLock lock(m);
      ready = true;
      w.notify();
    }
  });
  EXPECT_TRUE(woke);
}

TEST(Waiter, NotifyWakesExactlyTheTargetedFiber) {
  // Four fibers park on four distinct waiters; the fifth notifies #2 and
  // the first fiber to resume must be #2 (wake-one targeting, the mailbox's
  // targeted-wakeup contract).
  constexpr int kWaiters = 4;
  common::Mutex m;
  Waiter waiters[kWaiters];
  bool ready[kWaiters] = {};
  std::vector<int> wake_order;
  run_tasks(events(1), kWaiters + 1, [&](int i) {
    if (i < kWaiters) {
      common::MutexLock lock(m);
      while (!ready[i]) {
        ASSERT_TRUE(waiters[i].park_until(
            m, std::chrono::steady_clock::now() + 5s));
      }
      wake_order.push_back(i);
    } else {
      m.lock();
      ready[2] = true;
      waiters[2].notify();
      m.unlock();
      yield();  // let #2 run before releasing the rest
      m.lock();
      for (int k = 0; k < kWaiters; ++k) {
        ready[k] = true;
        waiters[k].notify();
      }
      m.unlock();
    }
  });
  ASSERT_EQ(wake_order.size(), static_cast<std::size_t>(kWaiters));
  EXPECT_EQ(wake_order.front(), 2);
}

TEST(Waiter, FiberTimeoutExpiresViaDeadlineHeap) {
  const auto start = std::chrono::steady_clock::now();
  run_tasks(events(1), 1, [&](int) {
    common::Mutex m;
    Waiter w;
    common::MutexLock lock(m);
    EXPECT_FALSE(
        w.park_until(m, std::chrono::steady_clock::now() + 20ms));
  });
  // The idle worker sleeps until the deadline heap's earliest entry and
  // expires it; the park must time out promptly, not hang.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(Waiter, QuiescentParkVacatesAndRestoresTheStack) {
  // A park on a waiter that promises a quiescent stack hands the whole
  // stack to the heap until re-dispatch; the restore must bring every live
  // frame byte back to the same address.
  common::Mutex m;
  Waiter w;
  bool ready = false;
  std::uint64_t sum = 0;
  const auto stats = run_tasks(events(1), 2, [&](int i) {
    if (i == 0) {
      volatile std::uint64_t local[64];
      for (int k = 0; k < 64; ++k) local[k] = 0x9e3779b97f4a7c15ULL * (k + 1);
      {
        common::MutexLock lock(m);
        w.set_stack_quiescent(true);
        while (!ready) {
          ASSERT_TRUE(w.park_until(m, std::chrono::steady_clock::now() + 5s));
        }
      }
      for (int k = 0; k < 64; ++k) {
        EXPECT_EQ(static_cast<std::uint64_t>(local[k]),
                  0x9e3779b97f4a7c15ULL * (k + 1));
        sum += local[k];
      }
    } else {
      common::MutexLock lock(m);
      ready = true;
      w.notify();
    }
  });
  EXPECT_NE(sum, 0u);
  EXPECT_EQ(stats.stack_vacations, detail::stack_vacate_supported() ? 1u : 0u);
}

TEST(Waiter, PingPongManyRoundsWithoutLostWakeups) {
  // Each fiber parks only on its own waiter (a Waiter serves one parker —
  // the mailbox contract) and notifies its peer's. 50 rounds on two
  // workers exercise the notify-while-kParking window; a single lost
  // wakeup deadlocks the test.
  common::Mutex m;
  Waiter waiters[2];
  int turn = 0;
  run_tasks(events(2), 2, [&](int i) {
    for (int round = 0; round < 50; ++round) {
      common::MutexLock lock(m);
      while (turn % 2 != i) {
        ASSERT_TRUE(waiters[i].park_until(
            m, std::chrono::steady_clock::now() + 5s));
      }
      ++turn;
      waiters[1 - i].notify();
    }
  });
  EXPECT_EQ(turn, 100);
}

TEST(StackPool, MapsAndRecycles) {
  StackPool pool(64 * 1024);
  auto a = pool.acquire();
  const auto* base_a = a.base;
  EXPECT_GE(a.usable(), 64u * 1024u);
  pool.release(a);
  auto b = pool.acquire();
  EXPECT_EQ(b.base, base_a);  // free-list hit
  EXPECT_EQ(pool.mapped(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
  pool.release(b);
}

}  // namespace
}  // namespace manatee::sched
