// Unit tests for the wrapper layer: virtual handles, the resumable-
// execution helpers (once / decide), state registration, and wrapper-level
// accounting.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.hpp"
#include "harness/scenario.hpp"
#include "split/engine.hpp"

namespace manatee::split {
namespace {

EngineConfig basic(int world, Protocol p = Protocol::kNative) {
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  EngineConfig config;
  config.runtime.world_size = world;
  config.runtime.ranks_per_node = 4;
  config.protocol = p;
  return config;
}

TEST(Api, IdentityAndWorldComm) {
  Engine engine(basic(4));
  engine.run([](Api& api) {
    EXPECT_GE(api.rank(), 0);
    EXPECT_LT(api.rank(), 4);
    EXPECT_EQ(api.size(), 4);
    EXPECT_EQ(api.comm_size(kWorldComm), 4);
    EXPECT_EQ(api.comm_rank(kWorldComm), api.rank());
    EXPECT_FALSE(api.restored());
    EXPECT_FALSE(api.replaying());
  });
}

TEST(Api, InvalidCommHandleThrows) {
  Engine engine(basic(1));
  EXPECT_THROW(engine.run([](Api& api) {
                 VComm bogus{777};
                 api.barrier(bogus);
               }),
               UsageError);
}

TEST(Api, OnceExecutesExactlyOnceInNormalRun) {
  Engine engine(basic(2));
  engine.run([](Api& api) {
    int count = 0;
    api.once([&] { ++count; });
    api.once([&] { ++count; });
    EXPECT_EQ(count, 2);
  });
}

TEST(Api, OnceChargesVirtualTime) {
  Engine engine(basic(1));
  engine.run([](Api& api) {
    const auto before = api.now();
    api.once([] {}, 12'345);
    EXPECT_EQ(api.now() - before, 12'345);
  });
}

TEST(Api, DecideRecordsAndReturnsValue) {
  Engine engine(basic(1));
  engine.run([](Api& api) {
    EXPECT_TRUE(api.decide([] { return true; }));
    EXPECT_FALSE(api.decide([] { return false; }));
  });
}

TEST(Api, CollectiveAndP2PCounters) {
  Engine engine(basic(2));
  engine.run([](Api& api) {
    api.barrier(kWorldComm);
    api.barrier(kWorldComm);
    std::int32_t v = 0;
    if (api.rank() == 0) {
      api.send(kWorldComm, std::as_bytes(std::span(&v, 1)), 1, 0);
    } else {
      api.recv(kWorldComm, std::as_writable_bytes(std::span(&v, 1)), 0, 0);
    }
    EXPECT_EQ(api.collective_calls(), 2u);
    EXPECT_EQ(api.p2p_calls(), 1u);
  });
}

TEST(Api, SendRecvThroughWrapper) {
  Engine engine(basic(2, Protocol::kCC));
  engine.run([](Api& api) {
    double v = 3.25, got = 0;
    api.register_value("v", v);
    api.register_value("got", got);
    const int peer = 1 - api.rank();
    auto req = api.irecv(kWorldComm, std::as_writable_bytes(std::span(&got, 1)),
                         peer, 5);
    api.send(kWorldComm, std::as_bytes(std::span(&v, 1)), peer, 5);
    api.wait(req);
    EXPECT_DOUBLE_EQ(got, 3.25);
    EXPECT_TRUE(req.is_null());
  });
}

TEST(Api, TestPollsVirtualRequests) {
  Engine engine(basic(2, Protocol::kCC));
  engine.run([](Api& api) {
    double in = 0, out = 1.5;
    api.register_value("in", in);
    api.register_value("out", out);
    const int peer = 1 - api.rank();
    auto req = api.irecv(kWorldComm, std::as_writable_bytes(std::span(&in, 1)),
                         peer, 2);
    api.send(kWorldComm, std::as_bytes(std::span(&out, 1)), peer, 2);
    while (!api.test(req)) {
    }
    EXPECT_DOUBLE_EQ(in, 1.5);
  });
}

TEST(Api, CommSplitThroughWrapper) {
  Engine engine(basic(4, Protocol::kCC));
  engine.run([](Api& api) {
    const VComm half = api.comm_split(kWorldComm, api.rank() / 2, api.rank());
    ASSERT_FALSE(half.is_null());
    EXPECT_EQ(api.comm_size(half), 2);
    std::int64_t one = 1, sum = 0;
    api.register_value("one", one);
    api.register_value("sum", sum);
    api.allreduce(half, std::as_bytes(std::span(&one, 1)),
                  std::as_writable_bytes(std::span(&sum, 1)),
                  umpi::Datatype::kInt64, umpi::ReduceOp::kSum);
    EXPECT_EQ(sum, 2);
  });
}

TEST(Api, WrapperCostChargedUnderCcOnly) {
  auto measure = [](Protocol p) {
    Engine engine(basic(4, p));
    return engine
        .run([](Api& api) {
          for (int i = 0; i < 50; ++i) api.barrier(kWorldComm);
        })
        .makespan;
  };
  const auto native = measure(Protocol::kNative);
  const auto cc = measure(Protocol::kCC);
  EXPECT_GT(cc, native);
  // CC's overhead is tiny: bounded by ~wrapper cost per call.
  EXPECT_LT(static_cast<double>(cc), static_cast<double>(native) * 1.25);
}

TEST(Api, TriggerRequiresProtocol) {
  EngineConfig config = basic(2, Protocol::kNative);
  config.failures.at_collectives = {1};
  Engine engine(config);
  EXPECT_THROW(engine.run([](Api&) {}), UsageError);
}

TEST(Api, RegisteredStateSurvivesCapture) {
  const std::filesystem::path dir = harness::fresh_dir("api_state");

  EngineConfig config = basic(2, Protocol::kCC);
  config.image_dir = dir.string();
  config.failures.at_collectives = {2};
  Engine engine(config);
  engine.run([](Api& api) {
    std::vector<double> state(16, api.rank() + 0.5);
    api.register_state("state", state);
    for (int i = 0; i < 5; ++i) api.barrier(kWorldComm);
  });

  const auto img = ckpt::CkptImage::read_file(ckpt::CkptImage::path_for(dir.string(), 1));
  ASSERT_TRUE(img.has("app/state"));
  EXPECT_EQ(img.blob("app/state").size(), 16 * sizeof(double));
  double first = 0;
  std::memcpy(&first, img.blob("app/state").data(), sizeof first);
  EXPECT_DOUBLE_EQ(first, 1.5);
  std::filesystem::remove_all(dir);
}

TEST(Api, UnregisteredIrecvBufferFailsCheckpoint) {
  const std::filesystem::path dir = harness::fresh_dir("api_unreg");

  EngineConfig config = basic(2, Protocol::kCC);
  config.image_dir = dir.string();
  config.failures.at_collectives = {1};
  Engine engine(config);
  EXPECT_THROW(
      engine.run([](Api& api) {
        double unregistered = 0;
        // Posted receive whose buffer is not registered: the checkpoint
        // must refuse rather than silently lose it.
        auto req = api.irecv(kWorldComm,
                             std::as_writable_bytes(std::span(&unregistered, 1)),
                             1 - api.rank(), 3);
        for (int i = 0; i < 4; ++i) api.barrier(kWorldComm);
        double v = 1;
        api.send(kWorldComm, std::as_bytes(std::span(&v, 1)), 1 - api.rank(), 3);
        api.wait(req);
      }),
      CheckpointError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace manatee::split
