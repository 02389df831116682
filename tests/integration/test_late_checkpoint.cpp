// Late checkpoints after finalize: rank 0 returns from the app first, a
// checkpoint lands while the other ranks still run, and the crash restarts
// every rank from that image. Rank 0's image is its exit-state shadow
// (Registry::detach), so the bytes its last operation wrote must be in the
// shadow. One case per kind of last operation, each under the threads and
// the events backend; the restarted fingerprints must equal the native
// golden run's.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "harness/scenario.hpp"

namespace manatee::split {
namespace {

enum class LastOp { kOnce, kRecv, kIrecvWait, kIallreduceWait, kAllreduce, kBcast };

const char* last_op_name(LastOp op) {
  switch (op) {
    case LastOp::kOnce: return "once";
    case LastOp::kRecv: return "recv";
    case LastOp::kIrecvWait: return "irecv_wait";
    case LastOp::kIallreduceWait: return "iallreduce_wait";
    case LastOp::kAllreduce: return "allreduce";
    case LastOp::kBcast: return "bcast";
  }
  return "?";
}

constexpr int kTag = 7;

std::uint64_t fingerprint(std::span<const double> values) {
  std::uint64_t h = 0;
  for (double v : values) h = hash_combine(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

/// Every rank fills `data`, then rank 0 performs `last` (with the peers the
/// operation needs) and returns; ranks 1.. keep computing and reducing on
/// their own communicator, so the checkpoint they trigger finds rank 0 in
/// finalize.
std::uint64_t late_app(Api& api, LastOp last) {
  std::vector<double> data(4, 0.0);
  std::vector<double> out(4, 0.0);
  double v = 0, s = 0;
  api.register_state("data", data);
  api.register_state("out", out);
  api.register_value("v", v);
  api.register_value("s", s);
  const VComm workers =
      api.comm_split(kWorldComm, api.rank() == 0 ? -1 : 1, api.rank());
  api.once([&] {
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = api.rank() * 10.0 + static_cast<double>(i) + 1;
    }
    v = api.rank() + 1.0;
  });

  const auto data_bytes = std::as_writable_bytes(std::span(data));
  const auto out_bytes = std::as_writable_bytes(std::span(out));
  switch (last) {
    case LastOp::kOnce:
      if (api.rank() == 0) {
        api.once([&] {
          for (auto& d : data) d *= 3;
        });
      }
      break;
    case LastOp::kRecv:
      if (api.rank() == 1) api.send(kWorldComm, std::as_bytes(std::span(data)), 0, kTag);
      if (api.rank() == 0) api.recv(kWorldComm, data_bytes, 1, kTag);
      break;
    case LastOp::kIrecvWait:
      if (api.rank() == 1) api.send(kWorldComm, std::as_bytes(std::span(data)), 0, kTag);
      if (api.rank() == 0) {
        VReq req = api.irecv(kWorldComm, data_bytes, 1, kTag);
        api.wait(req);
      }
      break;
    case LastOp::kIallreduceWait: {
      VReq req = api.iallreduce(kWorldComm, std::as_bytes(std::span(data)), out_bytes,
                                umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
      api.wait(req);
      break;
    }
    case LastOp::kAllreduce:
      api.allreduce(kWorldComm, std::as_bytes(std::span(data)), out_bytes,
                    umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
      break;
    case LastOp::kBcast:
      api.bcast(kWorldComm, data_bytes, umpi::Datatype::kDouble, /*root=*/1);
      break;
  }
  if (api.rank() == 0) return hash_combine(fingerprint(data), fingerprint(out));

  for (int i = 0; i < 20; ++i) {
    api.compute(1'000'000);
    api.allreduce(workers, std::as_bytes(std::span(&v, 1)),
                  std::as_writable_bytes(std::span(&s, 1)), umpi::Datatype::kDouble,
                  umpi::ReduceOp::kSum);
    api.once([&] { v = s / 2 + 1; });
  }
  return hash_combine(fingerprint(data), fingerprint(out)) ^
         std::bit_cast<std::uint64_t>(v);
}

struct LateCase {
  LastOp last;
  sched::Backend backend;
};

class LateCheckpointP : public ::testing::TestWithParam<LateCase> {};

std::vector<LateCase> late_cases() {
  std::vector<LateCase> cases;
  for (const auto backend : {sched::Backend::kThreads, sched::Backend::kEvents}) {
    for (const auto last : {LastOp::kOnce, LastOp::kRecv, LastOp::kIrecvWait,
                            LastOp::kIallreduceWait, LastOp::kAllreduce,
                            LastOp::kBcast}) {
      cases.push_back(LateCase{last, backend});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(LastOps, LateCheckpointP, ::testing::ValuesIn(late_cases()),
                         [](const auto& info) {
                           return std::string(last_op_name(info.param.last)) + "_" +
                                  sched::backend_name(info.param.backend);
                         });

TEST_P(LateCheckpointP, FinalizedRankRestartsFromItsExitState) {
  const auto& param = GetParam();
  harness::Scenario scenario;
  scenario.tag = std::string("late_") + last_op_name(param.last) + "_" +
                 sched::backend_name(param.backend);
  scenario.world = 3;
  scenario.sched.backend = param.backend;
  scenario.failures.trigger_rank = 1;
  scenario.failures.at_times = {5'000'000};
  const LastOp last = param.last;
  scenario.custom_app = [last](Api& api) { return late_app(api, last); };
  const auto out = harness::expect_scenario_roundtrip(scenario);
  EXPECT_EQ(out.lifecycle.crashes, 1u);
}

}  // namespace
}  // namespace manatee::split
