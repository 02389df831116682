// Workload proxies: deterministic results, Table-1-like communication
// signatures, and checkpoint/restart equivalence on the *real* evaluation
// workloads (not just synthetic test apps).
#include <gtest/gtest.h>

#include <filesystem>

#include "common/stats.hpp"
#include "harness/scenario.hpp"
#include "split/engine.hpp"
#include "workloads/comd_proxy.hpp"
#include "workloads/lammps_proxy.hpp"
#include "workloads/osu.hpp"
#include "workloads/poisson_cg.hpp"
#include "workloads/sw4_proxy.hpp"
#include "workloads/vasp_proxy.hpp"

namespace manatee::workloads {
namespace {

using split::Engine;
using split::EngineConfig;
using split::Protocol;

template <typename W>
std::vector<std::uint64_t> run_fps(const W& workload, int world, Protocol p,
                                   EngineConfig* out_config = nullptr,
                                   split::RunReport* out_report = nullptr) {
  simnet::MessageStore::set_wait_timeout_ms(20'000);
  EngineConfig config;
  config.runtime.world_size = world;
  config.runtime.ranks_per_node = 4;
  config.protocol = p;
  if (out_config != nullptr) config = *out_config;
  Engine engine(config);
  std::vector<std::uint64_t> fps(static_cast<std::size_t>(world));
  auto report = engine.run([&](Api& api) {
    W instance = workload;
    instance(api);
    fps[static_cast<std::size_t>(api.rank())] = instance.outcome.fingerprint;
  });
  if (out_report != nullptr) *out_report = report;
  return fps;
}

template <typename W>
void expect_deterministic(const W& workload, int world) {
  const auto a = run_fps(workload, world, Protocol::kNative);
  const auto b = run_fps(workload, world, Protocol::kNative);
  EXPECT_EQ(a, b);
  for (auto f : a) EXPECT_NE(f, 0u);
}

template <typename W>
void expect_protocol_transparent(const W& workload, int world) {
  // Wrappers must not change application results.
  const auto native = run_fps(workload, world, Protocol::kNative);
  const auto cc = run_fps(workload, world, Protocol::kCC);
  EXPECT_EQ(native, cc);
}

template <typename W>
void expect_ckpt_restart_equivalent(const W& workload, int world,
                                    std::uint64_t trigger, const char* tag) {
  const auto native = run_fps(workload, world, Protocol::kNative);

  const std::filesystem::path dir =
      harness::fresh_dir(std::string("wl_") + tag);

  EngineConfig config;
  config.runtime.world_size = world;
  config.runtime.ranks_per_node = 4;
  config.protocol = Protocol::kCC;
  config.image_dir = dir.string();
  config.failures.at_collectives = {trigger};
  config.stop_after_checkpoint = true;
  {
    Engine engine(config);
    const auto report = engine.run([&](Api& api) {
      W instance = workload;
      instance(api);
    });
    ASSERT_EQ(report.checkpoints, 1u) << "trigger missed";
  }
  EngineConfig config2 = config;
  config2.failures.at_collectives.clear();
  config2.stop_after_checkpoint = false;
  Engine engine(config2);
  std::vector<std::uint64_t> restored(static_cast<std::size_t>(world));
  engine.restart([&](Api& api) {
    W instance = workload;
    instance(api);
    restored[static_cast<std::size_t>(api.rank())] = instance.outcome.fingerprint;
  });
  EXPECT_EQ(restored, native);
  std::filesystem::remove_all(dir);
}

VaspProxy small_vasp() {
  VaspProxy v;
  v.scf_iterations = 2;
  v.ffts_per_iteration = 4;
  v.compute_per_fft_ns = 50'000;
  v.wavefunction_elems = 256;
  return v;
}

PoissonCg small_poisson() {
  PoissonCg p;
  p.iterations = 8;
  p.local_n = 128;
  p.compute_per_iter_ns = 100'000;
  return p;
}

CoMDProxy small_comd() {
  CoMDProxy c;
  c.timesteps = 10;
  c.compute_per_step_ns = 100'000;
  return c;
}

LammpsProxy small_lammps() {
  LammpsProxy l;
  l.timesteps = 8;
  l.compute_per_step_ns = 100'000;
  return l;
}

Sw4Proxy small_sw4() {
  Sw4Proxy s;
  s.timesteps = 10;
  s.compute_per_step_ns = 100'000;
  return s;
}

TEST(Workloads, VaspDeterministicAndTransparent) {
  expect_deterministic(small_vasp(), 4);
  expect_protocol_transparent(small_vasp(), 4);
}

TEST(Workloads, PoissonDeterministicAndTransparent) {
  expect_deterministic(small_poisson(), 4);
  expect_protocol_transparent(small_poisson(), 4);
}

TEST(Workloads, CoMDDeterministicAndTransparent) {
  expect_deterministic(small_comd(), 4);
  expect_protocol_transparent(small_comd(), 4);
}

TEST(Workloads, LammpsDeterministicAndTransparent) {
  expect_deterministic(small_lammps(), 4);
  expect_protocol_transparent(small_lammps(), 4);
}

TEST(Workloads, Sw4DeterministicAndTransparent) {
  expect_deterministic(small_sw4(), 4);
  expect_protocol_transparent(small_sw4(), 4);
}

TEST(Workloads, VaspCheckpointRestart) {
  expect_ckpt_restart_equivalent(small_vasp(), 4, 9, "vasp");
}

TEST(Workloads, PoissonCheckpointRestart) {
  // Checkpoints with Iallreduce in flight (the §4.3 path).
  expect_ckpt_restart_equivalent(small_poisson(), 4, 7, "poisson");
}

TEST(Workloads, CoMDCheckpointRestart) {
  expect_ckpt_restart_equivalent(small_comd(), 4, 2, "comd");
}

TEST(Workloads, LammpsCheckpointRestart) {
  expect_ckpt_restart_equivalent(small_lammps(), 4, 1, "lammps");
}

TEST(Workloads, Sw4CheckpointRestart) {
  expect_ckpt_restart_equivalent(small_sw4(), 4, 1, "sw4");
}

TEST(Workloads, CommunicationSignaturesOrdered) {
  // Table 1's qualitative ordering: VASP ≫ Poisson > CoMD > LAMMPS > SW4 in
  // collective call rate, and LAMMPS p2p-heaviest relative to collectives.
  auto rate = [&](auto workload) {
    split::RunReport report;
    EngineConfig config;
    config.runtime.world_size = 8;
    config.runtime.ranks_per_node = 4;
    run_fps(workload, 8, Protocol::kNative, &config, &report);
    const double secs = report.seconds();
    return std::pair<double, double>{
        static_cast<double>(report.wrapper_collective_calls) / 8 / secs,
        static_cast<double>(report.wrapper_p2p_calls) / 8 / secs};
  };
  VaspProxy vasp;
  vasp.scf_iterations = 2;
  PoissonCg poisson;
  poisson.iterations = 6;
  CoMDProxy comd;
  comd.timesteps = 15;
  Sw4Proxy sw4;
  sw4.timesteps = 45;

  const auto [vasp_coll, vasp_p2p] = rate(vasp);
  const auto [poisson_coll, poisson_p2p] = rate(poisson);
  const auto [comd_coll, comd_p2p] = rate(comd);
  const auto [sw4_coll, sw4_p2p] = rate(sw4);

  EXPECT_GT(vasp_coll, 20 * poisson_coll);
  EXPECT_GT(poisson_coll, comd_coll);
  EXPECT_GT(comd_coll, sw4_coll);
  EXPECT_EQ(poisson_p2p, 0.0);        // Table 1: NA
  EXPECT_GT(comd_p2p, 10 * comd_coll);  // p2p-dominated
  EXPECT_GT(sw4_p2p, 100 * sw4_coll);
  (void)vasp_p2p;
}

TEST(Workloads, OsuLatencyRunsAllCollectives) {
  for (const auto coll :
       {OsuCollective::kBcast, OsuCollective::kAlltoall, OsuCollective::kAllreduce,
        OsuCollective::kAllgather}) {
    for (const bool nbc : {false, true}) {
      OsuLatency osu;
      osu.params.collective = coll;
      osu.params.nonblocking = nbc;
      osu.params.iterations = 5;
      osu.params.message_bytes = 64;
      EngineConfig config;
      config.runtime.world_size = 4;
      Engine engine(config);
      const auto report = engine.run([&](Api& api) {
        OsuLatency instance = osu;
        instance(api);
      });
      EXPECT_GT(report.makespan, 0) << osu_collective_name(coll, nbc);
    }
  }
}

TEST(Workloads, OsuOverlapCcComparableToNative) {
  // The paper's Figure 6 claim: the CC wrapper does not break the
  // communication/computation overlap of non-blocking collectives.
  auto measure = [](Protocol p) {
    OsuOverlap osu;
    osu.params.collective = OsuCollective::kAllreduce;
    osu.params.message_bytes = 1024;
    osu.params.iterations = 60;
    EngineConfig config;
    config.runtime.world_size = 4;
    config.protocol = p;
    Engine engine(config);
    manatee::RunningStats stats;
    std::mutex m;
    engine.run([&](Api& api) {
      OsuOverlap instance = osu;
      instance(api);
      std::lock_guard lock(m);
      stats.add(instance.overlap_pct);
    });
    return stats.mean();
  };
  const double native = measure(Protocol::kNative);
  const double cc = measure(Protocol::kCC);
  EXPECT_GT(native, 0.0);
  EXPECT_LE(native, 100.0);
  // CC within a few points of native (both directions). The overlap
  // measurement carries a small scheduling wobble (~1-2% of t_overlap),
  // hence the generous tolerance.
  EXPECT_NEAR(cc, native, 15.0);
}

TEST(Workloads, OsuNamesStable) {
  EXPECT_STREQ(osu_collective_name(OsuCollective::kBcast, false), "MPI_Bcast");
  EXPECT_STREQ(osu_collective_name(OsuCollective::kBcast, true), "MPI_Ibcast");
  EXPECT_STREQ(osu_collective_name(OsuCollective::kAlltoall, true),
               "MPI_Ialltoall");
}

}  // namespace
}  // namespace manatee::workloads
