// bench_util.hpp — shared scaffolding for the per-table/figure benchmark
// harnesses. Each harness runs workloads under Native / 2PC / CC and
// reports virtual-time results in the same rows/series as the paper.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/stats.hpp"
#include "sched/scheduler.hpp"
#include "simnet/mailbox.hpp"
#include "split/engine.hpp"

namespace manatee::bench {

using split::Api;
using split::Engine;
using split::EngineConfig;
using split::Protocol;
using split::RunReport;

/// Run one workload instance per rank under `protocol`; returns the report.
template <typename W>
RunReport run_workload(const W& workload, int world, int ranks_per_node,
                       Protocol protocol,
                       const std::function<void(EngineConfig&)>& tweak = {}) {
  simnet::MessageStore::set_wait_timeout_ms(120'000);
  EngineConfig config;
  config.runtime.world_size = world;
  config.runtime.ranks_per_node = ranks_per_node;
  config.protocol = protocol;
  if (tweak) tweak(config);
  Engine engine(config);
  return engine.run([&](Api& api) {
    W instance = workload;
    instance(api);
  });
}

inline void print_header(const std::string& title, const std::string& source) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s; virtual-time simulation — compare shapes, not "
              "absolute values)\n\n",
              source.c_str());
}

/// Standard world-size sweep: paper scale divided by 8 by default
/// (128→16, ..., 2048→256); `--full` restores paper scale.
inline std::vector<int> world_sweep(const Options& opts) {
  if (opts.get_bool("full")) return {128, 256, 512, 1024, 2048};
  if (opts.has("ranks")) return {static_cast<int>(opts.get_int("ranks", 16))};
  return {16, 32, 64, 128};
}

inline int ranks_per_node(const Options& opts, int fallback = 16) {
  return static_cast<int>(opts.get_int("ranks-per-node", fallback));
}

/// Apply --sched=threads|events and --sched-workers=N to an engine config
/// (every bench accepts them; MANATEE_SCHED keeps working as the default,
/// events when unset). Unknown backend names throw UsageError (via
/// parse_backend) rather than silently falling back to the default.
inline void apply_sched_options(const Options& opts, EngineConfig& config) {
  if (opts.has("sched")) {
    config.runtime.sched.backend =
        sched::parse_backend(opts.get("sched", "events"));
  }
  if (opts.has("sched-workers")) {
    config.runtime.sched.workers =
        static_cast<int>(opts.get_int("sched-workers", 0));
  }
}

}  // namespace manatee::bench
