// workloads.hpp — the benchmark's workloads and the jobs that run them.
//
// Each workload is a rank body written against split::Api in this
// directory (not src/workloads, so an edit there cannot silently change the
// benchmark), a world shape and a protocol. A job is one execution of it:
// the native reference run, or the timed run (CC under split::Lifecycle for
// vasp_chain). Every job runs on the events backend with one worker, which
// makes every virtual-time quantity repeat exactly for a given seed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "split/engine.hpp"

namespace perfbench {

/// The Api call kinds the traced mode times, one span per call.
enum class Kind : std::uint8_t {
  kAlltoall,
  kAllreduce,
  kIallreduce,
  kBcast,
  kBarrier,
  kHalo,  ///< one ring-halo round: 2 irecv + 2 isend + waitall
  kWait,  ///< completion wait of a nonblocking collective
  kCommSplit,
};
inline constexpr int kKindCount = 8;
[[nodiscard]] const char* kind_name(Kind kind);

struct Span {
  std::int32_t rank = 0;
  Kind kind = Kind::kAlltoall;
  std::int64_t wall_begin_ns = 0;
  std::int64_t wall_end_ns = 0;
  manatee::simnet::SimTime virt_begin_ns = 0;
  manatee::simnet::SimTime virt_end_ns = 0;
};

/// Spans of one traced job, kept in memory. Each rank writes only its own
/// slots, so the (single) scheduler worker needs no lock.
struct Trace {
  explicit Trace(int world);
  std::vector<std::vector<Span>> spans;
  /// Wall end of the rank's previous call (or its app entry).
  std::vector<std::int64_t> last_end_ns;
  /// Wall time the rank spent in application code between calls.
  std::vector<std::int64_t> self_ns;
  /// Restart launches: the rank has finished replaying completed ops.
  std::vector<char> caught_up;
};

/// Everything one job reports. Sums run over the job's launches.
struct JobResult {
  bool ok = true;
  std::string error;

  double wall_s = 0;
  double setup_s = 0;  ///< engine start → first rank in app code, summed
  std::vector<double> launch_ms;     ///< per launch: setup
  std::vector<double> all_in_ms;     ///< per launch: engine start → last rank in
  std::vector<double> restore_ms;    ///< per restart: engine start → replay done
  double peak_rss_mb = 0;

  manatee::simnet::SimTime virt_ns = 0;  ///< makespans, summed
  std::vector<std::uint64_t> fingerprints;  ///< per rank, final launch
  int bad_sums = 0;  ///< world_64k: allreduce results that were wrong
  bool completed = true;
  std::uint64_t crashes = 0;

  std::vector<manatee::simnet::SimTime> ckpt_ns;     ///< per checkpoint: stall
  std::vector<manatee::simnet::SimTime> drain_ns;    ///< per checkpoint: to durable
  std::vector<manatee::simnet::SimTime> restart_ns;  ///< per restart
  std::uint64_t image_bytes = 0;
  std::uint64_t written_bytes = 0;
  std::uint64_t protocol_msgs = 0;
  std::uint64_t coll_msgs = 0;
  std::uint64_t coll_calls = 0;
  std::uint64_t p2p_calls = 0;
  std::uint64_t trace_events = 0;  ///< core::TraceLog events (traced vasp_chain)
  double registered_kb = 0;  ///< CC shadow bytes per rank (0 under native)
  manatee::sched::SchedStats sched;  ///< counters summed, peak_committed max
  std::array<manatee::simnet::TrafficCounters, manatee::simnet::kTrafficClassCount>
      traffic{};
};

struct Workload;

/// Per-job state shared by the rank bodies: launch timing, outputs, and the
/// optional trace. Rank bodies touch only their own rank's slots, except
/// the launch fields, which the first and last rank to enter write.
struct JobCtx {
  JobCtx(const Workload& workload, Trace* trace);

  void begin_launch();
  void end_launch(bool restore, JobResult& out);

  const Workload& workload;
  Trace* const trace;
  std::vector<std::uint64_t> fingerprints;
  std::atomic<int> bad_sums{0};

  // Current launch.
  std::int64_t launch_start_ns = 0;
  std::atomic<int> entered{0};
  std::int64_t first_in_ns = 0;
  std::int64_t all_in_ns = 0;
  std::atomic<std::int64_t> replay_done_ns{0};
};

struct Workload {
  std::string name;
  int ranks = 0;
  int ranks_per_node = 0;
  manatee::split::Protocol protocol = manatee::split::Protocol::kNative;
  /// Crashes the timed job must survive (vasp_chain only).
  std::uint64_t crashes = 0;
  std::uint64_t seed = 0;
  /// world_64k: the correct allreduce result of each round.
  std::vector<std::int64_t> expected_sums;
  std::function<void(manatee::split::Api&, JobCtx&)> body;
};

/// The workload `name` with inputs drawn from `seed`; `small` shrinks every
/// world and loop to a few ranks and steps (the self-test size). Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     bool small);

/// The native reference run: fingerprints and the overhead baseline.
[[nodiscard]] JobResult run_reference(const Workload& workload);

/// The timed job. `image_root` is a fresh directory for checkpoint images;
/// `trace` (nullable) turns on span recording.
[[nodiscard]] JobResult run_timed(const Workload& workload, const JobResult& reference,
                                  const std::string& image_root, Trace* trace);

/// Check a timed job against the reference; returns "" when it verifies,
/// else what is wrong.
[[nodiscard]] std::string verify(const Workload& workload, const JobResult& reference,
                                 const JobResult& timed);

}  // namespace perfbench
