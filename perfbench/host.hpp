// host.hpp — what the benchmark records about the machine it runs on:
// host identity, a fixed host-speed probe, peak RSS, and the MANATEE_*
// environment knobs that would change the program under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Wall clock for every span and interval the benchmark measures.
[[nodiscard]] std::int64_t wall_ns();

struct HostInfo {
  long nproc = 0;
  std::string cpu;       ///< /proc/cpuinfo "model name"
  std::string compiler;  ///< compiler the benchmark was built with
  std::string build;     ///< CMake build type
};
[[nodiscard]] HostInfo host_info();

/// Wall milliseconds of a fixed integer loop with no simulator code in it.
/// A diagnostic: a slow probe marks a slow host phase, not a regression.
[[nodiscard]] double host_probe_ms();

/// CPU seconds (user + system) this process has used so far, all threads.
[[nodiscard]] double process_cpu_s();

/// Return freed heap to the OS and reset the process's VmHWM to its current
/// RSS, so the next peak_rss_mb() covers only what runs after this call.
void reset_peak_rss();
/// VmHWM of this process since the last reset, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Every MANATEE_* variable in the environment, as "NAME=value".
[[nodiscard]] std::vector<std::string> manatee_env();

}  // namespace perfbench
