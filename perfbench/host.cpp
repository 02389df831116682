#include "host.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HostInfo host_info() {
  HostInfo info;
  info.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) info.cpu = line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  info.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  info.compiler = std::string("g++ ") + __VERSION__;
#else
  info.compiler = "unknown";
#endif
  info.build = PERFBENCH_BUILD_TYPE;
  return info;
}

double host_probe_ms() {
  // xorshift64 for a fixed number of steps; the empty asm consumes the
  // result so the loop cannot be folded away.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto start = wall_ns();
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const auto end = wall_ns();
  asm volatile("" : : "r"(x));
  return static_cast<double>(end - start) / 1e6;
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  if (!clear.flush()) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) * 1024.0 / 1e6;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::vector<std::string> manatee_env() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var(*e);
    if (var.rfind("MANATEE_", 0) == 0) out.push_back(var);
  }
  return out;
}

}  // namespace perfbench
