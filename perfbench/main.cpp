// perfbench — the repository benchmark. One invocation runs one workload:
//
//   perfbench --workload <vasp_chain|halo_2k|world_64k> --seed N --seconds S
//             --trace <0|1> [--small] [--out-dir DIR]
//
// It runs the native reference once, then repeats the timed job for about S
// seconds, verifies every job, and prints its medians. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Traced runs also write <out-dir>/<workload>-seed<N>.trace.json (Chrome
// trace-event format) and <workload>-seed<N>.layers.json. README.md defines
// every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = std::stoi(value()) != 0;
    } else if (flag == "--small") {
      args.small = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

struct Metric {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, printed with --trace 0.
const std::vector<Metric> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"job_virt_s", "s"},
};

/// Per-layer metrics, printed with --trace 1 (0 where a layer is idle).
std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> m;
  for (const char* kind : {"alltoall", "allreduce", "iallreduce", "bcast", "barrier", "halo"}) {
    m.push_back({std::string("split.call_us.") + kind + ".p50", "us"});
    m.push_back({std::string("split.call_us.") + kind + ".p99", "us"});
  }
  for (const char* cls : {"user_p2p", "collective", "ckpt_protocol", "control"}) {
    m.push_back({std::string("simnet.msgs.") + cls, "count"});
    m.push_back({std::string("simnet.mb.") + cls, "MB"});
  }
  m.insert(m.end(), {
                        {"split.app_self_s", "s"},
                        {"split.coll_calls", "count"},
                        {"split.p2p_calls", "count"},
                        {"split.cc_share", "ratio"},
                        {"split.registered_kb", "KB"},
                        {"core.protocol_msgs", "count"},
                        {"core.trace_events_per_ckpt", "count"},
                        {"umpi.coll_msgs", "count"},
                        {"umpi.msgs_per_coll", "count"},
                        {"sched.dispatches", "count"},
                        {"sched.dispatches_per_call", "count"},
                        {"sched.stackless_share", "ratio"},
                        {"sched.stack_vacations", "count"},
                        {"sched.stacks_mapped", "count"},
                        {"sched.peak_committed_mb", "MB"},
                        {"sched.launch_ms", "ms"},
                        {"sched.all_ranks_in_ms", "ms"},
                        {"ckpt.image_mb", "MB"},
                        {"ckpt.written_mb", "MB"},
                        {"ckpt.write_ratio", "ratio"},
                        {"ckpt.restore_ms", "ms"},
                        {"ckpt.drain_virt_ms", "ms"},
                        {"ckpt.crashes", "count"},
                        {"cc_overhead_pct", "%"},
                        {"ckpt_virt_ms", "ms"},
                        {"restart_virt_ms", "ms"},
                        {"trace.wall_s", "s"},
                        {"trace.overhead_pct", "%"},
                    });
  return m;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

template <typename T>
double mean_ms(const std::vector<T>& ns) {
  std::vector<double> ms;
  for (const auto x : ns) ms.push_back(static_cast<double>(x) / 1e6);
  return mean(ms);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Virtual-time end-to-end figures of one job, against the reference.
std::map<std::string, double> virtual_figures(const JobResult& job, const JobResult& ref) {
  return {
      {"job_virt_s", static_cast<double>(job.virt_ns) / 1e9},
      {"cc_overhead_pct",
       (ratio(static_cast<double>(job.virt_ns), static_cast<double>(ref.virt_ns)) - 1) * 100},
      {"ckpt_virt_ms", mean_ms(job.ckpt_ns)},
      {"restart_virt_ms", mean_ms(job.restart_ns)},
  };
}

/// The per-layer figures one traced job yields (the cross-job ones —
/// split.cc_share, trace.overhead_pct — are added by the caller).
std::map<std::string, double> layer_figures(const JobResult& job, const JobResult& ref,
                                            const Trace& trace) {
  std::map<std::string, double> m = virtual_figures(job, ref);
  std::vector<std::vector<double>> call_us(kKindCount);
  double self_ns = 0;
  for (std::size_t r = 0; r < trace.spans.size(); ++r) {
    self_ns += static_cast<double>(trace.self_ns[r]);
    for (const Span& s : trace.spans[r]) {
      call_us[static_cast<std::size_t>(s.kind)].push_back(
          static_cast<double>(s.wall_end_ns - s.wall_begin_ns) / 1e3);
    }
  }
  for (const Kind k : {Kind::kAlltoall, Kind::kAllreduce, Kind::kIallreduce, Kind::kBcast,
                       Kind::kBarrier, Kind::kHalo}) {
    const auto& sample = call_us[static_cast<std::size_t>(k)];
    const std::string base = std::string("split.call_us.") + kind_name(k);
    m[base + ".p50"] = percentile(sample, 50);
    m[base + ".p99"] = percentile(sample, 99);
  }
  m["split.app_self_s"] = self_ns / 1e9;
  m["split.coll_calls"] = static_cast<double>(job.coll_calls);
  m["split.p2p_calls"] = static_cast<double>(job.p2p_calls);
  m["split.registered_kb"] = job.registered_kb;

  const double checkpoints = static_cast<double>(job.ckpt_ns.size());
  m["core.protocol_msgs"] = static_cast<double>(job.protocol_msgs);
  m["core.trace_events_per_ckpt"] = ratio(static_cast<double>(job.trace_events), checkpoints);
  m["umpi.coll_msgs"] = static_cast<double>(job.coll_msgs);
  m["umpi.msgs_per_coll"] =
      ratio(static_cast<double>(job.coll_msgs), static_cast<double>(job.coll_calls));

  const char* classes[] = {"user_p2p", "collective", "ckpt_protocol", "control"};
  for (std::size_t c = 0; c < job.traffic.size(); ++c) {
    m[std::string("simnet.msgs.") + classes[c]] = static_cast<double>(job.traffic[c].messages);
    m[std::string("simnet.mb.") + classes[c]] = static_cast<double>(job.traffic[c].bytes) / 1e6;
  }

  const auto& s = job.sched;
  m["sched.dispatches"] = static_cast<double>(s.dispatches);
  m["sched.dispatches_per_call"] = ratio(static_cast<double>(s.dispatches),
                                         static_cast<double>(job.coll_calls + job.p2p_calls));
  m["sched.stackless_share"] =
      ratio(static_cast<double>(s.stackless_parks),
            static_cast<double>(s.stackless_parks + s.fiber_fallbacks));
  m["sched.stack_vacations"] = static_cast<double>(s.stack_vacations);
  m["sched.stacks_mapped"] = static_cast<double>(s.stacks_mapped);
  m["sched.peak_committed_mb"] = static_cast<double>(s.peak_committed) / 1e6;
  m["sched.launch_ms"] = mean(job.launch_ms);
  m["sched.all_ranks_in_ms"] = mean(job.all_in_ms);

  m["ckpt.image_mb"] = static_cast<double>(job.image_bytes) / 1e6;
  m["ckpt.written_mb"] = static_cast<double>(job.written_bytes) / 1e6;
  m["ckpt.write_ratio"] =
      ratio(static_cast<double>(job.written_bytes), static_cast<double>(job.image_bytes));
  m["ckpt.restore_ms"] = mean(job.restore_ms);
  m["ckpt.drain_virt_ms"] = mean_ms(job.drain_ns);
  m["ckpt.crashes"] = static_cast<double>(job.crashes);
  m["trace.wall_s"] = job.wall_s;
  return m;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...} for `metrics`, in order.
std::string metrics_json(const std::vector<Metric>& metrics,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& m : metrics) {
    const auto it = values.find(m.name);
    out += (out.size() > 1 ? ", " : "") + json_string(m.name) + ": {\"value\": " +
           json_number(it != values.end() ? it->second : 0) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

/// Chrome trace-event JSON of a traced job: process 0 is the wall clock
/// (µs since the first span), process 1 the virtual clock (µs). At most 64
/// evenly strided ranks are written so the file stays viewable in Perfetto;
/// the per-layer metrics use every rank.
void write_chrome_trace(const std::string& path, const Trace& trace) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::size_t world = trace.spans.size();
  const std::size_t stride = std::max<std::size_t>(1, (world + 63) / 64);
  std::int64_t origin = INT64_MAX;
  for (std::size_t r = 0; r < world; r += stride) {
    if (!trace.spans[r].empty()) origin = std::min(origin, trace.spans[r].front().wall_begin_ns);
  }
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  f << R"({"name":"process_name","ph":"M","pid":0,"args":{"name":"wall clock"}},)" << "\n";
  f << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"virtual clock"}})";
  for (std::size_t r = 0; r < world; r += stride) {
    for (const Span& s : trace.spans[r]) {
      const char* name = kind_name(s.kind);
      const auto args = "\"args\":{\"rank\":" + std::to_string(s.rank) +
                        ",\"wall_begin_ns\":" + std::to_string(s.wall_begin_ns) +
                        ",\"wall_end_ns\":" + std::to_string(s.wall_end_ns) +
                        ",\"virt_begin_ns\":" + std::to_string(s.virt_begin_ns) +
                        ",\"virt_end_ns\":" + std::to_string(s.virt_end_ns) + "}";
      f << ",\n{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.rank
        << ",\"ts\":" << json_number(static_cast<double>(s.wall_begin_ns - origin) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(s.wall_end_ns - s.wall_begin_ns) / 1e3)
        << "," << args << "}";
      f << ",\n{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.rank
        << ",\"ts\":" << json_number(static_cast<double>(s.virt_begin_ns) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(s.virt_end_ns - s.virt_begin_ns) / 1e3)
        << "," << args << "}";
    }
  }
  f << "\n]}\n";
  if (!f.flush()) throw std::runtime_error("cannot write " + path);
}

int run(const Args& args) {
  // The MANATEE_* knobs change the program under test; the benchmark pins
  // its engine in code and refuses to measure a modified program.
  const auto env = manatee_env();
  std::printf("perfbench env: %zu MANATEE_* variables\n", env.size());
  for (const auto& var : env) std::printf("perfbench env:   %s\n", var.c_str());
  if (!env.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run with MANATEE_* variables set\n");
    return 3;
  }

  const HostInfo host = host_info();
  std::printf("perfbench host: nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s\n", host.nproc,
              host.cpu.c_str(), host.compiler.c_str(), host.build.c_str());
  const double probe_start_ms = host_probe_ms();

  const Workload workload = make_workload(args.workload, args.seed, args.small);
  std::printf("perfbench workload=%s seed=%llu ranks=%d ranks_per_node=%d protocol=%s "
              "crashes=%llu backend=events workers=1 trace=%d seconds=%g%s\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              workload.ranks, workload.ranks_per_node,
              manatee::split::protocol_name(workload.protocol),
              static_cast<unsigned long long>(workload.crashes), args.trace ? 1 : 0,
              args.seconds, args.small ? " (small)" : "");
  std::fflush(stdout);

  const std::filesystem::path out_dir = args.out_dir;
  std::filesystem::create_directories(out_dir);

  const auto run_start = wall_ns();
  int attempted = 1;
  int failed = 0;
  const JobResult reference = run_reference(workload);
  std::printf("perfbench reference: wall_s=%.4f virt_s=%.9f %s\n", reference.wall_s,
              static_cast<double>(reference.virt_ns) / 1e9,
              reference.ok ? "ok" : reference.error.c_str());
  if (!reference.ok || reference.bad_sums != 0) ++failed;

  std::map<std::string, std::vector<double>> plain;   // untraced jobs
  std::map<std::string, std::vector<double>> layers;  // traced jobs
  std::unique_ptr<Trace> last_trace;
  const int min_plain = args.trace ? 2 : 3;
  const int min_traced = args.trace ? 2 : 0;
  int n_plain = 0;
  int n_traced = 0;
  while (failed == 0) {
    const bool traced = args.trace && n_traced < n_plain;
    auto trace = traced ? std::make_unique<Trace>(workload.ranks) : nullptr;
    const auto image_dir =
        out_dir / ("images-" + std::to_string(::getpid()) + "-" + std::to_string(attempted));
    std::filesystem::remove_all(image_dir);
    std::filesystem::create_directories(image_dir);

    reset_peak_rss();
    const double cpu_before = process_cpu_s();
    JobResult job = run_timed(workload, reference, image_dir.string(), trace.get());
    job.peak_rss_mb = peak_rss_mb();
    const double cpu_s = process_cpu_s() - cpu_before;
    std::filesystem::remove_all(image_dir);
    ++attempted;

    const std::string problem = verify(workload, reference, job);
    std::string launches;
    for (const double ms : job.launch_ms) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.3f", launches.empty() ? "" : ",", ms);
      launches += buf;
    }
    std::printf("perfbench job %d%s: wall_s=%.4f cpu_s=%.4f setup_s=%.6f (launch_ms %s) "
                "peak_rss_mb=%.1f virt_s=%.9f crashes=%llu %s\n",
                attempted - 1, traced ? " (traced)" : "", job.wall_s, cpu_s, job.setup_s,
                launches.c_str(), job.peak_rss_mb, static_cast<double>(job.virt_ns) / 1e9,
                static_cast<unsigned long long>(job.crashes),
                problem.empty() ? "ok" : ("FAILED: " + problem).c_str());
    std::fflush(stdout);
    if (!problem.empty()) {
      ++failed;
      break;
    }

    if (traced) {
      ++n_traced;
      for (const auto& [name, value] : layer_figures(job, reference, *trace)) {
        layers[name].push_back(value);
      }
      last_trace = std::move(trace);
    } else {
      ++n_plain;
      plain["wall_s"].push_back(job.wall_s);
      plain["setup_s"].push_back(job.setup_s);
      plain["peak_rss_mb"].push_back(job.peak_rss_mb);
      for (const auto& [name, value] : virtual_figures(job, reference)) {
        plain[name].push_back(value);
      }
    }
    const double elapsed = static_cast<double>(wall_ns() - run_start) / 1e9;
    const bool enough = n_plain >= min_plain && n_traced >= min_traced;
    if (enough && elapsed + job.wall_s > args.seconds) break;
  }

  const double probe_end_ms = host_probe_ms();
  std::printf("perfbench host probe: start_ms=%.2f end_ms=%.2f (diagnostic, not gated)\n",
              probe_start_ms, probe_end_ms);

  std::map<std::string, double> values;
  for (const auto& [name, sample] : plain) values[name] = median(sample);
  std::vector<Metric> reported = kEndToEnd;
  if (args.trace) {
    for (const auto& [name, sample] : layers) values[name] = median(sample);
    const double wall = values["wall_s"];
    values["split.cc_share"] =
        workload.protocol == manatee::split::Protocol::kNative ? 0 : ratio(wall - reference.wall_s, wall);
    values["trace.overhead_pct"] = (ratio(values["trace.wall_s"], wall) - 1) * 100;
    reported = per_layer_metrics();
  }

  // Every figure by name and unit, the vasp_chain-only ones included.
  std::printf("perfbench medians over %d untraced and %d traced jobs:\n", n_plain, n_traced);
  for (const char* name : {"wall_s", "setup_s", "peak_rss_mb", "job_virt_s", "cc_overhead_pct",
                           "ckpt_virt_ms", "restart_virt_ms"}) {
    std::printf("perfbench   %-28s %.9g\n", name, values[name]);
  }

  if (args.trace && last_trace != nullptr && failed == 0) {
    const std::string stem =
        (out_dir / (workload.name + "-seed" + std::to_string(args.seed))).string();
    write_chrome_trace(stem + ".trace.json", *last_trace);
    std::ofstream(stem + ".layers.json") << metrics_json(reported, values) << "\n";
    std::printf("perfbench trace: %s.trace.json, %s.layers.json\n", stem.c_str(), stem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics_json(reported, values).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
