#include "workloads.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "host.hpp"
#include "split/lifecycle.hpp"

namespace perfbench {

using manatee::simnet::SimTime;
using manatee::split::Api;
using manatee::split::kWorldComm;
using manatee::split::VComm;
using manatee::split::VReq;
using manatee::umpi::Datatype;
using manatee::umpi::ReduceOp;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kAlltoall: return "alltoall";
    case Kind::kAllreduce: return "allreduce";
    case Kind::kIallreduce: return "iallreduce";
    case Kind::kBcast: return "bcast";
    case Kind::kBarrier: return "barrier";
    case Kind::kHalo: return "halo";
    case Kind::kWait: return "wait";
    case Kind::kCommSplit: return "comm_split";
  }
  return "?";
}

Trace::Trace(int world)
    : spans(static_cast<std::size_t>(world)),
      last_end_ns(spans.size(), 0),
      self_ns(spans.size(), 0),
      caught_up(spans.size(), 1) {}

namespace {

// ---- seeded inputs ---------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                   std::uint64_t c = 0) {
  return splitmix(seed ^ splitmix(a ^ splitmix(b ^ splitmix(c))));
}

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
}

/// A compute phase of `base` ns, varied by the seed: ±1% shared by every
/// rank at this step (how hard the step's input is) plus ±2% per rank (load
/// imbalance). This is what makes virtual time a function of the seed; a
/// pure function of its arguments, so a restarted run replays the same
/// costs.
SimTime jittered(SimTime base, std::uint64_t seed, int rank, int step, int phase) {
  const auto s = static_cast<std::uint64_t>(step);
  const auto p = static_cast<std::uint64_t>(phase) + 0x100;
  const double shared = unit(draw(seed, 0x5eed0000, s, p)) - 0.5;
  const double own = unit(draw(seed, static_cast<std::uint64_t>(rank), s, p)) - 0.5;
  return base + static_cast<SimTime>(static_cast<double>(base) * (0.02 * shared + 0.04 * own));
}

void fill(std::vector<double>& v, std::uint64_t seed, int rank, int stream) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = unit(draw(seed, static_cast<std::uint64_t>(rank),
                     static_cast<std::uint64_t>(stream), i)) -
           0.5;
  }
}

/// FNV-1a over the bit patterns of the given doubles.
std::uint64_t fingerprint(std::initializer_list<std::span<const double>> parts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto part : parts) {
    for (const std::byte b : std::as_bytes(part)) {
      h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
    }
  }
  return h;
}

template <typename T>
std::span<const std::byte> in(const T& value) {
  return std::as_bytes(std::span(&value, 1));
}
template <typename T>
std::span<std::byte> out(T& value) {
  return std::as_writable_bytes(std::span(&value, 1));
}
std::span<const std::byte> in(const std::vector<double>& v) {
  return std::as_bytes(std::span(v));
}
std::span<std::byte> out(std::vector<double>& v) {
  return std::as_writable_bytes(std::span(v));
}

// ---- the rank's view: Api plus launch bookkeeping and spans ---------------

class RankView {
 public:
  RankView(Api& api, JobCtx& job) : api_(api), job_(job), me_(api.rank()) {
    const int k = job.entered.fetch_add(1) + 1;
    const bool last = k == job.workload.ranks;
    if (k == 1 || last || job.trace != nullptr) {
      const auto now = wall_ns();
      if (k == 1) job.first_in_ns = now;
      if (last) job.all_in_ns = now;
      if (job.trace != nullptr) {
        job.trace->last_end_ns[slot()] = now;
        job.trace->caught_up[slot()] = api.restored() ? 0 : 1;
      }
    }
  }

  [[nodiscard]] Api& api() { return api_; }

  /// Run one Api call; traced jobs record its span. Calls skipped by a
  /// restart's replay are not spans: they only fast-forward the wrapper.
  template <typename F>
  auto call(Kind kind, F&& f) -> decltype(f()) {
    if (job_.trace == nullptr) return f();
    const bool replay = api_.replaying();
    const auto wall_begin = wall_ns();
    const auto virt_begin = api_.now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      note(kind, replay, wall_begin, virt_begin);
    } else {
      auto result = f();
      note(kind, replay, wall_begin, virt_begin);
      return result;
    }
  }

  /// The app function reached its end: publish the rank's output.
  void finish(std::uint64_t fp) {
    job_.fingerprints[slot()] = fp;
    if (job_.trace != nullptr) {
      job_.trace->self_ns[slot()] += wall_ns() - job_.trace->last_end_ns[slot()];
    }
  }

 private:
  [[nodiscard]] std::size_t slot() const { return static_cast<std::size_t>(me_); }

  void note(Kind kind, bool replay, std::int64_t wall_begin, SimTime virt_begin) {
    Trace& t = *job_.trace;
    const auto wall_end = wall_ns();
    if (!replay) {
      t.spans[slot()].push_back(
          Span{me_, kind, wall_begin, wall_end, virt_begin, api_.now()});
    }
    t.self_ns[slot()] += wall_begin - t.last_end_ns[slot()];
    t.last_end_ns[slot()] = wall_end;
    if (t.caught_up[slot()] == 0 && !api_.replaying()) {
      t.caught_up[slot()] = 1;
      auto seen = job_.replay_done_ns.load();
      while (seen < wall_end && !job_.replay_done_ns.compare_exchange_weak(seen, wall_end)) {
      }
    }
  }

  Api& api_;
  JobCtx& job_;
  const int me_;
};

/// One ring-halo round on the world: receive from both neighbours, send
/// `out_buf` to both, wait for all four.
void ring_halo(RankView& r, std::vector<double>& left, std::vector<double>& right,
               const std::vector<double>& out_buf, int tag) {
  r.call(Kind::kHalo, [&] {
    Api& api = r.api();
    const int n = api.size();
    const int me = api.rank();
    const int west = (me + n - 1) % n;
    const int east = (me + 1) % n;
    std::array<VReq, 4> reqs{
        api.irecv(kWorldComm, out(left), west, tag),
        api.irecv(kWorldComm, out(right), east, tag + 1),
        api.isend(kWorldComm, in(out_buf), east, tag),
        api.isend(kWorldComm, in(out_buf), west, tag + 1),
    };
    api.waitall(reqs);
  });
}

// ---- vasp_chain: VASP-shaped SCF loop --------------------------------------

/// Sizes follow workloads::VaspProxy's defaults (SCF iterations of 12 FFT
/// transpose pairs on 2 band communicators, 128-element blocks, 1.2 ms
/// compute per FFT, 4096-element wavefunction), plus a cold pseudopotential
/// table of the same size for the delta store to dedupe. 4 SCF iterations
/// instead of the proxy's 10 keep one chain near 4 s of wall time.
struct VaspShape {
  int scf = 4;
  int ffts = 12;
  int block = 128;
  int groups = 2;
  SimTime fft_ns = 1'200'000;
  int psi = 4096;
  int pp = 4096;
  int halo = 64;
};

void vasp_body(Api& api, JobCtx& job, const VaspShape& s, std::uint64_t seed) {
  RankView r(api, job);
  const int me = api.rank();
  const int n = api.size();
  const int groups = std::clamp(s.groups, 1, n);
  const int per_group = (n + groups - 1) / groups;
  const VComm band = r.call(Kind::kCommSplit,
                            [&] { return api.comm_split(kWorldComm, me / per_group, me); });
  const auto band_size = static_cast<std::size_t>(api.comm_size(band));

  std::vector<double> psi(static_cast<std::size_t>(s.psi));
  std::vector<double> pp(static_cast<std::size_t>(s.pp));
  std::vector<double> fft_send(static_cast<std::size_t>(s.block) * band_size);
  std::vector<double> fft_recv(fft_send.size());
  const auto halo = static_cast<std::size_t>(s.halo);
  std::vector<double> halo_left(halo), halo_right(halo), halo_out(halo);
  double energy_local = 0, energy_total = 0, mix = 0;

  api.register_state("psi", psi);
  api.register_state("pp_tables", pp);
  api.register_state("fft_send", fft_send);
  api.register_state("fft_recv", fft_recv);
  api.register_state("halo_left", halo_left);
  api.register_state("halo_right", halo_right);
  api.register_state("halo_out", halo_out);
  api.register_value("energy_local", energy_local);
  api.register_value("energy_total", energy_total);
  api.register_value("mix", mix);

  api.once([&] {
    fill(psi, seed, me, 1);
    fill(pp, seed, me, 2);  // read-only afterwards: cold state
    fill(fft_send, seed, me, 3);
  });

  for (int scf = 0; scf < s.scf; ++scf) {
    for (int fft = 0; fft < s.ffts; ++fft) {
      const int step = scf * s.ffts + fft;
      api.once(
          [&] {
            for (std::size_t i = 0; i < fft_send.size(); ++i) {
              fft_send[i] = psi[i % psi.size()] * 0.5 + pp[i % pp.size()] * 1e-3;
            }
          },
          jittered(s.fft_ns / 2, seed, me, step, 0));
      r.call(Kind::kAlltoall, [&] {
        api.alltoall(band, in(fft_send), out(fft_recv), Datatype::kDouble);
      });
      api.once(
          [&] {
            for (std::size_t i = 0; i < fft_recv.size(); ++i) {
              psi[i % psi.size()] += fft_recv[i] * 1e-4;
            }
          },
          jittered(s.fft_ns / 2, seed, me, step, 1));
      r.call(Kind::kAlltoall, [&] {
        api.alltoall(band, in(fft_recv), out(fft_send), Datatype::kDouble);
      });

      // Band energy: a nonblocking allreduce overlapped with the
      // wavefunction halo, so checkpoints land with NBCs in flight.
      api.once([&] { energy_local = psi[static_cast<std::size_t>(fft) % psi.size()]; });
      VReq energy = r.call(Kind::kIallreduce, [&] {
        return api.iallreduce(kWorldComm, in(energy_local), out(energy_total),
                              Datatype::kDouble, ReduceOp::kSum);
      });
      api.once([&] {
        for (std::size_t i = 0; i < halo; ++i) halo_out[i] = psi[i] + fft;
      });
      ring_halo(r, halo_left, halo_right, halo_out, 40);
      api.once([&] { psi[0] += halo_left[0] * 1e-6 + halo_right[0] * 1e-6; });
      r.call(Kind::kWait, [&] { api.wait(energy); });
      api.once([&] { psi[1] += energy_total * 1e-7; });
    }

    // Density mixing: rank 0 picks the parameter, everyone receives it.
    api.once([&] { mix = me == 0 ? energy_total * 1e-3 : 0.0; });
    r.call(Kind::kBcast, [&] { api.bcast(kWorldComm, out(mix), Datatype::kDouble, 0); });
    api.once([&] {
      for (auto& x : psi) x = x * (1.0 - 1e-5) + mix * 1e-8;
    });
  }
  r.finish(fingerprint({psi, pp, std::span(&energy_total, 1)}));
}

// ---- halo_2k: LAMMPS-shaped timestep loop ----------------------------------

/// Sizes follow workloads::LammpsProxy's defaults (8 halo rounds of 256
/// elements per step, 19 ms of pair-force compute per step), with the
/// thermo reduction made nonblocking and issued every step. 15 steps
/// instead of the proxy's 60 keep one CC job near 4 s of wall time.
struct HaloShape {
  int steps = 15;
  int halos = 8;
  int elems = 256;
  SimTime step_ns = 19'000'000;
};

void halo_body(Api& api, JobCtx& job, const HaloShape& s, std::uint64_t seed) {
  RankView r(api, job);
  const int me = api.rank();
  const auto elems = static_cast<std::size_t>(s.elems);
  std::vector<double> particles(elems * 6);
  std::vector<double> halo_left(elems), halo_right(elems), halo_out(elems);
  double thermo_local = 0, thermo_global = 0;

  api.register_state("particles", particles);
  api.register_state("halo_left", halo_left);
  api.register_state("halo_right", halo_right);
  api.register_state("halo_out", halo_out);
  api.register_value("thermo_local", thermo_local);
  api.register_value("thermo_global", thermo_global);

  api.once([&] { fill(particles, seed, me, 1); });

  for (int step = 0; step < s.steps; ++step) {
    api.once([&] {
      thermo_local = 0;
      for (const double v : particles) thermo_local += v;
    });
    VReq thermo = r.call(Kind::kIallreduce, [&] {
      return api.iallreduce(kWorldComm, in(thermo_local), out(thermo_global),
                            Datatype::kDouble, ReduceOp::kSum);
    });
    for (int h = 0; h < s.halos; ++h) {
      api.once([&] {
        for (std::size_t i = 0; i < elems; ++i) {
          halo_out[i] = particles[i + static_cast<std::size_t>(h)] * 0.5;
        }
      });
      ring_halo(r, halo_left, halo_right, halo_out, 80 + 4 * h);
      api.once([&] {
        for (std::size_t i = 0; i < elems; ++i) {
          particles[i] += (halo_left[i] - halo_right[i]) * 1e-7;
        }
      });
      api.compute(jittered(s.step_ns / s.halos, seed, me, step * s.halos + h, 0));
    }
    r.call(Kind::kWait, [&] { api.wait(thermo); });
    api.once([&] { particles[1] += thermo_global * 1e-12; });
  }
  r.finish(fingerprint({particles, std::span(&thermo_global, 1)}));
}

// ---- world_64k: allreduce + barrier at scale -------------------------------

constexpr int kWorldRounds = 2;
constexpr SimTime kWorldComputeNs = 20'000;

std::int64_t world_value(std::uint64_t seed, int rank, int round) {
  return static_cast<std::int64_t>(
      draw(seed, static_cast<std::uint64_t>(rank), static_cast<std::uint64_t>(round), 7) >>
      32);
}

void world_body(Api& api, JobCtx& job, std::uint64_t seed) {
  RankView r(api, job);
  const int me = api.rank();
  double sums[kWorldRounds] = {};
  for (int round = 0; round < kWorldRounds; ++round) {
    const std::int64_t value = world_value(seed, me, round);
    std::int64_t sum = 0;
    api.compute(jittered(kWorldComputeNs, seed, me, round, 0));
    r.call(Kind::kAllreduce, [&] {
      api.allreduce(kWorldComm, in(value), out(sum), Datatype::kInt64, ReduceOp::kSum);
    });
    if (sum != job.workload.expected_sums[static_cast<std::size_t>(round)]) {
      job.bad_sums.fetch_add(1);
    }
    sums[round] = static_cast<double>(sum);
    r.call(Kind::kBarrier, [&] { api.barrier(kWorldComm); });
  }
  r.finish(fingerprint({std::span<const double>(sums)}));
}

// ---- jobs ------------------------------------------------------------------

/// The execution engine every job uses: events backend, one worker; every
/// other knob at the program's default.
manatee::split::EngineConfig engine_config(const Workload& w,
                                           manatee::split::Protocol protocol) {
  manatee::split::EngineConfig config;
  config.runtime.world_size = w.ranks;
  config.runtime.ranks_per_node = w.ranks_per_node;
  config.runtime.sched.backend = manatee::sched::Backend::kEvents;
  config.runtime.sched.workers = 1;
  config.protocol = protocol;
  return config;
}

/// Fold one finished launch's report and engine counters into `out`.
void absorb(JobResult& out, manatee::split::Engine& engine,
            const manatee::split::RunReport& report, bool restored) {
  out.virt_ns += report.makespan;
  out.ckpt_ns.insert(out.ckpt_ns.end(), report.ckpt_durations.begin(),
                     report.ckpt_durations.end());
  out.drain_ns.insert(out.drain_ns.end(), report.ckpt_drain_durations.begin(),
                      report.ckpt_drain_durations.end());
  if (restored) out.restart_ns.push_back(report.restart_duration);
  out.image_bytes += report.image_bytes_total;
  out.written_bytes += report.written_bytes_total;
  out.protocol_msgs += report.ckpt_protocol_messages;
  out.coll_msgs += report.collective_messages;
  out.coll_calls += report.wrapper_collective_calls;
  out.p2p_calls += report.wrapper_p2p_calls;

  const auto& s = report.sched;
  out.sched.workers = s.workers;
  out.sched.stacks_mapped += s.stacks_mapped;
  out.sched.stacks_reused += s.stacks_reused;
  out.sched.dispatches += s.dispatches;
  out.sched.peak_committed = std::max(out.sched.peak_committed, s.peak_committed);
  out.sched.stackless_parks += s.stackless_parks;
  out.sched.fiber_fallbacks += s.fiber_fallbacks;
  out.sched.stack_vacations += s.stack_vacations;

  for (int c = 0; c < manatee::simnet::kTrafficClassCount; ++c) {
    const auto t = engine.runtime().fabric().counters(
        static_cast<manatee::simnet::TrafficClass>(c));
    out.traffic[static_cast<std::size_t>(c)].messages += t.messages;
    out.traffic[static_cast<std::size_t>(c)].bytes += t.bytes;
  }

  if (engine.config().protocol != manatee::split::Protocol::kNative) {
    // Native runs skip the registry shadow copy; CC copies every
    // registered byte at each op boundary.
    const int world = engine.config().runtime.world_size;
    std::size_t bytes = 0;
    for (int i = 0; i < world; ++i) bytes += engine.rank_ctx(i).registry.total_bytes();
    out.registered_kb = static_cast<double>(bytes) / world / 1024.0;
  }
  if (engine.config().record_trace) {
    for (const auto& events : engine.traces()) out.trace_events += events.size();
  }
}

/// The failure storm of one vasp_chain job: `crashes` Poisson arrivals with
/// a mean of a sixth of the reference makespan. The Poisson stream's seed
/// is drawn from the workload seed, skipping streams whose last scheduled
/// crash would land past three quarters of the run, so every storm fits.
manatee::split::FailureSchedule chain_schedule(std::uint64_t seed, SimTime makespan,
                                               std::uint64_t crashes) {
  manatee::split::FailureSchedule schedule;
  schedule.poisson_mean_ns = static_cast<double>(makespan) / 6.0;
  schedule.poisson_min_spacing_ns = makespan / 20;
  schedule.poisson_max_arrivals = crashes;
  for (std::uint64_t attempt = 0; attempt < 100'000; ++attempt) {
    schedule.poisson_seed = draw(seed, 0xc4a5, attempt);
    const auto arrivals = schedule.poisson_arrivals(crashes);
    if (arrivals.size() == crashes && arrivals.back() <= makespan * 3 / 4) {
      return schedule;
    }
  }
  throw std::runtime_error("no Poisson stream fits " + std::to_string(crashes) +
                           " crashes into the run");
}

void add_launch_error(JobResult& out, const std::string& what) {
  out.ok = false;
  if (out.error.empty()) out.error = what;
}

/// One launch of the whole application under `protocol`.
JobResult run_single(const Workload& w, manatee::split::Protocol protocol, Trace* trace) {
  JobResult out;
  JobCtx ctx(w, trace);
  const auto start = wall_ns();
  ctx.begin_launch();
  try {
    manatee::split::Engine engine(engine_config(w, protocol));
    const auto report = engine.run([&](Api& api) { w.body(api, ctx); });
    ctx.end_launch(false, out);
    absorb(out, engine, report, false);
  } catch (const std::exception& e) {
    add_launch_error(out, e.what());
  }
  out.wall_s = static_cast<double>(wall_ns() - start) / 1e9;
  out.fingerprints = ctx.fingerprints;
  out.bad_sums = ctx.bad_sums.load();
  return out;
}

JobResult run_chain(const Workload& w, const JobResult& reference,
                    const std::string& image_dir, Trace* trace) {
  JobResult out;
  JobCtx ctx(w, trace);
  manatee::split::LifecycleConfig config;
  config.engine = engine_config(w, manatee::split::Protocol::kCC);
  config.engine.image_dir = image_dir;
  config.engine.retain_generations = 2;
  config.engine.ckpt_delta = true;
  config.engine.ckpt_async = true;
  config.engine.record_trace = trace != nullptr;
  config.max_segments = static_cast<std::size_t>(w.crashes) + 2;
  config.on_segment = [&](manatee::split::Engine& engine,
                          const manatee::split::RunReport& report, std::size_t index) {
    ctx.end_launch(index > 0, out);
    absorb(out, engine, report, index > 0);
    // The next launch begins when this callback returns: its time includes
    // tearing this engine down and pruning generations.
    ctx.begin_launch();
  };
  try {
    config.engine.failures = chain_schedule(w.seed, reference.virt_ns, w.crashes);
  } catch (const std::exception& e) {
    add_launch_error(out, e.what());
    return out;
  }
  const auto start = wall_ns();
  ctx.begin_launch();
  try {
    const auto report = manatee::split::Lifecycle(config).run(
        [&](Api& api) { w.body(api, ctx); });
    out.completed = report.completed;
    out.crashes = report.crashes;
  } catch (const std::exception& e) {
    add_launch_error(out, e.what());
  }
  out.wall_s = static_cast<double>(wall_ns() - start) / 1e9;
  out.fingerprints = ctx.fingerprints;
  return out;
}

}  // namespace

JobCtx::JobCtx(const Workload& w, Trace* t)
    : workload(w), trace(t), fingerprints(static_cast<std::size_t>(w.ranks), 0) {}

void JobCtx::begin_launch() {
  entered.store(0);
  first_in_ns = 0;
  all_in_ns = 0;
  replay_done_ns.store(0);
  launch_start_ns = wall_ns();
}

void JobCtx::end_launch(bool restore, JobResult& out) {
  if (entered.load() != workload.ranks) {
    add_launch_error(out, "a launch ended before every rank entered the app");
    return;
  }
  const double setup_ms = static_cast<double>(first_in_ns - launch_start_ns) / 1e6;
  out.setup_s += setup_ms / 1e3;
  out.launch_ms.push_back(setup_ms);
  out.all_in_ms.push_back(static_cast<double>(all_in_ns - launch_start_ns) / 1e6);
  if (restore && trace != nullptr) {
    const auto done = replay_done_ns.load();
    if (done > 0) {
      out.restore_ms.push_back(static_cast<double>(done - launch_start_ns) / 1e6);
    }
  }
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool small) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "vasp_chain") {
    VaspShape shape;
    if (small) {
      shape.scf = 3;
      shape.ffts = 4;
    }
    w.ranks = small ? 8 : 128;
    w.ranks_per_node = small ? 4 : 16;
    w.protocol = manatee::split::Protocol::kCC;
    w.crashes = 3;
    w.body = [shape, seed](Api& api, JobCtx& job) { vasp_body(api, job, shape, seed); };
  } else if (name == "halo_2k") {
    HaloShape shape;
    if (small) shape.steps = 4;
    w.ranks = small ? 16 : 2048;
    w.ranks_per_node = 8;
    w.protocol = manatee::split::Protocol::kCC;
    w.body = [shape, seed](Api& api, JobCtx& job) { halo_body(api, job, shape, seed); };
  } else if (name == "world_64k") {
    w.ranks = small ? 128 : 65536;
    w.ranks_per_node = small ? 8 : 64;
    w.protocol = manatee::split::Protocol::kNative;
    for (int round = 0; round < kWorldRounds; ++round) {
      std::int64_t sum = 0;
      for (int rank = 0; rank < w.ranks; ++rank) sum += world_value(seed, rank, round);
      w.expected_sums.push_back(sum);
    }
    w.body = [seed](Api& api, JobCtx& job) { world_body(api, job, seed); };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

JobResult run_reference(const Workload& workload) {
  return run_single(workload, manatee::split::Protocol::kNative, nullptr);
}

JobResult run_timed(const Workload& workload, const JobResult& reference,
                    const std::string& image_root, Trace* trace) {
  if (workload.crashes > 0) return run_chain(workload, reference, image_root, trace);
  return run_single(workload, workload.protocol, trace);
}

std::string verify(const Workload& workload, const JobResult& reference,
                   const JobResult& timed) {
  if (!reference.ok) return "reference run failed: " + reference.error;
  if (!timed.ok) return timed.error;
  if (!timed.completed) return "the application did not complete";
  if (timed.crashes != workload.crashes) {
    return "survived " + std::to_string(timed.crashes) + " crashes, scheduled " +
           std::to_string(workload.crashes);
  }
  if (timed.bad_sums != 0 || reference.bad_sums != 0) {
    return std::to_string(timed.bad_sums + reference.bad_sums) +
           " allreduce results were wrong";
  }
  if (timed.fingerprints != reference.fingerprints) {
    return "fingerprints differ from the native reference run";
  }
  return "";
}

}  // namespace perfbench
