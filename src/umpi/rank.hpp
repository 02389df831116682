// rank.hpp — the per-process MPI-like API surface of UMPI.
//
// Each MPI process is a thread owning exactly one Rank object. The Rank
// provides point-to-point operations, blocking and non-blocking collectives,
// request completion (Test/Wait families), and collective communicator
// management — the subset of MPI the paper's algorithms and workloads need.
//
// Rank is deliberately hook-free: checkpoint algorithms interpose from the
// split-process wrapper layer above (src/split), never from inside the
// "MPI library". That separation *is* the split-process architecture of
// Figure 1 in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/function_ref.hpp"
#include "simnet/fabric.hpp"
#include "simnet/virtual_clock.hpp"
#include "umpi/coll/module.hpp"
#include "umpi/communicator.hpp"
#include "umpi/nbc.hpp"
#include "umpi/op.hpp"
#include "umpi/types.hpp"

namespace manatee::umpi {

class Runtime;

/// Per-rank call counters (the measurements behind Table 1).
struct CallCounters {
  std::uint64_t collective_calls = 0;  ///< blocking collectives + NBC initiations
  std::uint64_t p2p_calls = 0;         ///< Send/Isend/Recv/Irecv
};

class Rank {
 public:
  Rank(Runtime& runtime, int world_rank);
  ~Rank();

  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  // --- identity -----------------------------------------------------------
  [[nodiscard]] int world_rank() const noexcept { return world_rank_; }
  [[nodiscard]] int world_size() const noexcept;
  [[nodiscard]] const CommPtr& world() const noexcept { return world_comm_; }
  [[nodiscard]] Runtime& runtime() noexcept { return runtime_; }
  [[nodiscard]] simnet::VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] const simnet::VirtualClock& clock() const noexcept { return clock_; }
  [[nodiscard]] simnet::MessageStore& store();

  /// Advance this rank's virtual clock by a compute phase.
  void advance_compute(simnet::SimTime cost) noexcept { clock_.advance(cost); }

  // --- point-to-point (byte-level) ----------------------------------------
  void send(const CommPtr& comm, std::span<const std::byte> data, int dst, int tag);
  Status recv(const CommPtr& comm, std::span<std::byte> data, int src, int tag);
  Request isend(const CommPtr& comm, std::span<const std::byte> data, int dst,
                int tag);
  Request irecv(const CommPtr& comm, std::span<std::byte> data, int src, int tag);
  [[nodiscard]] std::optional<simnet::ProbeInfo> iprobe(const CommPtr& comm, int src,
                                                        int tag);
  simnet::ProbeInfo probe(const CommPtr& comm, int src, int tag);
  Status sendrecv(const CommPtr& comm, std::span<const std::byte> send_data,
                  int dst, int send_tag, std::span<std::byte> recv_data, int src,
                  int recv_tag);

  // --- typed convenience --------------------------------------------------
  template <typename T>
  void send(const CommPtr& comm, std::span<const T> data, int dst, int tag) {
    send(comm, std::as_bytes(data), dst, tag);
  }
  template <typename T>
  Status recv(const CommPtr& comm, std::span<T> data, int src, int tag) {
    return recv(comm, std::as_writable_bytes(data), src, tag);
  }

  // --- request completion --------------------------------------------------
  /// Non-blocking: returns true (and nulls the request) once complete.
  bool test(Request& request, Status* status = nullptr);
  Status wait(Request& request);
  void waitall(std::span<Request> requests);
  /// Blocks until at least one completes; returns its index.
  int waitany(std::span<Request> requests);
  /// Non-blocking waitany (MPI_Testany): true when one request completed
  /// (its index in *index) or every request is null (*index = -1).
  bool testany(std::span<Request> requests, int* index, Status* status = nullptr);
  /// True when `request` refers to a live (incomplete or unconsumed) op.
  [[nodiscard]] bool is_active(const Request& request) const;

  /// Non-consuming completion check: true when the operation behind
  /// `request` has finished (or the request was already consumed). Unlike
  /// test(), the request stays in the table for the owner to consume later
  /// — the primitive behind the CC algorithm's checkpoint-time Test-drain.
  /// Never advances this rank's clock: drain-time progression rides each
  /// operation's own clock so it cannot serialize the caller.
  [[nodiscard]] bool request_done(const Request& request);

  /// Merge a *finished* request's causal completion time into this rank's
  /// clock without consuming the request. The checkpoint-time Test-drain
  /// uses this once all pending operations are done, so the image write is
  /// causally ordered after the communication it waited for while the
  /// requests stay live for the application to consume later.
  void merge_request_completion(const Request& request);

  /// The job is stopping mid-application: abandon every outstanding
  /// request, withdrawing posted receives (user irecvs and NBC slots) while
  /// the application buffers they write into are still alive. Every site
  /// that throws a stop out of the app calls this first — the exception
  /// unwinds the frame that owns those buffers, and a late delivery must
  /// not write into freed memory.
  void cancel_all();

  // --- blocking collectives -------------------------------------------------
  // The byte-moving collectives take a trailing element datatype (defaulted
  // to kByte) so the algorithm-selection layer stays element-aware.
  void barrier(const CommPtr& comm);
  void bcast(const CommPtr& comm, std::span<std::byte> data, int root,
             Datatype dt = Datatype::kByte);
  void reduce(const CommPtr& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, Datatype dt, ReduceOp op, int root);
  void allreduce(const CommPtr& comm, std::span<const std::byte> send,
                 std::span<std::byte> recv, Datatype dt, ReduceOp op);
  void gather(const CommPtr& comm, std::span<const std::byte> send,
              std::span<std::byte> recv, int root, Datatype dt = Datatype::kByte);
  void allgather(const CommPtr& comm, std::span<const std::byte> send,
                 std::span<std::byte> recv, Datatype dt = Datatype::kByte);
  void scatter(const CommPtr& comm, std::span<const std::byte> send,
               std::span<std::byte> recv, int root, Datatype dt = Datatype::kByte);
  void alltoall(const CommPtr& comm, std::span<const std::byte> send,
                std::span<std::byte> recv, Datatype dt = Datatype::kByte);
  void scan(const CommPtr& comm, std::span<const std::byte> send,
            std::span<std::byte> recv, Datatype dt, ReduceOp op);
  void reduce_scatter_block(const CommPtr& comm, std::span<const std::byte> send,
                            std::span<std::byte> recv, Datatype dt, ReduceOp op);

  // --- vector (per-rank counts) collectives, counts/displacements in bytes --
  /// Counts/displacements are only read at the root (MPI_Gatherv contract).
  void gatherv(const CommPtr& comm, std::span<const std::byte> send,
               std::span<std::byte> recv, std::span<const std::size_t> recv_counts,
               std::span<const std::size_t> recv_displs, int root);
  void allgatherv(const CommPtr& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv,
                  std::span<const std::size_t> recv_counts,
                  std::span<const std::size_t> recv_displs);
  void alltoallv(const CommPtr& comm, std::span<const std::byte> send,
                 std::span<const std::size_t> send_counts,
                 std::span<const std::size_t> send_displs,
                 std::span<std::byte> recv,
                 std::span<const std::size_t> recv_counts,
                 std::span<const std::size_t> recv_displs);

  // --- non-blocking collectives ----------------------------------------------
  Request ibarrier(const CommPtr& comm);
  /// Software-only ibarrier for checkpoint-protocol machinery (the 2PC
  /// inserted barrier). It bypasses algorithm selection — including a forced
  /// "switch" — because a protocol barrier must stay abandonable at any cut:
  /// an in-switch round holds switch-resident partial aggregation state that
  /// a cut taken between the members' entries can never drain.
  Request ibarrier_software(const CommPtr& comm);
  Request ibcast(const CommPtr& comm, std::span<std::byte> data, int root,
                 Datatype dt = Datatype::kByte);
  Request ireduce(const CommPtr& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, Datatype dt, ReduceOp op, int root);
  Request iallreduce(const CommPtr& comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, Datatype dt, ReduceOp op);
  Request igather(const CommPtr& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, int root,
                  Datatype dt = Datatype::kByte);
  Request iscatter(const CommPtr& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, int root,
                   Datatype dt = Datatype::kByte);
  Request iallgather(const CommPtr& comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, Datatype dt = Datatype::kByte);
  Request ialltoall(const CommPtr& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, Datatype dt = Datatype::kByte);
  Request iscan(const CommPtr& comm, std::span<const std::byte> send,
                std::span<std::byte> recv, Datatype dt, ReduceOp op);

  // --- communicator management (collective over the parent) -------------------
  CommPtr comm_dup(const CommPtr& comm);
  /// MPI_Comm_split; color < 0 acts as MPI_UNDEFINED (returns nullptr).
  CommPtr comm_split(const CommPtr& comm, int color, int key);
  /// MPI_Comm_create; returns nullptr on ranks outside `group`.
  CommPtr comm_create(const CommPtr& comm, const Group& group);

  // --- stats / checkpoint hooks ------------------------------------------------
  [[nodiscard]] const CallCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_ = CallCounters{}; }

  /// Drive this rank's event loop until `done()` returns true, progressing
  /// all outstanding non-blocking collectives along the way. This is the
  /// single blocking primitive all waits are built on, and it is what makes
  /// the MPI-standard guarantee hold that initiated NBCs progress while the
  /// process blocks elsewhere. (Blocking point-to-point takes a targeted
  /// fast path instead when no non-blocking collective is outstanding —
  /// nothing needs driving, so the rank sleeps on its receive's completion
  /// and is only woken by the delivery that completes it.)
  void drive(common::FunctionRef<bool()> done);

  /// True while any non-blocking collective request is live in the request
  /// table (complete-but-unconsumed counts: cheap superset check gating the
  /// targeted-wait fast paths).
  [[nodiscard]] bool has_nbc_requests() const noexcept {
    return nbc_requests_ > 0;
  }

  /// The completion record behind a kRecv request (null for sends, NBCs,
  /// consumed or unknown requests) — the wrapper layer's targeted-wait hint.
  [[nodiscard]] const simnet::RecvResult* recv_result(const Request& request);

  /// Progress every outstanding non-blocking collective once.
  void progress_outstanding();

  /// Number of live requests (diagnostics / leak checks in tests).
  [[nodiscard]] std::size_t live_requests() const noexcept { return requests_.size(); }

  // --- checkpoint-protocol channel ------------------------------------------
  // Out-of-band point-to-point used by the drain protocols (the "mana
  // communicator" traffic of Algorithm 2/3). Not counted in CallCounters;
  // carried on the kCkpt sub-channel so it never matches user receives.
  void ckpt_send(const CommPtr& comm, std::span<const std::byte> data, int dst,
                 int tag);
  [[nodiscard]] std::optional<simnet::ProbeInfo> ckpt_iprobe(const CommPtr& comm,
                                                             int src, int tag);
  std::optional<Status> ckpt_try_recv(const CommPtr& comm, std::span<std::byte> data,
                                      int src, int tag);

  // Internal: used by NbcOp implementations.
  void internal_coll_send(const CommPtr& comm, int dst, int tag,
                          std::span<const std::byte> bytes);
  /// Same, but charged against an operation-owned progress clock.
  void internal_coll_send_at(const CommPtr& comm, int dst, int tag,
                             std::span<const std::byte> bytes,
                             simnet::VirtualClock& clock);

 private:
  friend class NbcOp;

  struct RequestState {
    enum class Kind : std::uint8_t { kSend, kRecv, kNbc } kind = Kind::kSend;
    std::unique_ptr<simnet::RecvResult> recv;  // kRecv
    std::unique_ptr<NbcOp> nbc;                // kNbc
  };

  Request new_request(RequestState state);
  RequestState* find(const Request& request);
  /// Per-communicator algorithm-selection module for a comm over `group`:
  /// inherits the parent communicator's tuning (the runtime config's when
  /// `parent` is null, i.e. for the world comm) and computes the group's
  /// own topology view.
  [[nodiscard]] coll::CollModulePtr make_coll_module(
      const Group& group, const coll::CollModule* parent) const;
  /// Drives one collective op to completion, sleeping targeted on the
  /// receive it is blocked on whenever nothing else needs progressing.
  /// `stack_quiescent` asserts that the op's buffers and all wait state
  /// live off this fiber's stack (run_coll's events-mode bounce buffers
  /// guarantee it), unlocking whole-stack vacating while parked.
  void drive_coll(NbcOp& op, bool stack_quiescent = false);
  /// Events-backend variant: the rank's fiber parks ONCE for the whole
  /// collective while mailbox-delivery continuations drive the op's rounds
  /// stacklessly on the worker's own stack (see EventDriver in rank.cpp).
  void drive_coll_events(NbcOp& op, bool stack_quiescent);
  /// The continuation behind drive_coll_events, fired by the scheduler
  /// when the watched receive completes (or any store-wide wake occurs).
  static void event_driver_fire(void* arg, std::uint64_t epoch);
  /// Runs a blocking collective through the selection layer.
  void run_coll(const CommPtr& comm, coll::CollKind kind,
                const coll::CollArgs& args);
  /// Initiates a non-blocking collective through the selection layer.
  Request start_coll(const CommPtr& comm, coll::CollKind kind,
                     const coll::CollArgs& args);
  bool complete_if_done(Request& request, RequestState& state, Status* status);
  int comm_dst_world(const CommPtr& comm, int dst) const;
  static void fill_status(Status& out, const simnet::RecvResult& r);

  /// Collective helper: allocate a context block (rank 0 of comm) and
  /// broadcast it over the comm. Returns the agreed base id.
  std::uint64_t agree_context_block(const CommPtr& comm, int count);

  /// Shared interrupt predicate of the targeted waits: job stop or abort
  /// (both flipped with a notify_all_ranks(), which wakes every waiter).
  [[nodiscard]] bool wait_interrupted() const noexcept;
  /// Rethrows whatever wait_interrupted() observed (stop wins over abort,
  /// matching drive()'s check order).
  [[noreturn]] void throw_wait_interrupt();

  Runtime& runtime_;
  int world_rank_;
  simnet::VirtualClock clock_;
  CommPtr world_comm_;
  std::unordered_map<std::uint64_t, RequestState> requests_;
  std::uint64_t next_request_id_ = 1;
  std::size_t nbc_requests_ = 0;  ///< kNbc entries in requests_
  CallCounters counters_;
  /// Events-backend drive state (lazily created on the first events-mode
  /// collective; address-stable — continuations hold a pointer to it).
  struct EventDriver;
  std::unique_ptr<EventDriver> event_driver_;
};

}  // namespace manatee::umpi
