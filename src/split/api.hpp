// api.hpp — the MANA wrapper layer: the MPI interface applications use.
//
// This is the "upper half" boundary of the split-process architecture
// (paper Figure 1): every call is interposed, the drain protocol's hooks
// run around it, and all handles (communicators, requests) are *virtual*
// ids that survive checkpoint-restart while the lower half (the UMPI
// runtime) is replaced wholesale.
//
// Transparent restart works by deterministic re-execution: the wrapper
// counts completed operations (the op cursor, saved in the image); on
// restart the application function runs again and the wrapper skips every
// operation already completed — communicator-management operations
// re-execute against the fresh lower half (the record-replay of MANA),
// buffers are refilled from the image, in-flight messages are re-injected,
// and pending receives are re-posted. This substitutes for MANA's raw
// memory-image restore (see DESIGN.md §1) while exercising the paper's
// drain protocols with full fidelity.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ckpt/coordinator.hpp"
#include "ckpt/registry.hpp"
#include "common/function_ref.hpp"
#include "core/drain_manager.hpp"
#include "umpi/rank.hpp"

namespace manatee::split {

/// Virtual communicator handle. kWorld is always valid.
struct VComm {
  std::uint64_t id = 0;
  [[nodiscard]] bool is_null() const noexcept { return id == 0; }
  friend bool operator==(const VComm&, const VComm&) = default;
};
constexpr VComm kNullComm{0};
constexpr VComm kWorldComm{1};

/// Virtual request handle.
struct VReq {
  std::uint64_t id = 0;
  [[nodiscard]] bool is_null() const noexcept { return id == 0; }
  friend bool operator==(const VReq&, const VReq&) = default;
};
constexpr VReq kNullReq{};

class Engine;
struct EngineRankCtx;

/// Thrown out of wrapper calls when the engine is configured to stop the
/// job after a successful checkpoint (chained resource allocations).
struct StopAfterCheckpoint {};

class Api {
 public:
  Api(umpi::Rank& rank, EngineRankCtx& ctx, Engine& engine);
  ~Api();

  Api(const Api&) = delete;
  Api& operator=(const Api&) = delete;

  // --- identity ------------------------------------------------------------
  [[nodiscard]] int rank() const noexcept { return rank_.world_rank(); }
  [[nodiscard]] int size() const noexcept { return rank_.world_size(); }
  [[nodiscard]] int comm_rank(VComm comm) const;
  [[nodiscard]] int comm_size(VComm comm) const;
  [[nodiscard]] simnet::SimTime now() const noexcept { return rank_.clock().now(); }
  [[nodiscard]] umpi::Rank& lower() noexcept { return rank_; }

  /// True while the wrapper is skipping operations already completed before
  /// the checkpoint this run restarted from.
  [[nodiscard]] bool replaying() const noexcept {
    return ops_seen_ < ops_completed_;
  }
  /// True when this run was restored from a checkpoint image.
  [[nodiscard]] bool restored() const noexcept { return restored_; }

  // --- application state (the checkpointed "upper half") --------------------
  /// Register application memory under a stable name. On a restarted run
  /// the segment is immediately refilled from the image. All communication
  /// buffers that can be live across a checkpoint must be registered.
  void register_state(const std::string& name, std::span<std::byte> data);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void register_state(const std::string& name, std::vector<T>& data) {
    register_state(name, std::as_writable_bytes(std::span(data.data(), data.size())));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void register_value(const std::string& name, T& value) {
    register_state(name, std::as_writable_bytes(std::span(&value, 1)));
  }

  // --- compute & checkpoint opportunities ------------------------------------
  /// Advance this rank's virtual clock by a compute phase; also a cheap
  /// checkpoint-opportunity poll.
  void compute(simnet::SimTime cost);
  void poll();

  // --- resumable-execution helpers ----------------------------------------------
  // MANATEE restores transparently by deterministic re-execution (DESIGN.md
  // §1): on restart the application function runs again and completed
  // operations are skipped. Two rules make arbitrary applications fit:
  //   * every mutation of registered state goes through an MPI wrapper or
  //     a once() block (skipped on replay — the effects are in the image);
  //   * every data-dependent control-flow decision goes through decide()
  //     (recorded in the image; replayed verbatim).
  // Control-flow variables (loop counters) are plain locals, re-derived by
  // the replay, and must NOT be registered.

  /// Execute `fn` exactly once across checkpoint-restart: skipped during
  /// replay. `cost` is the virtual compute time of the block.
  void once(const std::function<void()>& fn, simnet::SimTime cost = 0);

  /// Evaluate a data-dependent branch condition exactly once: during
  /// replay, the originally recorded value is returned instead of
  /// re-evaluating against restored (future) data.
  bool decide(const std::function<bool()>& fn);

  // --- point-to-point ---------------------------------------------------------
  void send(VComm comm, std::span<const std::byte> data, int dst, int tag);
  umpi::Status recv(VComm comm, std::span<std::byte> data, int src, int tag);
  VReq isend(VComm comm, std::span<const std::byte> data, int dst, int tag);
  VReq irecv(VComm comm, std::span<std::byte> data, int src, int tag);
  [[nodiscard]] std::optional<simnet::ProbeInfo> iprobe(VComm comm, int src, int tag);
  umpi::Status sendrecv(VComm comm, std::span<const std::byte> send_data, int dst,
                        int send_tag, std::span<std::byte> recv_data, int src,
                        int recv_tag);

  template <typename T>
  void send(VComm comm, std::span<const T> data, int dst, int tag) {
    send(comm, std::as_bytes(data), dst, tag);
  }
  template <typename T>
  umpi::Status recv(VComm comm, std::span<T> data, int src, int tag) {
    return recv(comm, std::as_writable_bytes(data), src, tag);
  }

  // --- request completion -------------------------------------------------------
  bool test(VReq& request);
  void wait(VReq& request);
  void waitall(std::span<VReq> requests);
  /// Blocks until one request completes (consuming it); returns its index,
  /// or -1 (MPI_UNDEFINED) when every handle is null. The returned index
  /// can depend on message timing — route control flow derived from it
  /// through decide() in resumable applications.
  int waitany(std::span<VReq> requests);
  /// Non-blocking waitany (MPI_Testany): true when one request completed
  /// (its index in *index) or every handle is null (*index = -1).
  bool testany(std::span<VReq> requests, int* index);

  // --- blocking collectives -------------------------------------------------------
  // Unified, datatype-aware surface: every collective has a canonical
  // byte-level form carrying the element Datatype (MPI argument order:
  // buffers, datatype, op, root) plus a typed std::span<T> overload that
  // infers the datatype. Send spans must be const-qualified
  // (std::as_bytes / std::span<const T>) for template deduction.
  void barrier(VComm comm);
  void bcast(VComm comm, std::span<std::byte> data, umpi::Datatype dt, int root);
  void reduce(VComm comm, std::span<const std::byte> send, std::span<std::byte> recv,
              umpi::Datatype dt, umpi::ReduceOp op, int root);
  void allreduce(VComm comm, std::span<const std::byte> send,
                 std::span<std::byte> recv, umpi::Datatype dt, umpi::ReduceOp op);
  void gather(VComm comm, std::span<const std::byte> send, std::span<std::byte> recv,
              umpi::Datatype dt, int root);
  void allgather(VComm comm, std::span<const std::byte> send,
                 std::span<std::byte> recv, umpi::Datatype dt);
  void scatter(VComm comm, std::span<const std::byte> send, std::span<std::byte> recv,
               umpi::Datatype dt, int root);
  void alltoall(VComm comm, std::span<const std::byte> send,
                std::span<std::byte> recv, umpi::Datatype dt);
  void scan(VComm comm, std::span<const std::byte> send, std::span<std::byte> recv,
            umpi::Datatype dt, umpi::ReduceOp op);
  void reduce_scatter(VComm comm, std::span<const std::byte> send,
                      std::span<std::byte> recv, umpi::Datatype dt,
                      umpi::ReduceOp op);

  // --- vector collectives (counts/displacements in elements of dt) ----------------
  /// Counts/displacements are only read at the root (MPI_Gatherv contract).
  void gatherv(VComm comm, std::span<const std::byte> send,
               std::span<std::byte> recv, std::span<const int> recv_counts,
               std::span<const int> recv_displs, umpi::Datatype dt, int root);
  void allgatherv(VComm comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, std::span<const int> recv_counts,
                  std::span<const int> recv_displs, umpi::Datatype dt);
  void alltoallv(VComm comm, std::span<const std::byte> send,
                 std::span<const int> send_counts, std::span<const int> send_displs,
                 std::span<std::byte> recv, std::span<const int> recv_counts,
                 std::span<const int> recv_displs, umpi::Datatype dt);

  // --- typed overloads --------------------------------------------------------------
  template <typename T>
  void bcast(VComm comm, std::span<T> data, int root) {
    bcast(comm, std::as_writable_bytes(data), umpi::datatype_of<T>, root);
  }
  template <typename T>
  void reduce(VComm comm, std::span<const T> send, std::span<T> recv,
              umpi::ReduceOp op, int root) {
    reduce(comm, std::as_bytes(send), std::as_writable_bytes(recv),
           umpi::datatype_of<T>, op, root);
  }
  template <typename T>
  void allreduce(VComm comm, std::span<const T> send, std::span<T> recv,
                 umpi::ReduceOp op) {
    allreduce(comm, std::as_bytes(send), std::as_writable_bytes(recv),
              umpi::datatype_of<T>, op);
  }
  template <typename T>
  void gather(VComm comm, std::span<const T> send, std::span<T> recv, int root) {
    gather(comm, std::as_bytes(send), std::as_writable_bytes(recv),
           umpi::datatype_of<T>, root);
  }
  template <typename T>
  void allgather(VComm comm, std::span<const T> send, std::span<T> recv) {
    allgather(comm, std::as_bytes(send), std::as_writable_bytes(recv),
              umpi::datatype_of<T>);
  }
  template <typename T>
  void scatter(VComm comm, std::span<const T> send, std::span<T> recv, int root) {
    scatter(comm, std::as_bytes(send), std::as_writable_bytes(recv),
            umpi::datatype_of<T>, root);
  }
  template <typename T>
  void alltoall(VComm comm, std::span<const T> send, std::span<T> recv) {
    alltoall(comm, std::as_bytes(send), std::as_writable_bytes(recv),
             umpi::datatype_of<T>);
  }
  template <typename T>
  void scan(VComm comm, std::span<const T> send, std::span<T> recv,
            umpi::ReduceOp op) {
    scan(comm, std::as_bytes(send), std::as_writable_bytes(recv),
         umpi::datatype_of<T>, op);
  }
  template <typename T>
  void reduce_scatter(VComm comm, std::span<const T> send, std::span<T> recv,
                      umpi::ReduceOp op) {
    reduce_scatter(comm, std::as_bytes(send), std::as_writable_bytes(recv),
                   umpi::datatype_of<T>, op);
  }
  template <typename T>
  void gatherv(VComm comm, std::span<const T> send, std::span<T> recv,
               std::span<const int> recv_counts, std::span<const int> recv_displs,
               int root) {
    gatherv(comm, std::as_bytes(send), std::as_writable_bytes(recv), recv_counts,
            recv_displs, umpi::datatype_of<T>, root);
  }
  template <typename T>
  void allgatherv(VComm comm, std::span<const T> send, std::span<T> recv,
                  std::span<const int> recv_counts,
                  std::span<const int> recv_displs) {
    allgatherv(comm, std::as_bytes(send), std::as_writable_bytes(recv), recv_counts,
               recv_displs, umpi::datatype_of<T>);
  }
  template <typename T>
  void alltoallv(VComm comm, std::span<const T> send,
                 std::span<const int> send_counts, std::span<const int> send_displs,
                 std::span<T> recv, std::span<const int> recv_counts,
                 std::span<const int> recv_displs) {
    alltoallv(comm, std::as_bytes(send), send_counts, send_displs,
              std::as_writable_bytes(recv), recv_counts, recv_displs,
              umpi::datatype_of<T>);
  }

  // --- non-blocking collectives ------------------------------------------------------
  VReq ibarrier(VComm comm);
  VReq ibcast(VComm comm, std::span<std::byte> data, umpi::Datatype dt, int root);
  VReq ireduce(VComm comm, std::span<const std::byte> send,
               std::span<std::byte> recv, umpi::Datatype dt, umpi::ReduceOp op,
               int root);
  VReq iallreduce(VComm comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, umpi::Datatype dt, umpi::ReduceOp op);
  VReq igather(VComm comm, std::span<const std::byte> send,
               std::span<std::byte> recv, umpi::Datatype dt, int root);
  VReq iscatter(VComm comm, std::span<const std::byte> send,
                std::span<std::byte> recv, umpi::Datatype dt, int root);
  VReq iallgather(VComm comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, umpi::Datatype dt);
  VReq ialltoall(VComm comm, std::span<const std::byte> send,
                 std::span<std::byte> recv, umpi::Datatype dt);
  VReq iscan(VComm comm, std::span<const std::byte> send, std::span<std::byte> recv,
             umpi::Datatype dt, umpi::ReduceOp op);

  template <typename T>
  VReq ibcast(VComm comm, std::span<T> data, int root) {
    return ibcast(comm, std::as_writable_bytes(data), umpi::datatype_of<T>, root);
  }
  template <typename T>
  VReq ireduce(VComm comm, std::span<const T> send, std::span<T> recv,
               umpi::ReduceOp op, int root) {
    return ireduce(comm, std::as_bytes(send), std::as_writable_bytes(recv),
                   umpi::datatype_of<T>, op, root);
  }
  template <typename T>
  VReq iallreduce(VComm comm, std::span<const T> send, std::span<T> recv,
                  umpi::ReduceOp op) {
    return iallreduce(comm, std::as_bytes(send), std::as_writable_bytes(recv),
                      umpi::datatype_of<T>, op);
  }
  template <typename T>
  VReq igather(VComm comm, std::span<const T> send, std::span<T> recv, int root) {
    return igather(comm, std::as_bytes(send), std::as_writable_bytes(recv),
                   umpi::datatype_of<T>, root);
  }
  template <typename T>
  VReq iscatter(VComm comm, std::span<const T> send, std::span<T> recv, int root) {
    return iscatter(comm, std::as_bytes(send), std::as_writable_bytes(recv),
                    umpi::datatype_of<T>, root);
  }
  template <typename T>
  VReq iallgather(VComm comm, std::span<const T> send, std::span<T> recv) {
    return iallgather(comm, std::as_bytes(send), std::as_writable_bytes(recv),
                      umpi::datatype_of<T>);
  }
  template <typename T>
  VReq ialltoall(VComm comm, std::span<const T> send, std::span<T> recv) {
    return ialltoall(comm, std::as_bytes(send), std::as_writable_bytes(recv),
                     umpi::datatype_of<T>);
  }
  template <typename T>
  VReq iscan(VComm comm, std::span<const T> send, std::span<T> recv,
             umpi::ReduceOp op) {
    return iscan(comm, std::as_bytes(send), std::as_writable_bytes(recv),
                 umpi::datatype_of<T>, op);
  }

  // --- communicator management ---------------------------------------------------------
  VComm comm_dup(VComm comm);
  VComm comm_split(VComm comm, int color, int key);
  VComm comm_create(VComm comm, const umpi::Group& group);

  // --- wrapper-level call counters (Table 1) ----------------------------------------------
  [[nodiscard]] std::uint64_t collective_calls() const noexcept {
    return collective_calls_;
  }
  [[nodiscard]] std::uint64_t p2p_calls() const noexcept { return p2p_calls_; }

  // --- engine internals ------------------------------------------------------------------
  /// Called by the engine after the app function returns.
  void finalize(bool stopped_early);
  /// Capture and write this rank's checkpoint image (the manager's write
  /// callback lands here).
  void capture_and_write();

 private:
  struct VReqState {
    bool complete = false;
    umpi::Request lower{};
    bool is_recv = false;
    bool is_nbc = false;
    std::uint64_t vcomm = 0;
    int src = 0;
    int tag = 0;
    /// What completion writes: an irecv's buffer, an NBC's output span
    /// (empty for sends and ibarrier).
    std::byte* buffer = nullptr;
    std::size_t length = 0;

    [[nodiscard]] std::span<const std::byte> output() const noexcept {
      return {buffer, length};
    }
  };

  // Wrapper skeleton helpers.
  bool begin_op();      // returns true when this op must be skipped (replay)
  void end_op();        // op effects are now in registered state
  /// Refresh the registry shadow of the registered bytes in `written`.
  void sync_registry_shadow(std::span<const std::byte> written);
  void charge_collective_wrapper();
  void charge_nbc_initiation();
  void charge_nbc_completion();
  void charge_p2p_wrapper();
  void maybe_trigger_checkpoint();
  void maybe_stop_after_checkpoint();
  void replay_caught_up();

  const umpi::CommPtr& resolve(VComm comm) const;
  VComm bind_comm(umpi::CommPtr comm);
  VReq bind_req(VReqState state);
  VReq replay_req();  // assign next vreq id from the saved table during replay

  /// `blocked_src_world`: the world rank whose message the loop is waiting
  /// for, when statically known (drives the drain's p2p-aware cascade).
  /// `recv_hint`: the receive completion `done` reduces to, when it does —
  /// under a passive (native) manager with no outstanding NBCs the loop
  /// then sleeps on a targeted wait instead of waking on every delivery.
  void blocking_loop(common::FunctionRef<bool()> done,
                     const core::ParkHooks* hooks,
                     int blocked_src_world = ckpt::Coordinator::kBlockedUnknown,
                     const simnet::RecvResult* recv_hint = nullptr);
  /// Resolve a comm-relative source rank to a world rank for blocking_loop
  /// (kBlockedUnknown for MPI_ANY_SOURCE).
  [[nodiscard]] int blocked_src_of(const umpi::CommPtr& comm, int src) const;
  /// `output`: the span the collective writes (its shadow is refreshed).
  void run_blocking_collective(const umpi::CommPtr& comm,
                               std::span<const std::byte> output,
                               const std::function<void()>& execute);
  /// `output`: the span the NBC writes, refreshed when Wait/Test completes it.
  VReq start_nbc(VComm comm, std::span<std::byte> output,
                 const std::function<umpi::Request()>& initiate);

  void restore_from_image();
  void flush_pending_unexpected();

  umpi::Rank& rank_;
  EngineRankCtx& ctx_;
  Engine& engine_;
  core::DrainManager& mgr_;

  std::map<std::uint64_t, umpi::CommPtr> comms_;
  std::uint64_t next_vcomm_ = 2;
  std::map<std::uint64_t, VReqState> vreqs_;
  std::uint64_t next_vreq_ = 1;

  // Resume state
  std::uint64_t ops_seen_ = 0;
  std::uint64_t ops_completed_ = 0;
  bool restored_ = false;
  struct SavedReq {
    bool pending = false;  // pending recv to re-post (else: complete)
    std::uint64_t vcomm = 0;
    int src = 0;
    int tag = 0;
    ckpt::SegmentRef buffer;
    bool is_nbc = false;
  };
  std::map<std::uint64_t, SavedReq> saved_reqs_;
  struct SavedMessage {
    std::uint64_t vcomm = 0;
    int src = 0;
    int tag = 0;
    simnet::SimTime arrival_ns = 0;
    std::vector<std::byte> payload;
  };
  std::vector<SavedMessage> pending_unexpected_;

  /// Recorded control-flow decisions (decide()); persisted in the image.
  std::vector<std::uint8_t> decisions_;
  std::size_t decision_cursor_ = 0;

  /// Segment names already refilled from the restore image (each blob is
  /// applied exactly once, at first registration).
  std::set<std::string> restored_names_;

  std::uint64_t collective_calls_ = 0;
  std::uint64_t p2p_calls_ = 0;
};

}  // namespace manatee::split
