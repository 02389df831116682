// communicator.hpp — communicators: a group + an agreed context id.
//
// Each rank holds its own local Comm instance (real MPI communicator
// handles are local resource handles too — the paper's motivation for
// introducing the ggid). Agreement on the context id is established
// collectively at creation time by Rank::comm_dup/split/create.
#pragma once

#include <cstdint>
#include <memory>

#include "simnet/message.hpp"
#include "umpi/group.hpp"

namespace manatee::umpi {

namespace coll {
class CollModule;
}

/// Traffic sub-channels multiplexed over one communicator. Real MPI
/// implementations reserve separate context ids for point-to-point and
/// collective traffic in exactly this way; the checkpoint channel carries
/// the drain protocols' control messages.
enum class Channel : std::uint8_t {
  kUser = 0,  ///< application point-to-point
  kColl = 1,  ///< internal messages of collective algorithms
  kCkpt = 2,  ///< checkpoint drain-protocol traffic
};

struct Comm {
  /// Runtime-allocated base id; channel contexts derive from it.
  std::uint64_t base_context = 0;
  Group group;
  int rank = -1;  ///< this process's rank within `group`

  /// Per-communicator collective-algorithm selection (registry + decision
  /// heuristic + forced overrides). Attached by Rank at creation time from
  /// the runtime's tuning; a null module falls back to default tuning.
  std::shared_ptr<const coll::CollModule> coll_module;

  /// Per-rank counter of collective operations initiated on this
  /// communicator. Because MPI requires all members to invoke collectives
  /// on a communicator in the same order, this counter is identical across
  /// members at matching calls — it serves as the message tag that pairs up
  /// the internal point-to-point messages of one collective instance.
  std::uint64_t coll_seq = 0;

  [[nodiscard]] int size() const noexcept { return group.size(); }

  [[nodiscard]] simnet::ContextId context(Channel ch) const noexcept {
    return base_context * 4 + static_cast<std::uint64_t>(ch);
  }

  /// World rank of communicator rank `r`.
  [[nodiscard]] int world_of(int r) const { return group.world_rank(r); }

  /// Order-independent identity of the member set (basis of the ggid);
  /// cached in the group's shared table, so O(1).
  [[nodiscard]] std::uint64_t member_set_hash() const noexcept {
    return group.member_set_hash();
  }
};

using CommPtr = std::shared_ptr<Comm>;

/// Context id reserved for the world communicator (allocated first).
constexpr std::uint64_t kWorldBaseContext = 1;

}  // namespace manatee::umpi
