// ggid.hpp — global group ids (paper §4.1).
//
// Communicator handles are local resources, so the CC algorithm keys its
// clocks on a *global* identity of the underlying group: an
// order-independent hash of the member set, in world ranks. By design,
// communicators that are MPI_SIMILAR (same member set, any order) share a
// ggid. The hash is cached in the group's shared table when the group is
// built, so ggid_of is O(1) on every collective, world group included.
#pragma once

#include <cstdint>

#include "umpi/communicator.hpp"
#include "umpi/group.hpp"

namespace manatee::core {

using Ggid = std::uint64_t;

/// ggid of a group: order-independent hash of the world-rank member set.
[[nodiscard]] inline Ggid ggid_of(const umpi::Group& group) noexcept {
  return group.member_set_hash();
}

[[nodiscard]] inline Ggid ggid_of(const umpi::CommPtr& comm) noexcept {
  return comm->member_set_hash();
}

}  // namespace manatee::core
