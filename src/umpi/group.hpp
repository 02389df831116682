// group.hpp — MPI groups: ordered sets of world ranks.
//
// A group maps "rank within the group" (position) to "rank within
// MPI_COMM_WORLD" (value). Group operations mirror MPI_Group_incl/excl/
// union/intersection/difference/translate_ranks/compare.
//
// Representation: the member vector is held behind a shared_ptr, so copying
// a Group (every Comm holds one by value) is O(1) and all ranks of a job
// share ONE world member table instead of world_size copies — at 65536
// ranks the per-rank copies alone used to cost ~16 GiB. Groups are
// immutable after construction, so sharing is safe without locks. The
// common iota case (members[i] == i, every world group) is detected at
// construction and gives O(1) rank_of_world/contains_world lookups —
// otherwise a 64k-rank world pays an O(p) scan per translated rank.
//
// member_set_hash() is the order-independent identity used by the paper's
// global group id (ggid, §4.1): two groups that are MPI_SIMILAR — same
// member set, any order — hash identically. It is computed once, when the
// group is built (which already walks every member to validate it), and
// stored beside the member table in the shared block: the CC wrapper reads
// it on every collective in O(1), and a Group copy stays one handle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "umpi/types.hpp"

namespace manatee::umpi {

class Group {
 public:
  Group() = default;

  /// `members[i]` is the world rank of group rank i. Must be unique, >= 0.
  explicit Group(std::vector<int> members);

  /// The trivial group {0, 1, ..., n-1} (the world group).
  static Group world(int world_size);

  [[nodiscard]] int size() const noexcept {
    return table_ == nullptr ? 0 : static_cast<int>(table_->members.size());
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// World rank of group rank `r`.
  [[nodiscard]] int world_rank(int r) const;

  /// Group rank of world rank `w`, or -1 if not a member
  /// (MPI_Group_rank / MPI_UNDEFINED). O(1) for iota groups (the world
  /// group), O(p) otherwise.
  [[nodiscard]] int rank_of_world(int w) const noexcept;

  [[nodiscard]] bool contains_world(int w) const noexcept {
    return rank_of_world(w) >= 0;
  }

  [[nodiscard]] const std::vector<int>& members() const noexcept;

  /// The shared, immutable member-table handle (null = empty group) —
  /// pointer identity for caches keyed on the member list, and a lifetime
  /// anchor that rules out ABA on that identity (an entry holding the
  /// handle keeps the table address from being reused).
  [[nodiscard]] std::shared_ptr<const std::vector<int>> members_handle()
      const noexcept {
    if (table_ == nullptr) return nullptr;
    return {table_, &table_->members};
  }

  /// Translate ranks in this group to ranks in `other`
  /// (MPI_Group_translate_ranks): result[i] = other rank of this->ranks[i],
  /// or -1 where not a member of `other`.
  [[nodiscard]] std::vector<int> translate_ranks(std::span<const int> ranks,
                                                 const Group& other) const;

  [[nodiscard]] Group incl(std::span<const int> ranks) const;
  [[nodiscard]] Group excl(std::span<const int> ranks) const;
  [[nodiscard]] Group set_union(const Group& other) const;
  [[nodiscard]] Group set_intersection(const Group& other) const;
  [[nodiscard]] Group set_difference(const Group& other) const;

  [[nodiscard]] CompareResult compare(const Group& other) const;

  /// Order-independent 64-bit hash of the member set; the basis of the
  /// paper's ggid. MPI_SIMILAR groups collide by construction. O(1): cached
  /// at construction.
  [[nodiscard]] std::uint64_t member_set_hash() const noexcept;

  friend bool operator==(const Group& a, const Group& b) {
    if (a.table_ == b.table_) return true;  // shared table or both empty
    return a.members() == b.members();
  }

 private:
  /// The shared, immutable block: the member list and its member-set hash.
  struct Table {
    std::vector<int> members;
    std::uint64_t hash = 0;
  };

  struct Checked {};  // tag: members already validated by the caller
  Group(Checked, std::vector<int> members, bool iota);

  /// Shared, immutable member table (null = the empty group). Copying a
  /// Group copies the handle, not the table.
  std::shared_ptr<const Table> table_;
  bool iota_ = true;  ///< members[i] == i for all i (empty: trivially true)
};

}  // namespace manatee::umpi
