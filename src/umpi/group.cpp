#include "umpi/group.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace manatee::umpi {

namespace {

const std::vector<int>& empty_members() {
  static const std::vector<int> empty;
  return empty;
}

bool is_iota(const std::vector<int>& members) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] != static_cast<int>(i)) return false;
  }
  return true;
}

/// Member-set hash of the empty group; the seed of every chain.
constexpr std::uint64_t kEmptySetHash = 0x9e3779b97f4a7c15ULL;

/// Chain-hash an ascending member list: order-independence comes from the
/// sort, and the chained mix64 keeps distinct sets from colliding the way a
/// plain XOR or sum of per-rank hashes can.
std::uint64_t sorted_chain_hash(const std::vector<int>& sorted) {
  std::uint64_t h = kEmptySetHash;
  for (int w : sorted) h = hash_combine(h, static_cast<std::uint64_t>(w) + 1);
  return h;
}

}  // namespace

Group::Group(std::vector<int> members) {
  // Validate on a sorted copy: duplicates become neighbours, the minimum
  // comes first, and the same copy yields the member-set hash.
  auto sorted = members;
  std::sort(sorted.begin(), sorted.end());
  MANATEE_REQUIRE(sorted.empty() || sorted.front() >= 0,
                  "group member world ranks must be non-negative");
  MANATEE_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                  "group members must be unique");
  iota_ = is_iota(members);
  if (!members.empty()) {
    table_ = std::make_shared<const Table>(
        Table{std::move(members), sorted_chain_hash(sorted)});
  }
}

Group::Group(Checked, std::vector<int> members, bool iota) : iota_(iota) {
  if (!members.empty()) {
    // Checked groups are iota (the world group): already sorted.
    const std::uint64_t hash = sorted_chain_hash(members);
    table_ = std::make_shared<const Table>(Table{std::move(members), hash});
  }
}

Group Group::world(int world_size) {
  std::vector<int> m(static_cast<std::size_t>(world_size));
  for (int i = 0; i < world_size; ++i) m[static_cast<std::size_t>(i)] = i;
  return Group(Checked{}, std::move(m), /*iota=*/true);
}

const std::vector<int>& Group::members() const noexcept {
  return table_ == nullptr ? empty_members() : table_->members;
}

int Group::world_rank(int r) const {
  MANATEE_REQUIRE(r >= 0 && r < size(), "group rank out of range");
  return table_->members[static_cast<std::size_t>(r)];
}

int Group::rank_of_world(int w) const noexcept {
  if (iota_) return w >= 0 && w < size() ? w : -1;
  const std::vector<int>& m = table_->members;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i] == w) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> Group::translate_ranks(std::span<const int> ranks,
                                        const Group& other) const {
  std::vector<int> out;
  out.reserve(ranks.size());
  for (int r : ranks) {
    out.push_back(other.rank_of_world(world_rank(r)));
  }
  return out;
}

Group Group::incl(std::span<const int> ranks) const {
  std::vector<int> m;
  m.reserve(ranks.size());
  for (int r : ranks) m.push_back(world_rank(r));
  return Group(std::move(m));
}

Group Group::excl(std::span<const int> ranks) const {
  std::unordered_set<int> drop;
  for (int r : ranks) {
    MANATEE_REQUIRE(r >= 0 && r < size(), "excl rank out of range");
    drop.insert(r);
  }
  std::vector<int> m;
  for (int i = 0; i < size(); ++i) {
    if (!drop.contains(i)) m.push_back(world_rank(i));
  }
  return Group(std::move(m));
}

Group Group::set_union(const Group& other) const {
  std::vector<int> m = members();
  for (int w : other.members()) {
    if (!contains_world(w)) m.push_back(w);
  }
  return Group(std::move(m));
}

Group Group::set_intersection(const Group& other) const {
  std::vector<int> m;
  for (int w : members()) {
    if (other.contains_world(w)) m.push_back(w);
  }
  return Group(std::move(m));
}

Group Group::set_difference(const Group& other) const {
  std::vector<int> m;
  for (int w : members()) {
    if (!other.contains_world(w)) m.push_back(w);
  }
  return Group(std::move(m));
}

CompareResult Group::compare(const Group& other) const {
  if (table_ == other.table_ || members() == other.members()) {
    return CompareResult::kIdent;
  }
  if (size() != other.size()) return CompareResult::kUnequal;
  auto a = members();
  auto b = other.members();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b ? CompareResult::kSimilar : CompareResult::kUnequal;
}

std::uint64_t Group::member_set_hash() const noexcept {
  return table_ == nullptr ? kEmptySetHash : table_->hash;
}

}  // namespace manatee::umpi
