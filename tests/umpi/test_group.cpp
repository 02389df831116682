#include "umpi/group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace manatee::umpi {
namespace {

TEST(Group, WorldGroupIdentityMapping) {
  const auto g = Group::world(4);
  EXPECT_EQ(g.size(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(g.world_rank(i), i);
    EXPECT_EQ(g.rank_of_world(i), i);
  }
}

TEST(Group, RankOfWorldMissingIsMinusOne) {
  const Group g({5, 7});
  EXPECT_EQ(g.rank_of_world(6), -1);
  EXPECT_FALSE(g.contains_world(6));
  EXPECT_TRUE(g.contains_world(7));
}

TEST(Group, DuplicateMembersRejected) {
  EXPECT_THROW(Group({1, 2, 1}), UsageError);
}

TEST(Group, NegativeMembersRejected) { EXPECT_THROW(Group({0, -3}), UsageError); }

TEST(Group, TranslateRanks) {
  const Group a({10, 20, 30});
  const Group b({30, 10});
  const int ranks[] = {0, 1, 2};
  const auto t = a.translate_ranks(ranks, b);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], 1);   // world 10 is rank 1 in b
  EXPECT_EQ(t[1], -1);  // world 20 absent
  EXPECT_EQ(t[2], 0);   // world 30 is rank 0 in b
}

TEST(Group, InclExcl) {
  const auto g = Group::world(6);
  const int keep[] = {5, 0, 3};
  const auto inc = g.incl(keep);
  EXPECT_EQ(inc.members(), (std::vector<int>{5, 0, 3}));  // order preserved

  const int drop[] = {0, 1};
  const auto exc = g.excl(drop);
  EXPECT_EQ(exc.members(), (std::vector<int>{2, 3, 4, 5}));
}

TEST(Group, ExclOutOfRangeThrows) {
  const auto g = Group::world(3);
  const int drop[] = {3};
  EXPECT_THROW(g.excl(drop), UsageError);
}

TEST(Group, SetOperations) {
  const Group a({0, 1, 2});
  const Group b({2, 3});
  EXPECT_EQ(a.set_union(b).members(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(a.set_intersection(b).members(), (std::vector<int>{2}));
  EXPECT_EQ(a.set_difference(b).members(), (std::vector<int>{0, 1}));
}

TEST(Group, CompareIdentSimilarUnequal) {
  const Group a({0, 1, 2});
  EXPECT_EQ(a.compare(Group({0, 1, 2})), CompareResult::kIdent);
  EXPECT_EQ(a.compare(Group({2, 0, 1})), CompareResult::kSimilar);
  EXPECT_EQ(a.compare(Group({0, 1})), CompareResult::kUnequal);
  EXPECT_EQ(a.compare(Group({0, 1, 3})), CompareResult::kUnequal);
}

TEST(Group, MemberSetHashOrderIndependent) {
  // The ggid property (paper §4.1): MPI_SIMILAR groups hash identically.
  EXPECT_EQ(Group({0, 1, 2}).member_set_hash(), Group({2, 1, 0}).member_set_hash());
  EXPECT_EQ(Group({7, 3}).member_set_hash(), Group({3, 7}).member_set_hash());
}

TEST(Group, MemberSetHashDistinguishesSets) {
  EXPECT_NE(Group({0, 1}).member_set_hash(), Group({0, 2}).member_set_hash());
  EXPECT_NE(Group({0, 1}).member_set_hash(), Group({0, 1, 2}).member_set_hash());
  // Sets that a naive additive hash would collide on: {0,3} vs {1,2}.
  EXPECT_NE(Group({0, 3}).member_set_hash(), Group({1, 2}).member_set_hash());
}

TEST(Group, MemberSetHashManyGroupsNoCollision) {
  // Pairwise-distinct small subsets of [0,16) should all hash differently.
  std::vector<std::uint64_t> hashes;
  for (int a = 0; a < 16; ++a) {
    for (int b = a + 1; b < 16; ++b) {
      hashes.push_back(Group({a, b}).member_set_hash());
    }
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(Group, MemberSetHashIsTheSortedChainHash) {
  // The cached hash is exactly the chain hash of the sorted member list, so
  // ggids match what every earlier build computed per call.
  const auto chain = [](std::vector<int> members) {
    std::sort(members.begin(), members.end());
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int w : members) h = hash_combine(h, static_cast<std::uint64_t>(w) + 1);
    return h;
  };
  EXPECT_EQ(Group({5, 1, 9, 3}).member_set_hash(), chain({5, 1, 9, 3}));
  std::vector<int> iota(64);
  std::iota(iota.begin(), iota.end(), 0);
  EXPECT_EQ(Group::world(64).member_set_hash(), chain(iota));
  EXPECT_EQ(Group(iota).member_set_hash(), chain(iota));
  EXPECT_EQ(Group().member_set_hash(), chain({}));
}

TEST(Group, MemberSetHashSurvivesPermutationAndCopy) {
  const Group g({4, 8, 15, 16, 23, 42});
  const Group similar({42, 23, 16, 15, 8, 4});
  ASSERT_EQ(g.compare(similar), CompareResult::kSimilar);
  EXPECT_EQ(g.member_set_hash(), similar.member_set_hash());
  const Group copy = g;
  EXPECT_EQ(copy.member_set_hash(), g.member_set_hash());
  EXPECT_EQ(copy.members_handle(), g.members_handle());  // one shared table
  const Group sub = similar.incl(std::vector<int>{5, 0});  // {4, 42}
  EXPECT_EQ(sub.member_set_hash(), Group({42, 4}).member_set_hash());
}

TEST(Group, EmptyGroup) {
  const Group g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.size(), 0);
  EXPECT_EQ(g.rank_of_world(0), -1);
}

}  // namespace
}  // namespace manatee::umpi
