// test_writer.cpp — the checkpoint write-back pipeline end to end: delta
// chains restore bit-identically, content dedupe shrinks generations,
// 2-phase publication survives a simulated crash between staging and
// rename, buddy replicas restore a node whose primary subtree is gone,
// and retention never deletes a base a kept delta still needs.
#include "ckpt/writer.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ckpt/generation.hpp"
#include "common/error.hpp"
#include "harness/scenario.hpp"

namespace manatee::ckpt {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(harness::fresh_dir("writer_" + tag)) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// One rank's image at one cycle: a cold blob that never changes plus a
/// hot blob whose bytes depend on (rank, cycle).
CkptImage make_image(int world, int rank, std::uint64_t cycle) {
  CkptImage img;
  img.world_size = world;
  img.rank = rank;
  img.cycle = cycle;
  img.blobs["cold/tables"] = std::vector<std::byte>(2048, std::byte{0xcd});
  std::vector<std::byte> hot(192);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    hot[i] = static_cast<std::byte>(31 * rank + 7 * cycle + i);
  }
  img.blobs["hot/state"] = std::move(hot);
  return img;
}

WriterConfig base_config(const TempDir& dir, int world) {
  WriterConfig wc;
  wc.image_dir = dir.str();
  wc.world = world;
  wc.chunk_bytes = 64;  // small chunks so dedupe is visible at test sizes
  return wc;
}

/// Submit one full generation (all ranks) and return the images submitted.
std::vector<CkptImage> submit_generation(Writer& w, int world,
                                         std::uint64_t gen) {
  std::vector<CkptImage> images;
  for (int rank = 0; rank < world; ++rank) {
    images.push_back(make_image(world, rank, gen));
    (void)w.submit(gen, images.back());
  }
  return images;
}

TEST(Writer, DeltaChainRestoresBitIdentical) {
  const TempDir dir("delta_chain");
  auto wc = base_config(dir, 2);
  wc.delta = true;
  wc.full_every = 8;  // generations 2..4 all chain off the gen-1 full
  Writer writer(wc);

  std::vector<CkptImage> last;
  for (std::uint64_t gen = 1; gen <= 4; ++gen) {
    last = submit_generation(writer, 2, gen);
  }

  EXPECT_EQ(GenerationStore::list(dir.str()),
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
  for (std::uint64_t gen = 2; gen <= 4; ++gen) {
    const auto h =
        peek_image_header(GenerationStore::image_path(dir.str(), gen, 0));
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE(h->delta) << "generation " << gen;
    EXPECT_EQ(h->base_gen, gen - 1);
  }
  EXPECT_EQ(GenerationStore::chain_depth(dir.str(), 4), 3u);

  const auto restored = GenerationStore::read_world(dir.str(), 4, 2);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 2u);
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ((*restored)[rank].blobs, last[rank].blobs) << "rank " << rank;
    EXPECT_EQ((*restored)[rank].cycle, 4u);
  }
}

TEST(Writer, FullEveryBoundsTheChain) {
  const TempDir dir("full_every");
  auto wc = base_config(dir, 1);
  wc.delta = true;
  wc.full_every = 2;  // full, delta, full, delta, ...
  Writer writer(wc);
  for (std::uint64_t gen = 1; gen <= 4; ++gen) {
    submit_generation(writer, 1, gen);
  }
  const auto expect_delta = std::map<std::uint64_t, bool>{
      {1, false}, {2, true}, {3, false}, {4, true}};
  for (const auto& [gen, want] : expect_delta) {
    const auto h =
        peek_image_header(GenerationStore::image_path(dir.str(), gen, 0));
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->delta, want) << "generation " << gen;
  }
  EXPECT_EQ(GenerationStore::chain_depth(dir.str(), 4), 1u);
}

TEST(Writer, UnchangedStateDedupesAway) {
  const TempDir dir("dedupe");
  auto wc = base_config(dir, 1);
  wc.delta = true;
  wc.full_every = 8;
  wc.chunk_bytes = 1024;
  Writer writer(wc);

  auto img = make_image(1, 0, 1);
  // Varied content: constant fill would dedupe to one chunk even inside
  // the full image, leaving nothing for the delta to demonstrate.
  auto& cold = img.blobs["cold/tables"];
  cold.resize(16 * 1024);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    cold[i] = static_cast<std::byte>(i * 2654435761u >> 7);
  }
  const auto full = writer.submit(1, img);
  ASSERT_TRUE(full.has_value());
  EXPECT_FALSE(full->delta);

  // Mutate one byte of the hot blob in place; everything else is unchanged.
  img.cycle = 2;
  img.blobs["hot/state"][0] ^= std::byte{0xff};
  const auto delta = writer.submit(2, img);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->delta);
  EXPECT_EQ(delta->logical_bytes, full->logical_bytes);
  EXPECT_LT(delta->written_bytes, full->written_bytes / 4)
      << "a one-chunk change must not rewrite the cold tables";

  const auto restored = GenerationStore::read_world(dir.str(), 2, 1);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->front().blobs, img.blobs);
}

TEST(Writer, AsyncCrashBeforePublishFallsBackOneGeneration) {
  const TempDir dir("crash_publish");
  auto wc = base_config(dir, 2);
  wc.async = true;
  wc.delta = true;
  wc.full_every = 8;
  wc.publish_hook = [](std::uint64_t gen) { return gen != 3; };
  std::vector<CkptImage> gen2;
  {
    Writer writer(wc);
    submit_generation(writer, 2, 1);
    gen2 = submit_generation(writer, 2, 2);
    submit_generation(writer, 2, 3);  // staged, never renamed
    writer.flush();

    const auto stats = writer.stats();
    ASSERT_EQ(stats.size(), 3u);
    EXPECT_TRUE(stats.at(1).published);
    EXPECT_TRUE(stats.at(2).published);
    EXPECT_FALSE(stats.at(3).published);
  }

  // Exactly what a crash between staging and rename leaves behind: the
  // .tmp directory exists, list() does not see it, restart falls back.
  EXPECT_TRUE(fs::exists(GenerationStore::tmp_dir_for(dir.str(), 3)));
  EXPECT_EQ(GenerationStore::list(dir.str()),
            (std::vector<std::uint64_t>{1, 2}));
  const auto valid = GenerationStore::latest_valid(dir.str(), 2);
  ASSERT_TRUE(valid.has_value());
  EXPECT_EQ(valid->gen, 2u);
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(valid->images[rank].blobs, gen2[rank].blobs);
  }
}

TEST(Writer, ReplicaRestoresAfterPrimarySubtreeLoss) {
  const TempDir dir("replica");
  auto wc = base_config(dir, 4);
  wc.ranks_per_node = 2;  // nodes {0,1} × ranks {0..3}
  wc.replicate = true;
  Writer writer(wc);
  const auto images = submit_generation(writer, 4, 1);

  const auto gen_dir = GenerationStore::dir_for(dir.str(), 1);
  ASSERT_TRUE(fs::exists(gen_dir + "/node_0000/ckpt_rank_0.img"));
  ASSERT_TRUE(fs::exists(gen_dir + "/node_0001/replica/ckpt_rank_0.img"));

  // Lose node 0 wholesale: its primaries AND the replicas it held for
  // node 1. Every rank must still restore (node 0's ranks via node 1's
  // replica subtree, node 1's ranks via their primaries).
  fs::remove_all(gen_dir + "/node_0000");
  const auto restored = GenerationStore::read_world(dir.str(), 1, 4);
  ASSERT_TRUE(restored.has_value());
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ((*restored)[rank].blobs, images[rank].blobs) << "rank " << rank;
  }
}

TEST(Writer, RetentionKeepsBasesOfKeptDeltas) {
  {
    // full_every=8: generations 2..4 chain back to 1, so retain(keep=2)
    // may delete nothing — the kept deltas pin the whole chain.
    const TempDir dir("retain_pinned");
    auto wc = base_config(dir, 1);
    wc.delta = true;
    wc.full_every = 8;
    Writer writer(wc);
    for (std::uint64_t gen = 1; gen <= 4; ++gen) {
      submit_generation(writer, 1, gen);
    }
    GenerationStore::retain(dir.str(), 2);
    EXPECT_EQ(GenerationStore::list(dir.str()),
              (std::vector<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_TRUE(GenerationStore::read_world(dir.str(), 4, 1).has_value());
  }
  {
    // full_every=2: gen 3 is full, gen 4 its delta — generations 1 and 2
    // are dead weight and must go.
    const TempDir dir("retain_drops");
    auto wc = base_config(dir, 1);
    wc.delta = true;
    wc.full_every = 2;
    Writer writer(wc);
    for (std::uint64_t gen = 1; gen <= 4; ++gen) {
      submit_generation(writer, 1, gen);
    }
    GenerationStore::retain(dir.str(), 2);
    EXPECT_EQ(GenerationStore::list(dir.str()),
              (std::vector<std::uint64_t>{3, 4}));
    EXPECT_TRUE(GenerationStore::read_world(dir.str(), 4, 1).has_value());
  }
}

TEST(Writer, SeedDeltaContinuesChainAcrossRestart) {
  const TempDir dir("seed_delta");
  auto wc = base_config(dir, 2);
  wc.delta = true;
  wc.full_every = 8;
  {
    Writer writer(wc);
    submit_generation(writer, 2, 1);
    submit_generation(writer, 2, 2);
  }
  // "Restart": a fresh writer primed from the restored generation writes
  // the next checkpoint as a delta against it, not as a full image.
  const auto valid = GenerationStore::latest_valid(dir.str(), 2);
  ASSERT_TRUE(valid.has_value());
  Writer writer(wc);
  writer.seed_delta(valid->gen, valid->images);
  const auto last = submit_generation(writer, 2, 3);

  const auto h =
      peek_image_header(GenerationStore::image_path(dir.str(), 3, 0));
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->delta);
  EXPECT_EQ(h->base_gen, 2u);
  const auto restored = GenerationStore::read_world(dir.str(), 3, 2);
  ASSERT_TRUE(restored.has_value());
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ((*restored)[rank].blobs, last[rank].blobs);
  }
}

TEST(Writer, FlatLayoutIgnoresDeltaAndReplication) {
  const TempDir dir("flat");
  auto wc = base_config(dir, 2);
  wc.generational = false;
  wc.delta = true;       // normalized away: deltas need generations
  wc.replicate = true;   // likewise
  Writer writer(wc);
  EXPECT_FALSE(writer.config().delta);
  EXPECT_FALSE(writer.config().replicate);
  const auto images = submit_generation(writer, 2, 0);
  EXPECT_FALSE(GenerationStore::has_generations(dir.str()));
  for (int rank = 0; rank < 2; ++rank) {
    const auto back =
        CkptImage::read_file(CkptImage::path_for(dir.str(), rank));
    EXPECT_EQ(back.blobs, images[rank].blobs);
  }
}

}  // namespace
}  // namespace manatee::ckpt
