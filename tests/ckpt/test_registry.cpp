#include "ckpt/registry.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace manatee::ckpt {
namespace {

TEST(Registry, RegisterAndCapture) {
  Registry reg;
  std::vector<double> data{1.0, 2.0, 3.0};
  reg.register_segment("data", std::as_writable_bytes(std::span(data)));
  EXPECT_TRUE(reg.has("data"));
  EXPECT_EQ(reg.segment_count(), 1u);
  EXPECT_EQ(reg.total_bytes(), 3 * sizeof(double));

  const auto captured = reg.capture();
  ASSERT_TRUE(captured.contains("data"));
  EXPECT_EQ(captured.at("data").size(), 3 * sizeof(double));
}

TEST(Registry, RestoreOverwritesContents) {
  Registry reg;
  std::vector<int> data{1, 2, 3, 4};
  reg.register_segment("d", std::as_writable_bytes(std::span(data)));
  const auto snapshot = reg.capture();
  data = {9, 9, 9, 9};
  reg.restore(snapshot);
  EXPECT_EQ(data, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Registry, ReRegisterRebindsSpan) {
  Registry reg;
  std::vector<int> a{1, 2}, b{3, 4};
  reg.register_segment("x", std::as_writable_bytes(std::span(a)));
  reg.register_segment("x", std::as_writable_bytes(std::span(b)));  // rebind
  const auto captured = reg.capture();
  int v0;
  std::memcpy(&v0, captured.at("x").data(), sizeof v0);
  EXPECT_EQ(v0, 3);
}

TEST(Registry, ReRegisterDifferentSizeThrows) {
  Registry reg;
  std::vector<int> a{1, 2}, b{3, 4, 5};
  reg.register_segment("x", std::as_writable_bytes(std::span(a)));
  EXPECT_THROW(reg.register_segment("x", std::as_writable_bytes(std::span(b))),
               UsageError);
}

TEST(Registry, EmptyNameThrows) {
  Registry reg;
  std::vector<int> a{1};
  EXPECT_THROW(reg.register_segment("", std::as_writable_bytes(std::span(a))),
               UsageError);
}

TEST(Registry, RestoreUnknownSegmentThrows) {
  Registry reg;
  std::map<std::string, std::vector<std::byte>> blobs{{"ghost", {}}};
  EXPECT_THROW(reg.restore(blobs), CheckpointError);
}

TEST(Registry, RestoreSizeMismatchThrows) {
  Registry reg;
  std::vector<int> a{1, 2};
  reg.register_segment("x", std::as_writable_bytes(std::span(a)));
  std::map<std::string, std::vector<std::byte>> blobs{{"x", std::vector<std::byte>(3)}};
  EXPECT_THROW(reg.restore(blobs), CheckpointError);
}

TEST(Registry, LocateFindsContainedRange) {
  Registry reg;
  std::vector<double> data(16);
  reg.register_segment("buf", std::as_writable_bytes(std::span(data)));
  const auto* base = reinterpret_cast<const std::byte*>(data.data());

  const auto ref = reg.locate(base + 8, 16);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->name, "buf");
  EXPECT_EQ(ref->offset, 8u);
  EXPECT_EQ(ref->length, 16u);
}

TEST(Registry, LocateRejectsOutsideOrStraddling) {
  Registry reg;
  std::vector<double> data(4);
  reg.register_segment("buf", std::as_writable_bytes(std::span(data)));
  const auto* base = reinterpret_cast<const std::byte*>(data.data());
  EXPECT_FALSE(reg.locate(base + 24, 16).has_value());  // runs past the end
  double other = 0;
  EXPECT_FALSE(
      reg.locate(reinterpret_cast<const std::byte*>(&other), 8).has_value());
}

TEST(Registry, ResolveRoundTrip) {
  Registry reg;
  std::vector<double> data(8);
  reg.register_segment("buf", std::as_writable_bytes(std::span(data)));
  const auto* base = reinterpret_cast<const std::byte*>(data.data());
  const auto ref = reg.locate(base + 16, 8);
  ASSERT_TRUE(ref.has_value());
  const auto span = reg.resolve(*ref);
  EXPECT_EQ(span.data(), base + 16);
  EXPECT_EQ(span.size(), 8u);
}

TEST(Registry, ResolveUnknownThrows) {
  Registry reg;
  EXPECT_THROW(reg.resolve(SegmentRef{"nope", 0, 1}), CheckpointError);
}

TEST(Registry, ResolveOutOfBoundsThrows) {
  Registry reg;
  std::vector<int> a{1};
  reg.register_segment("x", std::as_writable_bytes(std::span(a)));
  EXPECT_THROW(reg.resolve(SegmentRef{"x", 2, 8}), UsageError);
}

// ---- write-targeted shadow refresh ------------------------------------------------

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

/// Two segments over one contiguous buffer: "a" = buf[0, 4), "b" = buf[4, 8).
struct TwoSegments {
  std::vector<std::byte> buf = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  Registry reg;
  TwoSegments() {
    reg.register_segment("a", std::span(buf).first(4));
    reg.register_segment("b", std::span(buf).subspan(4));
    for (auto& b : buf) b = static_cast<std::byte>(static_cast<int>(b) + 10);
  }
  /// The shadows, as a late checkpoint after detach() reads them.
  std::map<std::string, std::vector<std::byte>> shadows() {
    reg.detach();
    return reg.capture();
  }
};

TEST(Registry, SyncShadowRangeInsideSegment) {
  TwoSegments t;
  t.reg.sync_shadow(t.buf.data() + 1, 2);
  const auto shadow = t.shadows();
  EXPECT_EQ(shadow.at("a"), bytes_of({1, 12, 13, 4}));
  EXPECT_EQ(shadow.at("b"), bytes_of({5, 6, 7, 8}));
}

TEST(Registry, SyncShadowRangeCrossingTwoSegments) {
  TwoSegments t;
  t.reg.sync_shadow(t.buf.data() + 2, 4);
  const auto shadow = t.shadows();
  EXPECT_EQ(shadow.at("a"), bytes_of({1, 2, 13, 14}));
  EXPECT_EQ(shadow.at("b"), bytes_of({15, 16, 7, 8}));
}

TEST(Registry, SyncShadowUnregisteredRangeIsNoOp) {
  TwoSegments t;
  std::vector<std::byte> elsewhere(8);
  t.reg.sync_shadow(elsewhere.data(), elsewhere.size());
  t.reg.sync_shadow(t.buf.data(), 0);
  const auto shadow = t.shadows();
  EXPECT_EQ(shadow.at("a"), bytes_of({1, 2, 3, 4}));
  EXPECT_EQ(shadow.at("b"), bytes_of({5, 6, 7, 8}));
}

TEST(Registry, SyncShadowAfterDetachIsNoOp) {
  TwoSegments t;
  t.reg.detach();
  t.reg.sync_shadow(t.buf.data(), t.buf.size());
  t.reg.sync_shadow();
  const auto shadow = t.reg.capture();
  EXPECT_EQ(shadow.at("a"), bytes_of({1, 2, 3, 4}));
  EXPECT_EQ(shadow.at("b"), bytes_of({5, 6, 7, 8}));
}

TEST(Registry, SyncShadowFullRefreshesEverySegment) {
  TwoSegments t;
  t.reg.sync_shadow();
  const auto shadow = t.shadows();
  EXPECT_EQ(shadow.at("a"), bytes_of({11, 12, 13, 14}));
  EXPECT_EQ(shadow.at("b"), bytes_of({15, 16, 17, 18}));
}

}  // namespace
}  // namespace manatee::ckpt
