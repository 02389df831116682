#include "ckpt/registry.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace manatee::ckpt {

void Registry::register_segment(const std::string& name, std::span<std::byte> data) {
  MANATEE_REQUIRE(!name.empty(), "segment name must be non-empty");
  MANATEE_REQUIRE(!detached_, "segment registered after the app finalized");
  if (const auto it = segments_.find(name); it != segments_.end()) {
    MANATEE_REQUIRE(it->second.live.size() == data.size(),
                    "segment '" + name + "' re-registered with a different size");
    it->second.live = data;
    it->second.shadow.assign(data.begin(), data.end());
    return;
  }
  Segment seg;
  seg.live = data;
  seg.shadow.assign(data.begin(), data.end());
  segments_.emplace(name, std::move(seg));
}

bool Registry::has(const std::string& name) const { return segments_.contains(name); }

std::size_t Registry::total_bytes() const {
  std::size_t n = 0;
  for (const auto& [name, seg] : segments_) n += seg.live.size();
  return n;
}

std::map<std::string, std::vector<std::byte>> Registry::capture() const {
  std::map<std::string, std::vector<std::byte>> out;
  for (const auto& [name, seg] : segments_) {
    if (detached_) {
      out.emplace(name, seg.shadow);
    } else {
      out.emplace(name, std::vector<std::byte>(seg.live.begin(), seg.live.end()));
    }
  }
  return out;
}

void Registry::refresh(Segment& seg, std::size_t offset, std::size_t length) {
  if (length != 0) {
    std::memcpy(seg.shadow.data() + offset, seg.live.data() + offset, length);
  }
}

void Registry::sync_shadow() {
  if (detached_) return;
  for (auto& [name, seg] : segments_) refresh(seg, 0, seg.live.size());
}

void Registry::sync_shadow(const std::byte* ptr, std::size_t length) {
  if (detached_ || length == 0) return;
  const auto lo = reinterpret_cast<std::uintptr_t>(ptr);
  const auto hi = lo + length;
  for (auto& [name, seg] : segments_) {
    const auto begin = reinterpret_cast<std::uintptr_t>(seg.live.data());
    const auto end = begin + seg.live.size();
    const auto from = std::max(lo, begin);
    const auto to = std::min(hi, end);
    if (from < to) refresh(seg, from - begin, to - from);
  }
}

void Registry::restore(const std::map<std::string, std::vector<std::byte>>& blobs) {
  MANATEE_REQUIRE(!detached_, "restore into a detached registry");
  for (const auto& [name, blob] : blobs) {
    const auto it = segments_.find(name);
    if (it == segments_.end()) {
      throw CheckpointError("restore: segment '" + name +
                            "' in image is not registered");
    }
    if (it->second.live.size() != blob.size()) {
      throw CheckpointError("restore: segment '" + name + "' size mismatch: image " +
                            std::to_string(blob.size()) + " vs registered " +
                            std::to_string(it->second.live.size()));
    }
    if (!blob.empty()) {
      std::memcpy(it->second.live.data(), blob.data(), blob.size());
      it->second.shadow = blob;
    }
  }
}

std::optional<SegmentRef> Registry::locate(const std::byte* ptr,
                                           std::size_t length) const {
  for (const auto& [name, seg] : segments_) {
    if (seg.live.empty()) continue;
    const std::byte* begin = seg.live.data();
    const std::byte* end = begin + seg.live.size();
    if (ptr >= begin && ptr + length <= end) {
      return SegmentRef{name, static_cast<std::size_t>(ptr - begin), length};
    }
  }
  return std::nullopt;
}

std::span<std::byte> Registry::resolve(const SegmentRef& ref) const {
  const auto it = segments_.find(ref.name);
  if (it == segments_.end()) {
    throw CheckpointError("resolve: unknown segment '" + ref.name + "'");
  }
  MANATEE_REQUIRE(ref.offset + ref.length <= it->second.live.size(),
                  "SegmentRef out of segment bounds");
  return it->second.live.subspan(ref.offset, ref.length);
}

}  // namespace manatee::ckpt
