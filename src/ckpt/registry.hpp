// registry.hpp — the per-rank "upper half" state registry.
//
// In MANA, a checkpoint saves every memory region belonging to the upper
// half (application + wrappers). MANATEE reproduces this at registered-
// segment granularity: the application registers each buffer that must
// survive a checkpoint (state arrays, RNG state, loop cursors); the engine
// captures all registered segments at the safe state and restores them on
// restart. See DESIGN.md §1 for why this preserves the paper's algorithmic
// content.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace manatee::ckpt {

/// A (segment, offset) reference that stays valid across restart even
/// though raw pointers do not. Used to save posted-receive destinations.
struct SegmentRef {
  std::string name;
  std::size_t offset = 0;
  std::size_t length = 0;
};

class Registry {
 public:
  /// Register (or re-register, on restart) a named segment of application
  /// memory. The span must stay valid until the registry is detached or
  /// destroyed. Size is fixed per name: re-registering with a different
  /// size throws (the app's state layout must be deterministic).
  void register_segment(const std::string& name, std::span<std::byte> data);

  /// Typed convenience for single values.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void register_value(const std::string& name, T& value) {
    register_segment(name, std::as_writable_bytes(std::span(&value, 1)));
  }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::size_t total_bytes() const;

  /// Copy out the current contents of every segment: the live spans while
  /// the application frame is alive, the shadow copies after detach().
  [[nodiscard]] std::map<std::string, std::vector<std::byte>> capture() const;

  /// Refresh every segment's owned shadow copy from its live span. The
  /// wrapper layer calls this after a once() block, the one operation that
  /// may write any registered byte.
  void sync_shadow();

  /// Refresh the shadow of exactly the registered bytes inside
  /// [ptr, ptr + length): the overlap with every segment it touches, and
  /// nothing when it touches none. The wrapper layer calls this with the
  /// span an operation wrote (a receive buffer, a collective's output), so
  /// a failure-free op costs O(bytes written), not O(registered bytes).
  /// The resumable-execution contract — registered state only mutates
  /// inside wrapped operations — keeps every shadow byte exact at op
  /// boundaries. No-op once detached.
  void sync_shadow(const std::byte* ptr, std::size_t length);

  /// The application function returned: its frame (and thus every live
  /// span) is about to die. Freeze the shadows — a checkpoint that catches
  /// this rank after finalization (late request while the rank sits in
  /// at_finalize) captures the exit-state shadow instead of reading freed
  /// stack/heap memory.
  void detach() noexcept { detached_ = true; }
  [[nodiscard]] bool detached() const noexcept { return detached_; }

  /// Copy saved blobs back into the registered spans. Every blob must have
  /// a registered segment of exactly matching size; segments without blobs
  /// are left untouched.
  void restore(const std::map<std::string, std::vector<std::byte>>& blobs);

  /// Locate a pointer range inside a registered segment (for persisting
  /// posted-receive buffers). Returns nullopt when the range is not fully
  /// contained in any single segment.
  [[nodiscard]] std::optional<SegmentRef> locate(const std::byte* ptr,
                                                 std::size_t length) const;

  /// Resolve a SegmentRef back to live memory (restart path).
  [[nodiscard]] std::span<std::byte> resolve(const SegmentRef& ref) const;

 private:
  struct Segment {
    std::span<std::byte> live;      ///< app memory; dangles after detach()
    std::vector<std::byte> shadow;  ///< owned copy, exact at op boundaries
  };

  /// Copy live[offset, offset + length) into the shadow.
  static void refresh(Segment& seg, std::size_t offset, std::size_t length);

  std::map<std::string, Segment> segments_;
  bool detached_ = false;
};

}  // namespace manatee::ckpt
