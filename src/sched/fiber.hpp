// fiber.hpp — stackful cooperative fibers: the mechanism under the events
// backend (FiberBackend, scheduler.hpp).
//
// A Fiber is a suspended computation with its own stack. Switching is
// symmetric and explicit: `switch_context` saves the callee-saved register
// state of the current context and resumes another one, exactly like
// boost::context's fcontext switch. On x86-64 the switch is a hand-rolled
// ~20-instruction assembly routine (no sigprocmask syscall, unlike glibc's
// swapcontext); other architectures fall back to ucontext.
//
// Stacks are carved out of large MAP_NORESERVE slabs, one VMA per 64
// stacks; a guard page per stack would cost 2 VMAs each and put 64k-rank
// worlds over the default vm.max_map_count (~65530). Isolation is soft: an
// untouched gap page between neighbours (never committed unless overflowed
// into) and a guard word at `limit` that must stay zero, checked whenever
// the scheduler vacates, decommits or recycles a stack that reached its
// bottom page. The counterweight to the soft guard is that ranks park at
// the shallow top-level drive loop, so deep stacks are the exception.
//
// Finished fibers return their stacks to per-depth free tiers (bucketed by
// the observed high-water mark) because lifecycle chains create runtimes —
// and therefore fiber fleets — repeatedly, and reusing a shallow-committed
// stack for a new fiber avoids re-faulting pages a deep predecessor touched.
//
// Sanitizer support: when built with ASan/TSan the switch is annotated with
// __sanitizer_start/finish_switch_fiber and __tsan_switch_to_fiber so the
// sanitizers track the stack change; without them fibers look like wild
// stack-pointer corruption.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace manatee::sched {

/// One fiber stack: [gap page][usable range). `top` is the highest usable
/// address (stacks grow down).
struct StackAllocation {
  void* base = nullptr;   ///< start of the gap page
  std::size_t size = 0;   ///< total span including the gap page
  void* limit = nullptr;  ///< lowest usable address (gap page end), guard word
  void* top = nullptr;    ///< highest usable address

  [[nodiscard]] std::size_t usable() const noexcept {
    return static_cast<std::size_t>(static_cast<std::byte*>(top) -
                                    static_cast<std::byte*>(limit));
  }
};

/// Slab stack allocator with depth-tiered free lists. Not thread-safe; the
/// owning scheduler serializes access under its own mutex.
class StackPool {
 public:
  explicit StackPool(std::size_t stack_bytes);
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  [[nodiscard]] StackAllocation acquire();

  /// Return a stack. `high_water_bytes` — the deepest observed use, 0 when
  /// unknown — buckets it into a reuse tier and runs the guard-word
  /// overflow check (detail::check_stack_guard).
  void release(StackAllocation stack, std::size_t high_water_bytes = 0);

  /// Stacks ever carved fresh (== acquire() calls that missed every tier).
  [[nodiscard]] std::uint64_t mapped() const noexcept { return mapped_; }
  /// acquire() calls served from a free tier (the reuse counter).
  [[nodiscard]] std::uint64_t reused() const noexcept { return reused_; }

 private:
  static constexpr int kTierCount = 3;
  /// Tier by observed depth: 0 = shallow (<=16 KiB), 1 = medium
  /// (<=64 KiB), 2 = deep. acquire() prefers shallow.
  [[nodiscard]] static int tier_of(std::size_t high_water_bytes) noexcept;

  [[nodiscard]] StackAllocation carve();

  std::size_t stack_bytes_;
  std::vector<StackAllocation> tiers_[kTierCount];
  std::vector<std::pair<void*, std::size_t>> slabs_;  ///< mmap base, bytes
  std::byte* carve_next_ = nullptr;  ///< next un-carved stack in the slab
  std::size_t carve_left_ = 0;       ///< stacks remaining in the open slab
  std::uint64_t mapped_ = 0;
  std::uint64_t reused_ = 0;
};

class FiberBackend;
class Waiter;

/// Saved execution context: either a fiber or a worker thread's own stack.
/// The embedded sanitizer bookkeeping travels with the context across
/// switches. On the assembly path `sp` is the saved stack pointer; on the
/// ucontext fallback it owns a heap-allocated ucontext_t instead.
struct ExecContext {
  void* sp = nullptr;           ///< saved stack pointer / ucontext_t*
  void* stack_limit = nullptr;  ///< stack bounds, for sanitizer annotations
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

/// A rank fiber. Owned by the FiberBackend; waiters reference it while the
/// fiber is parked.
struct Fiber {
  ExecContext ctx;
  StackAllocation stack;
  FiberBackend* backend = nullptr;
  std::function<void()> body;
  int task_index = -1;
  /// Fiber-local log label storage; the scheduler points the logger's
  /// label slot here while the fiber runs (see common/log.hpp).
  std::string log_label = "-";
  bool started = false;  ///< stack allocated lazily at first dispatch
  bool finished = false;

  // Scheduler bookkeeping, guarded by the owning backend's mutex.
  /// Bumped on every prepare_park; deadline-heap entries snapshot it so a
  /// stale entry (the park it described already ended) is recognizable
  /// without touching the Waiter it pointed at.
  std::uint64_t park_epoch = 0;
  /// The waiter of the in-flight park, cleared at every transition to
  /// kNotified. Deadline-heap entries are valid only while this is set.
  Waiter* active_waiter = nullptr;
  /// Lowest stack address estimated committed (observed sp minima, raised
  /// again by decommits). Drives the high-water stats and the page
  /// decommit of dead frames.
  std::byte* committed_floor = nullptr;

  // Stack vacating (FiberBackend::observe_stack_depth): while
  // the fiber is parked its live span [vacated_lo, stack.top) sits in this
  // heap buffer and every stack page is decommitted — a parked rank costs
  // O(live frame) heap bytes, not a page. dispatch() copies the span back
  // to the same addresses (so saved registers and frame pointers stay
  // valid) before switching in. `vacated_lo != nullptr` means "vacated";
  // the buffer keeps its capacity across parks to avoid re-allocation.
  std::vector<std::byte> vacated_span;
  std::byte* vacated_lo = nullptr;
  /// The worker whose deferred-decommit batch took this fiber's last
  /// vacated span. Written at vacate, before the park is published, so the
  /// re-dispatching worker (any worker) reads it without a lock.
  std::int32_t decommit_batch = -1;
  /// Index of this fiber's entry in that batch, -1 when none (cancelled or
  /// flushed) — lets a re-dispatch cancel the pending decommit in O(1)
  /// instead of scanning the batch. Guarded by the batch's lock.
  std::int32_t pending_decommit_slot = -1;
};

namespace detail {

/// Saves the current context into `from` and resumes `to`. Returns when
/// somebody switches back to `from`. Both sides must be annotated contexts
/// (worker registers itself via `init_thread_context`).
void switch_context(ExecContext* from, ExecContext* to);

/// Last switch out of a finishing fiber: like switch_context, but tells
/// ASan to retire the dying context's fake stack. Never returns.
[[noreturn]] void switch_context_final(ExecContext* from, ExecContext* to);

/// Prepare `fiber` so the first switch_context into it enters
/// `fiber_trampoline(fiber)` on its own stack.
void make_fiber_context(Fiber* fiber);

/// Register the calling OS thread's native stack as a switchable context
/// (fills stack bounds and the TSan fiber handle for the running thread).
void init_thread_context(ExecContext* ctx);

/// Release resources of a thread context registered above.
void destroy_thread_context(ExecContext* ctx);

/// Release per-context sanitizer state of a finished fiber. Must run on a
/// different context (you cannot destroy the context you stand on).
void destroy_fiber_context(Fiber* fiber);

/// The saved stack pointer of a suspended context, or nullptr when it is
/// not observable (ucontext fallback, where `sp` is a heap ucontext_t).
[[nodiscard]] void* saved_stack_pointer(const ExecContext& ctx) noexcept;

/// The system page size (cached).
[[nodiscard]] std::size_t stack_page_bytes() noexcept;

/// Decommit [lo, hi) of a suspended stack (MADV_DONTNEED): the span reads
/// as zero afterwards and its physical pages are returned to the kernel.
/// Returns the bytes decommitted (0 when the span is empty or the kernel
/// refused). Callers must only pass spans strictly below the suspended
/// frame's red zone.
std::size_t decommit_stack_span(void* lo, void* hi) noexcept;

/// A [lo, hi) stack span queued for batched decommit.
struct StackSpan {
  void* lo = nullptr;
  void* hi = nullptr;
};

/// Decommit many suspended-stack spans, in ONE process_madvise syscall when
/// the kernel supports it (self-pidfd), per-span madvise otherwise. Best
/// effort: decommit is purely an RSS optimization — vacated spans are
/// restored from their heap copy regardless, and dead spans are dead.
void decommit_stack_spans(const StackSpan* spans, std::size_t count) noexcept;

/// Stack overflow check: throws when the guard word at `stack.limit` no
/// longer reads zero. Runs only once the observed high-water mark reaches
/// the bottom page — reading the word any earlier would commit an untouched
/// page, and a stack that never came within a page of its limit cannot
/// have crossed it.
void check_stack_guard(const StackAllocation& stack,
                       std::size_t high_water_bytes);

/// Whether stack vacating (copy-out + full decommit of a parked stack) is
/// usable in this build. False under ASan/TSan — the sanitizers keep shadow
/// state for stack memory that a bulk memcpy restore would invalidate —
/// and on the ucontext fallback, where the parked depth is not observable.
[[nodiscard]] bool stack_vacate_supported() noexcept;

/// The fiber's first and only frame, defined by the scheduler: runs
/// fiber->body and switches away forever. Never returns.
[[noreturn]] void fiber_entry(Fiber* fiber);

}  // namespace detail

}  // namespace manatee::sched
