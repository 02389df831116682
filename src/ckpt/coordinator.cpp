#include "ckpt/coordinator.hpp"

#include <set>

#include "common/error.hpp"
#include "common/log.hpp"

namespace manatee::ckpt {

Coordinator::Coordinator(int world_size, simnet::Fabric* fabric,
                         SwitchDrainMode switch_drain)
    : world_size_(world_size), fabric_(fabric), switch_drain_(switch_drain) {
  ranks_.resize(static_cast<std::size_t>(world_size));
  MANATEE_REQUIRE(world_size > 0, "coordinator needs a positive world size");
}

void Coordinator::wake_all_locked() {
  if (fabric_ != nullptr) fabric_->notify_all_ranks();
}

bool Coordinator::request_checkpoint() {
  common::MutexLock lock(mutex_);
  if (phase_ != CkptPhase::kIdle) return false;
  phase_ = CkptPhase::kDrain;
  if (switch_drain_ == SwitchDrainMode::kQuiesce && fabric_ != nullptr) {
    // Freeze the in-switch aggregation unit for the whole cycle: partial
    // rounds abort to the software fallback, so no switch-resident state
    // survives into the image (80 → 70 lock order).
    fabric_->switch_unit().quiesce();
  }
  targets_.clear();
  targets_version_ = 0;
  for (auto& r : ranks_) {
    const bool done = r.done;
    r = RankState{};
    r.done = done;
  }
  LOG_DEBUG("coordinator: checkpoint requested (cycle "
            << completed_cycles_ + 1 << ")");
  wake_all_locked();
  return true;
}

CkptPhase Coordinator::phase() const {
  common::MutexLock lock(mutex_);
  return phase_;
}

std::uint64_t Coordinator::completed_cycles() const {
  common::MutexLock lock(mutex_);
  return completed_cycles_;
}

// ---- CC ------------------------------------------------------------------------

void Coordinator::post_seq(int rank, const std::map<std::uint64_t, std::uint64_t>& seq) {
  common::MutexLock lock(mutex_);
  MANATEE_CHECK(phase_ == CkptPhase::kDrain, "post_seq outside a drain");
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  bool grew = false;
  for (const auto& [ggid, n] : seq) {
    auto& t = targets_[ggid];
    if (n > t) {
      t = n;
      grew = true;
    }
  }
  if (!state.seq_posted) {
    state.seq_posted = true;
    grew = true;  // ensure version moves so parked ranks re-verify
  }
  if (grew) {
    ++targets_version_;
    wake_all_locked();
  }
}

bool Coordinator::pull_targets(std::uint64_t& seen_version,
                               std::map<std::uint64_t, std::uint64_t>& out) const {
  common::MutexLock lock(mutex_);
  if (seen_version == targets_version_) return false;
  seen_version = targets_version_;
  out = targets_;
  return true;
}

bool Coordinator::all_seq_posted() const {
  common::MutexLock lock(mutex_);
  for (const auto& r : ranks_) {
    if (!r.seq_posted) return false;
  }
  return true;
}

void Coordinator::report_cc(int rank, const CcStatus& status) {
  common::MutexLock lock(mutex_);
  if (phase_ != CkptPhase::kDrain) return;  // late report after write began
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  state.parked = status.parked;
  state.sent = status.sent;
  state.received = status.received;
  state.seen_version = status.seen_version;
  state.blocked_on = status.blocked_on;
  state.has_next = status.has_next;
  state.next_ggid = status.next_ggid;
  state.next_seq = status.next_seq;
  maybe_enter_write_locked();
  maybe_force_p2p_cascade_locked();
}

void Coordinator::maybe_force_p2p_cascade_locked() {
  if (phase_ != CkptPhase::kDrain) return;

  // Stall certificate: every rank is accounted for (parked, finished, or
  // blocked on a peer), everyone has pulled the current target table, no
  // target update is in flight, and at least one rank still owes work.
  // Anything less means some rank is free-running or a wakeup is already
  // on its way, and forcing would needlessly widen the cut.
  // Done ranks report from at_finalize like everyone else — their update
  // counts stay in the balance (they may have sent raises before
  // finishing), and their park state is classified the same way.
  std::uint64_t sent = 0, received = 0;
  bool any_unparked = false;
  for (const auto& r : ranks_) {
    if (!r.seq_posted || r.seen_version != targets_version_) return;
    if (!r.parked) {
      if (r.blocked_on == kNotBlocked) return;  // free-running
      any_unparked = true;
    }
    sent += r.sent;
    received += r.received;
  }
  if (!any_unparked || sent != received) return;

  // Follow a blocked chain from any rank that owes work to an entry-parked
  // rank, and force that rank's next collective into the target set. One
  // node per stall round: each forced node unparks its group's members,
  // whose progress either resolves the p2p dependency or re-forms the
  // stall one collective further along.
  for (std::size_t start = 0; start < ranks_.size(); ++start) {
    const auto& r = ranks_[start];
    if (r.done || r.parked) continue;
    int cur = r.blocked_on;
    std::set<int> visited{static_cast<int>(start)};
    while (cur >= 0 && cur < static_cast<int>(ranks_.size()) &&
           !visited.contains(cur)) {
      visited.insert(cur);
      const auto& s = ranks_[static_cast<std::size_t>(cur)];
      if (s.parked && s.has_next) {
        auto& target = targets_[s.next_ggid];
        MANATEE_CHECK(s.next_seq > target,
                      "p2p cascade would not grow the forced target");
        target = s.next_seq;
        forced_[completed_cycles_ + 1][s.next_ggid] = s.next_seq;
        ++targets_version_;
        LOG_DEBUG("coordinator: p2p stall — forcing ggid="
                  << s.next_ggid << " to " << s.next_seq << " (rank " << cur
                  << " parked at entry, rank " << start << " blocked)");
        wake_all_locked();
        return;
      }
      if (s.blocked_on >= 0) {
        cur = s.blocked_on;
        continue;
      }
      break;  // unknown-source block or finalize-parked: try another chain
    }
  }
  // No resolvable chain: either a genuine application deadlock or every
  // blocked rank has an unknown source; the store watchdog will surface it.
}

std::map<std::uint64_t, std::uint64_t> Coordinator::forced_targets(
    std::uint64_t cycle) const {
  common::MutexLock lock(mutex_);
  const auto it = forced_.find(cycle);
  return it == forced_.end() ? std::map<std::uint64_t, std::uint64_t>{}
                             : it->second;
}

std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>>
Coordinator::forced_by_cycle() const {
  common::MutexLock lock(mutex_);
  return forced_;
}

void Coordinator::maybe_enter_write_locked() {
  if (phase_ != CkptPhase::kDrain) return;

  // CC criteria (when in use): every rank posted SEQ, is parked against the
  // current table version, and update counts balance.
  std::uint64_t sent = 0, received = 0;
  bool cc_ready = true;
  for (const auto& r : ranks_) {
    if (!r.seq_posted || !r.parked || r.seen_version != targets_version_) {
      cc_ready = false;
      break;
    }
    sent += r.sent;
    received += r.received;
  }
  cc_ready = cc_ready && sent == received;

  // 2PC criteria (when in use): every rank parked, nobody executing a real
  // collective, and no inserted barrier fully entered but not fully done.
  bool tpc_ready = true;
  for (const auto& r : ranks_) {
    if (!r.parked) {
      tpc_ready = false;
      break;
    }
  }
  if (tpc_ready) {
    for (const auto& [key, inst] : tpc_instances_) {
      if (inst.executing > 0 ||
          (inst.entered == inst.members && inst.done < inst.members)) {
        tpc_ready = false;
        break;
      }
    }
  }

  // The engine wires exactly one protocol per run; CC ranks never park
  // without posting SEQ, and 2PC ranks never post SEQ. Requiring "parked"
  // in both makes the disjunction safe.
  const bool cc_in_use = [&] {
    for (const auto& r : ranks_) {
      if (r.seq_posted) return true;
    }
    return false;
  }();
  const bool ready = cc_in_use ? cc_ready : tpc_ready;
  if (!ready) return;

  phase_ = CkptPhase::kWrite;
  stats_.push_back(CycleStats{completed_cycles_ + 1, sent});
  LOG_DEBUG("coordinator: safe state reached, entering write phase (updates="
            << sent << ")");
  wake_all_locked();
}

// ---- 2PC -----------------------------------------------------------------------

void Coordinator::tpc_enter(int rank, std::uint64_t ggid, std::uint64_t instance,
                            int members) {
  (void)rank;
  common::MutexLock lock(mutex_);
  auto& inst = tpc_instances_[{ggid, instance}];
  if (inst.members == 0) {
    inst.members = members;
  } else {
    MANATEE_CHECK(inst.members == members,
                  "2PC instance member count disagreement across ranks");
  }
  ++inst.entered;
  // Entering can close the "not everyone has entered" safety window; a
  // pending drain may need to re-evaluate (it can only become unsafe, so no
  // wake needed, but evaluation is cheap and keeps state fresh).
  maybe_enter_write_locked();
}

void Coordinator::tpc_execute(int rank, std::uint64_t ggid, std::uint64_t instance) {
  common::MutexLock lock(mutex_);
  auto& inst = tpc_instances_[{ggid, instance}];
  ++inst.executing;
  ranks_[static_cast<std::size_t>(rank)].parked = false;
}

void Coordinator::tpc_done(int rank, std::uint64_t ggid, std::uint64_t instance) {
  (void)rank;
  common::MutexLock lock(mutex_);
  auto& inst = tpc_instances_[{ggid, instance}];
  --inst.executing;
  ++inst.done;
  if (inst.done == inst.members) {
    tpc_instances_.erase({ggid, instance});  // instance closed
  }
  maybe_enter_write_locked();
}

void Coordinator::report_tpc(int rank, bool parked) {
  common::MutexLock lock(mutex_);
  if (phase_ != CkptPhase::kDrain) return;
  ranks_[static_cast<std::size_t>(rank)].parked = parked;
  maybe_enter_write_locked();
}

// ---- write / resume ---------------------------------------------------------------

bool Coordinator::try_unpark(int rank) {
  common::MutexLock lock(mutex_);
  if (phase_ == CkptPhase::kWrite) return false;
  ranks_[static_cast<std::size_t>(rank)].parked = false;
  return true;
}

void Coordinator::report_written(int rank) {
  common::MutexLock lock(mutex_);
  MANATEE_CHECK(phase_ == CkptPhase::kWrite, "report_written outside write phase");
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  MANATEE_CHECK(!state.written, "rank reported written twice");
  state.written = true;
  for (const auto& r : ranks_) {
    if (!r.written) return;
  }
  phase_ = CkptPhase::kIdle;
  ++completed_cycles_;
  if (switch_drain_ == SwitchDrainMode::kQuiesce && fabric_ != nullptr) {
    fabric_->switch_unit().resume();
  }
  LOG_DEBUG("coordinator: checkpoint cycle " << completed_cycles_ << " complete");
  wake_all_locked();
}

void Coordinator::report_done(int rank) {
  common::MutexLock lock(mutex_);
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  if (state.done) return;
  state.done = true;
  // Ranks parked in at_finalize wait for all-done or a phase change, so
  // only the last finisher wakes them. A drain needs no wakeup here: the
  // finishing rank's own finalize report drives write entry and the p2p
  // cascade.
  if (++done_count_ == world_size_) wake_all_locked();
}

bool Coordinator::all_done() const {
  common::MutexLock lock(mutex_);
  return done_count_ == world_size_;
}

std::vector<Coordinator::CycleStats> Coordinator::cycle_stats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

std::string Coordinator::debug_dump() const {
  common::MutexLock lock(mutex_);
  std::string out = "coordinator{phase=" + std::to_string(static_cast<int>(phase_)) +
                    " cycles=" + std::to_string(completed_cycles_) +
                    " tver=" + std::to_string(targets_version_) + "\n";
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    const auto& r = ranks_[i];
    out += "  rank " + std::to_string(i) + ": parked=" + std::to_string(r.parked) +
           " posted=" + std::to_string(r.seq_posted) +
           " sent=" + std::to_string(r.sent) + " recv=" + std::to_string(r.received) +
           " seen=" + std::to_string(r.seen_version) +
           " written=" + std::to_string(r.written) +
           " done=" + std::to_string(r.done) +
           " blocked_on=" + std::to_string(r.blocked_on);
    if (r.has_next) {
      out += " next=(" + std::to_string(r.next_ggid) + "," +
             std::to_string(r.next_seq) + ")";
    }
    out += "\n";
  }
  for (const auto& [cycle, forced] : forced_) {
    for (const auto& [g, t] : forced) {
      out += "  forced cycle " + std::to_string(cycle) + ": ggid=" +
             std::to_string(g) + " target=" + std::to_string(t) + "\n";
    }
  }
  for (const auto& [key, inst] : tpc_instances_) {
    out += "  tpc(" + std::to_string(key.first) + "," + std::to_string(key.second) +
           "): members=" + std::to_string(inst.members) +
           " entered=" + std::to_string(inst.entered) +
           " exec=" + std::to_string(inst.executing) +
           " done=" + std::to_string(inst.done) + "\n";
  }
  out += "}";
  return out;
}

}  // namespace manatee::ckpt
