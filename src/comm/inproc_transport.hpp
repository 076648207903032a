// In-process transport backend: the paper's data-parallel processes become
// threads of one process exchanging buffer pointers through shared memory.
// This is the deterministic default every unit test runs on — collectives
// are zero-copy (publish() stores a pointer, peers read through it), and the
// abortable-barrier / poison-tree machinery lives here.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/world.hpp"
#include "common/thread_annotations.hpp"

namespace zi::detail {

/// One directional buffered channel (sender, receiver) for point-to-point
/// messages. Own mutex/cv per channel so unrelated pairs never contend.
struct P2pChannel {
  Mutex mutex;
  CondVar cv;
  std::deque<P2pMessage> queue ZI_GUARDED_BY(mutex);
  std::size_t queued_bytes ZI_GUARDED_BY(mutex) = 0;
};

/// Reusable epoch-counting barrier that can be poisoned: every current and
/// future waiter returns kPoisoned instead of blocking forever. With a
/// timeout, a waiter that exceeds it returns kTimeout and names the suspect
/// (the non-arrived member with the oldest heartbeat). Ticked waits wake
/// every kWaitSlice to refresh the waiter's own heartbeat.
///
/// A waiter first spins for kSpinBudget on the atomic release epoch and
/// poison flag, then parks on the condvar; the last arriver notifies only
/// when someone parked. Groups larger than the host's hardware threads skip
/// the spin and park straight from arrival, so oversubscribed ranks never
/// burn a peer's CPU.
class AbortableBarrier {
 public:
  /// How long a waiter spins before it parks. Ranks in step arrive µs
  /// apart, and a futex wake-up costs more than that; 100 µs beat 10, 25
  /// and 50 on the serving and compute-bound training benchmarks.
  static constexpr std::chrono::microseconds kSpinBudget{100};

  AbortableBarrier(int num_ranks, WorldHealth* health,
                   const std::vector<int>* global_ranks);

  /// `last_out` (optional) is set to whether this member's arrival
  /// released the round.
  WaitOutcome arrive_and_wait(int member, int global_rank, double timeout_ms,
                              bool ticked, int* suspect_global,
                              std::uint64_t* epoch_out, bool* last_out);
  void poison();
  std::uint64_t epoch() const;
  /// Waits that outlasted the spin and parked on the condvar.
  std::uint64_t parks() const;

 private:
  const int num_ranks_;
  WorldHealth* const health_;
  const std::vector<int>* const global_ranks_;
  const bool spin_;  ///< num_ranks_ <= std::thread::hardware_concurrency()

  mutable Mutex mutex_;
  CondVar cv_;
  int arrived_ ZI_GUARDED_BY(mutex_) = 0;
  /// Waiters parked on cv_; the last arriver notifies only when nonzero.
  int parked_ ZI_GUARDED_BY(mutex_) = 0;
  std::uint64_t parks_ ZI_GUARDED_BY(mutex_) = 0;
  /// Rounds released so far (the epoch). Written only under mutex_, by the
  /// last arriver with release order; spinning waiters read it unlocked.
  std::atomic<std::uint64_t> released_{0};
  /// Set under mutex_ by poison(); spinning waiters read it unlocked.
  std::atomic<bool> poisoned_{false};
  /// arrived_round_[m] == epoch+1 iff member m has arrived this round —
  /// lets a timed-out waiter blame a member that is actually missing.
  std::vector<std::uint64_t> arrived_round_ ZI_GUARDED_BY(mutex_);
};

/// State shared by all rank threads of one group (root world or split()
/// subgroup): the pointer-exchange slots, the barrier, the p2p channel
/// matrix, and the registry of child subgroups (so poison reaches the whole
/// split tree).
struct WorldShared {
  /// Root world: global_ranks = identity.
  WorldShared(int n, const WorldOptions& opts);
  /// split() subgroup: shares the parent's health registry and options.
  WorldShared(int n, WorldShared* parent);

  const int num_ranks;
  WorldShared* const root;  ///< the top-level world (self if root)
  const WorldOptions options;
  std::shared_ptr<WorldHealth> health;  ///< shared across the split tree
  /// Member index -> root-world rank (identity for the root world). Filled
  /// by the creating rank before the subgroup is published.
  std::vector<int> global_ranks;

  AbortableBarrier sync;
  std::vector<const void*> src_ptrs;  ///< per-member published buffer
  std::vector<std::size_t> counts;    ///< per-member published element count
  std::vector<P2pChannel> channels;   ///< dense (from, to) matrix
  CommTraffic traffic;

  Mutex split_mutex;
  /// (split ordinal, color) -> subgroup. The ordinal distinguishes
  /// successive split() calls; lockstep collectives make it consistent.
  std::map<std::pair<int, int>, std::shared_ptr<WorldShared>> split_groups
      ZI_GUARDED_BY(split_mutex);

  /// Per-rank Communicator::set_result payloads; root instance only.
  Mutex results_mutex;
  std::vector<std::string> rank_results ZI_GUARDED_BY(results_mutex);

  P2pChannel& channel(int from, int to) {
    return channels[static_cast<std::size_t>(from) *
                        static_cast<std::size_t>(num_ranks) +
                    static_cast<std::size_t>(to)];
  }

  /// Timed (deadline-aware) waits are active whenever any detection is on.
  bool ticked_waits() const noexcept { return options.deadlines_enabled(); }

  void set_result(int global_rank, std::string payload);
  std::vector<std::string> take_results();

  /// Record nothing — just poison: flag + wake the entire split tree.
  void poison_world();
  void poison_tree();
};

/// Transport over one WorldShared, bound to one member rank.
class InprocTransport final : public Transport {
 public:
  InprocTransport(std::shared_ptr<WorldShared> shared, int member)
      : shared_(std::move(shared)),
        member_(member),
        global_(shared_->global_ranks[static_cast<std::size_t>(member)]) {}

  int size() const noexcept override { return shared_->num_ranks; }
  int global_rank_of(int member) const noexcept override {
    return shared_->global_ranks[static_cast<std::size_t>(member)];
  }
  const WorldOptions& options() const noexcept override {
    return shared_->options;
  }
  CommTraffic& traffic() noexcept override { return shared_->traffic; }
  bool out_of_process() const noexcept override { return false; }

  WorldHealth& health() noexcept override { return *shared_->health; }
  void beat() noexcept override { shared_->health->beat(global_); }
  bool poisoned() const noexcept override {
    return shared_->health->poisoned();
  }
  void fail_world(int culprit_global, WorldFailKind kind,
                  const std::string& what) override {
    shared_->health->record_failure(culprit_global, kind, what);
    shared_->poison_world();
  }

  void publish(const void* data, std::size_t bytes, std::size_t count) override;
  WaitOutcome sync(int* suspect_global, std::uint64_t* epoch_out,
                   bool* last_out) override;
  std::uint64_t epoch() const override { return shared_->sync.epoch(); }
  const void* peer_data(int member) const override {
    return shared_->src_ptrs[static_cast<std::size_t>(member)];
  }
  std::size_t peer_count(int member) const override {
    return shared_->counts[static_cast<std::size_t>(member)];
  }
  void* peer_data_mut(int member) override {
    // Peers published real mutable buffers; in-place allreduce writes back.
    return const_cast<void*>(
        shared_->src_ptrs[static_cast<std::size_t>(member)]);
  }
  void readback(void* data, std::size_t bytes) override {
    (void)data;
    (void)bytes;  // peers wrote into the caller's buffer directly
  }

  WaitOutcome p2p_send(int to_member, P2pMessage msg) override;
  WaitOutcome p2p_recv(int from_member, P2pMessage* out) override;

  std::shared_ptr<Transport> make_subgroup(int ordinal, int color,
                                           const std::vector<int>& members,
                                           int sub_rank) override;
  void set_result(std::string payload) override {
    shared_->set_result(global_, std::move(payload));
  }

 private:
  std::shared_ptr<WorldShared> shared_;
  const int member_;
  const int global_;  ///< root-world rank (what health slots are keyed by)
};

}  // namespace zi::detail
