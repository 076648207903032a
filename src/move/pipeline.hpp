// DoubleBufferPipeline<Buf> — the reusable read/compute/write-back overlap
// primitive (Sec. 5.2.2 / 6.2).
//
// Two buffers ping-pong so that while item c computes, item c+1's reads and
// item c-1's write-backs are in flight. The NVMe optimizer runs one
// pipeline per step over its rank's whole flat state, each item a chunk
// that may span several parameters. The pipeline owns the two invariants
// every hand-rolled chunk loop had to re-derive:
//
//   * reuse safety — the buffer about to receive item c+1 last carried item
//     c-1; its write-backs are drained (wait_store) before issue_load may
//     overwrite it;
//   * quiescence — unwinding with I/O in flight would free the buffers
//     under the async workers, so every exit path (normal or exceptional)
//     waits out all loads and stores first; errors during exceptional
//     quiescence are swallowed (the original failure is already unwinding).
//     A stage that waits several handles must wait every one of them even
//     when one throws (move/data_mover.hpp's wait_all), or the rethrow
//     would leave the rest in flight.
//
// With overlap disabled the same loop degenerates to sequential
// load → compute → store (the ablation baseline), keeping trajectories
// bit-identical either way.
#pragma once

#include <array>
#include <cstdint>

namespace zi {

template <typename Buf>
class DoubleBufferPipeline {
 public:
  std::array<Buf, 2>& buffers() noexcept { return bufs_; }
  Buf& buffer(int i) noexcept { return bufs_[static_cast<std::size_t>(i)]; }

  /// Run items [0, num_items) through the stage callbacks:
  ///   issue_load(i, buf)  — start the item's async reads into buf;
  ///   wait_load(buf)      — block until buf's reads have landed;
  ///   compute(i, buf)     — process the item (may start async stores);
  ///   wait_store(buf)     — block until buf's stores have landed.
  /// Callbacks may throw; the pipeline quiesces and rethrows.
  template <typename IssueLoad, typename WaitLoad, typename Compute,
            typename WaitStore>
  void run(std::int64_t num_items, bool overlap, IssueLoad&& issue_load,
           WaitLoad&& wait_load, Compute&& compute, WaitStore&& wait_store) {
    if (num_items <= 0) return;
    auto quiesce = [&]() noexcept {
      for (Buf& b : bufs_) {
        try {
          wait_load(b);
        } catch (...) {
        }
        try {
          wait_store(b);
        } catch (...) {
        }
      }
    };
    try {
      if (overlap) issue_load(0, bufs_[0]);
      for (std::int64_t c = 0; c < num_items; ++c) {
        Buf& b = bufs_[static_cast<std::size_t>(c % 2)];
        if (!overlap) {
          // Sequential mode: each item's load is issued right before it is
          // consumed (its previous occupant's stores drained at the end of
          // that item's iteration).
          issue_load(c, b);
        } else if (c + 1 < num_items) {
          // Reuse safety: the buffer receiving item c+1 last carried item
          // c-1; drain its write-backs before overwriting it.
          Buf& next = bufs_[static_cast<std::size_t>((c + 1) % 2)];
          wait_store(next);
          issue_load(c + 1, next);
        }
        wait_load(b);
        compute(c, b);
        if (!overlap) wait_store(b);
      }
    } catch (...) {
      quiesce();
      throw;
    }
    // Normal exit: every load was consumed in-loop; the last two items'
    // stores may still be in flight.
    wait_store(bufs_[0]);
    wait_store(bufs_[1]);
  }

 private:
  std::array<Buf, 2> bufs_{};
};

}  // namespace zi
