// Priority queue of timestamped events for the discrete-event simulator.
//
// Events with equal timestamps fire in insertion order (FIFO), which keeps
// simulations deterministic regardless of internal layout.
//
// Layout: ordering and callbacks are separated.
//
// Ordering uses a calendar-queue structure (the classic discrete-event
// pending-set design): each event's (time, seq) is packed into one 128-bit
// key and binned into a timing wheel of `width_`-second buckets.  Pushes
// append to a bucket in O(1); draining sorts one small bucket at a time into
// a sorted "run" and pops sequentially.  Keys beyond the wheel horizon go
// to an overflow 4-ary min-heap and migrate into the wheel as it advances.
// Because buckets partition time and keys order totally, drain order equals
// global (time, seq) order — bit-for-bit, whatever the bucket width.  The
// width self-tunes (deterministically, from event times only) so buckets
// stay small; a hot simulation never touches the O(log n) heap at all.
//
// Callbacks live in a chunked slab of recycled slots whose UniqueFunction
// storage keeps closures up to 128 bytes inline; chunks never move, so
// run_top() executes a callback in place even while the callback schedules
// new events.  Steady-state operation performs no per-event heap allocation.
//
// Cancellation is O(1): an EventId carries the slot and a generation
// counter; cancel destroys the callback immediately and the orphaned key is
// dropped lazily when it surfaces at the drain cursor.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/unique_function.h"

namespace vb::sim {

/// Simulated time in seconds.  Double precision is ample: the longest
/// experiment in the paper runs 75 simulated minutes, far below the ~2^53
/// representable integer seconds.
using SimTime = double;

/// Event callback: move-only, 128 bytes of inline closure storage (enough
/// for the overlay transport's largest capture, a RouteMsg in flight).
using EventFn = UniqueFunction<void()>;

/// Ticket for a scheduled event; pass to EventQueue::cancel.  Value 0 is
/// never issued and acts as "no event".
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// One scheduled callback, as handed out by pop().
struct Event {
  SimTime time;
  std::uint64_t seq;  // tie-breaker: FIFO among equal timestamps
  EventFn action;
};

/// Pending-event set ordered by (time, seq), with O(1) cancellation.
class EventQueue {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `action` to fire at absolute time `t` (t >= 0); returns a
  /// ticket that stays valid until the event fires or is cancelled.
  /// Templated so the closure is constructed once, directly in its slab
  /// slot — no intermediate EventFn materialization or second 128-byte move.
  template <class F>
  EventId push(SimTime t, F&& action) {
    std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    s.fn = std::forward<F>(action);  // in-place construct (or move)
    s.armed = true;
    s.time = t;
    s.seq = next_seq_;
    place_key(make_key(t, next_seq_, slot));
    ++next_seq_;
    ++live_;
    return (static_cast<EventId>(s.gen) << 32) | slot;
  }

  /// Checkpoint-restore path: enqueues `action` with an explicit (time, seq)
  /// pair captured from a previous run, re-creating that run's FIFO
  /// tie-breaking exactly.  Does not advance the seq counter; the caller
  /// restores it afterwards via restore_counters().
  template <class F>
  EventId push_with_seq(SimTime t, std::uint64_t seq, F&& action) {
    std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    s.fn = std::forward<F>(action);
    s.armed = true;
    s.time = t;
    s.seq = seq;
    place_key(make_key(t, seq, slot));
    ++live_;
    return (static_cast<EventId>(s.gen) << 32) | slot;
  }

  /// Cancels a pending event.  Returns true if it was still pending (the
  /// callback is destroyed immediately); false if it already fired, was
  /// already cancelled, or the id is invalid.  O(1).
  bool cancel(EventId id);

  /// True if `id` refers to an event that has not yet fired or been
  /// cancelled.
  bool pending(EventId id) const;

  /// True if no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (pending, uncancelled) events.
  std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event; queue must be non-empty.
  /// (Non-const: may lazily drop cancelled entries and advance the wheel.)
  SimTime next_time();

  /// Executes the earliest live event in place — no closure move on the pop
  /// side — and removes it.  Queue must be non-empty.  The callback may
  /// push further events and cancel others (including, harmlessly, itself).
  /// Returns the executed event's timestamp.
  SimTime run_top();

  /// Removes and returns the earliest live event; queue must be non-empty.
  /// run_top() is the faster path for driving a simulation; pop() hands the
  /// callback out for callers that need to hold it.
  Event pop();

  /// Total number of events ever enqueued (for overhead accounting).
  std::uint64_t total_pushed() const { return next_seq_; }

  /// Total number of events cancelled before firing.
  std::uint64_t total_cancelled() const { return cancelled_; }

  /// Fire time of a pending event (checkpoint bookkeeping).  `id` must be
  /// pending (see pending()); throws otherwise.
  SimTime event_time(EventId id) const;

  /// FIFO tie-break seq of a pending event.  `id` must be pending.
  std::uint64_t event_seq(EventId id) const;

  /// Checkpoint restore: overwrites the push/cancel counters with values
  /// captured from a previous run, after the pending set has been rebuilt
  /// with push_with_seq().
  void restore_counters(std::uint64_t next_seq, std::uint64_t cancelled) {
    next_seq_ = next_seq;
    cancelled_ = cancelled;
  }

  /// Destroys every pending callback and resets the ordering structures to
  /// an empty state (counters are left for restore_counters()).  All
  /// outstanding EventIds are invalidated.  Used by checkpoint restore to
  /// discard the reconstruction's events before re-pushing the serialized
  /// pending set.
  void clear_pending();

 private:
  // Key: one 128-bit integer, high half the event time's IEEE-754 bit
  // pattern, low half (seq << kSlotBits) | slot.  Simulated time is never
  // negative, so the bit pattern of the double orders exactly like the
  // double itself, and seq is unique and monotonic, so a single integer
  // comparison yields the full (time, FIFO) order — and it compiles
  // branch-free (cmp/sbb + cmov), which matters in sort/sift compare loops
  // over essentially random keys.
  static_assert(sizeof(void*) == 8, "EventQueue assumes a 64-bit target");
  using HeapKey = unsigned __int128;  // gcc/clang builtin (this repo's toolchain)

  static constexpr std::uint32_t kSlotBits = 24;  // <= 16.7M pending events
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  static constexpr std::uint32_t kWheelBuckets = 4096;  // power of two
  static constexpr std::uint32_t kWheelMask = kWheelBuckets - 1;
  static constexpr std::size_t kTargetBucket = 8;    // retune aims here
  static constexpr std::size_t kRetuneAbove = 64;    // drained-bucket trigger
  static constexpr std::size_t kSpillAbove = 256;    // run-insert spill trigger
  static constexpr double kInitialWidth = 1e-3;      // seconds per bucket
  static constexpr double kMinWidth = 1e-9;          // keeps vb in int64 range
  static constexpr std::int64_t kFarFuture = std::int64_t{1} << 62;

  static HeapKey make_key(SimTime t, std::uint64_t seq, std::uint32_t slot) {
    const auto tb = std::bit_cast<std::uint64_t>(t);
    return (static_cast<HeapKey>(tb) << 64) | ((seq << kSlotBits) | slot);
  }
  static SimTime time_of(HeapKey k) {
    return std::bit_cast<SimTime>(static_cast<std::uint64_t>(k >> 64));
  }
  static std::uint32_t slot_of(HeapKey k) {
    return static_cast<std::uint32_t>(k) & kSlotMask;
  }
  static std::uint64_t seq_of(HeapKey k) {
    return static_cast<std::uint64_t>(k) >> kSlotBits;
  }

  // Slab slot owning one pending callback.  A slot is bound to exactly one
  // key for its whole pending lifetime (slots are recycled only when their
  // key leaves the wheel/run/overflow), so keys need no generation tag;
  // `gen` validates EventId tickets across reuse.
  struct Slot {
    EventFn fn;
    SimTime time = 0.0;     // fire time, valid while armed (ckpt bookkeeping)
    std::uint64_t seq = 0;  // FIFO tie-break, valid while armed
    std::uint32_t gen = 1;
    bool armed = false;
  };

  Slot& slot_at(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  const Slot& slot_at(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  /// Virtual bucket number of time `t` under the current width.  The single
  /// canonical binning function — every placement and migration decision
  /// goes through it so classifications can never disagree.  Saturates at
  /// kFarFuture for times too large for the division to index safely.
  std::int64_t vb_of(SimTime t) const {
    double q = t / width_;
    if (q >= static_cast<double>(kFarFuture)) return kFarFuture;
    return static_cast<std::int64_t>(q);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Routes a key to the sorted run (vb <= cur_vb_), its wheel bucket
  /// (within the horizon), or the overflow heap (beyond it).
  void place_key(HeapKey k);
  /// Refills the run from the next non-empty bucket and any overflow keys
  /// that have come due.  Precondition: run exhausted, live_ > 0 possible
  /// only if keys remain somewhere.
  void refill_run();
  /// Re-bins every wheel key under a new bucket width (run and overflow are
  /// width-independent).  Refuses a width whose re-anchored current bucket
  /// would cover the earliest overflow key.  Called when a drained bucket
  /// was too big.
  void retune(double new_width);
  /// Re-anchors the window at the earliest pending key and re-bins the
  /// run's undrained tail into the wheel.  Returns false (and does
  /// nothing) if the tail is a single-bucket cluster that re-binning
  /// cannot spread.  Called when sorted inserts into an oversized run
  /// threaten O(n) per push — e.g. a bulk load that anchored mid-range.
  bool spill_run();
  /// Establishes: run_[run_idx_] exists and is armed.  live_ must be > 0.
  void ensure_live_front();
  std::int64_t next_occupied_vb() const;  // wheel_count_ > 0 required

  void ovf_push(HeapKey k);
  HeapKey ovf_pop();
  void ovf_sift_down(std::size_t i);

  // Sorted ascending; run_idx_ is the drain cursor.  Holds every key with
  // vb <= cur_vb_.  Pushes landing at or before the current bucket insert
  // in order (rare: the width tuner keeps buckets narrower than typical
  // event lead times).
  std::vector<HeapKey> run_;
  std::size_t run_idx_ = 0;
  std::vector<std::vector<HeapKey>> wheel_;   // kWheelBuckets unsorted bins
  std::vector<std::uint64_t> occupied_;       // one bit per bucket
  std::size_t wheel_count_ = 0;               // keys currently in the wheel
  std::int64_t cur_vb_ = 0;                   // run covers vb <= cur_vb_
  double width_ = kInitialWidth;              // seconds per bucket
  std::vector<HeapKey> overflow_;             // 4-ary min-heap, vb beyond wheel

  std::vector<std::unique_ptr<Slot[]>> chunks_;  // stable callback slab
  std::vector<std::uint32_t> free_;              // recyclable slot indices
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancelled_ = 0;

  // Width-tuner state: estimates the global inter-event gap as (sim time
  // advanced) / (keys drained) between retune checks.  A windowed global
  // rate, not a per-bucket span — one pile-up of near-equal timestamps
  // must not collapse the width.
  std::uint64_t drained_keys_ = 0;  // keys consumed from the run, ever
  double tune_time_ = 0.0;          // drain front at the last retune check
  std::uint64_t tune_drained_ = 0;  // drained_keys_ at the last retune check

  /// Starts pulling a slot's cache lines (the slot header and its closure
  /// storage) so they arrive while other work overlaps.  A pending event's
  /// closure was written when it was scheduled — often millions of events
  /// ago — so it is cold by the time it surfaces.
  void prefetch_slot(std::uint32_t slot) const {
#if defined(__GNUC__) || defined(__clang__)
    const char* p = reinterpret_cast<const char*>(&slot_at(slot));
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);
    __builtin_prefetch(p + 128);
#else
    (void)slot;
#endif
  }
};

}  // namespace vb::sim
