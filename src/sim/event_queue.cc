#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace vb::sim {

namespace {
constexpr std::size_t kArity = 4;  // overflow-heap fan-out
}  // namespace

EventQueue::EventQueue()
    : wheel_(kWheelBuckets), occupied_(kWheelBuckets / 64, 0) {}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  // All existing slots are in use: grow by one chunk.  Chunks never move,
  // which is what lets run_top() execute callbacks in place.
  std::uint32_t base = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
  if (base + kChunkSize - 1 > kSlotMask) {
    throw std::length_error("EventQueue: too many pending events");
  }
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  // Hand out the chunk's first slot; queue the rest for later.
  for (std::uint32_t i = kChunkSize - 1; i > 0; --i) free_.push_back(base + i);
  return base;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.fn.reset();
  s.armed = false;
  ++s.gen;  // invalidates outstanding EventIds across reuse
  free_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= static_cast<std::uint32_t>(chunks_.size()) * kChunkSize) {
    return false;
  }
  Slot& s = slot_at(slot);
  if (!s.armed || s.gen != gen) return false;
  // Destroy the callback now; the slot stays reserved (not on the free
  // list) until its orphaned key surfaces at the drain cursor.
  s.fn.reset();
  s.armed = false;
  --live_;
  ++cancelled_;
  return true;
}

bool EventQueue::pending(EventId id) const {
  auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= static_cast<std::uint32_t>(chunks_.size()) * kChunkSize) {
    return false;
  }
  const Slot& s = slot_at(slot);
  return s.armed && s.gen == gen;
}

SimTime EventQueue::event_time(EventId id) const {
  if (!pending(id)) {
    throw std::logic_error("EventQueue::event_time: id not pending");
  }
  return slot_at(static_cast<std::uint32_t>(id & 0xFFFFFFFFu)).time;
}

std::uint64_t EventQueue::event_seq(EventId id) const {
  if (!pending(id)) {
    throw std::logic_error("EventQueue::event_seq: id not pending");
  }
  return slot_at(static_cast<std::uint32_t>(id & 0xFFFFFFFFu)).seq;
}

void EventQueue::clear_pending() {
  for (auto& chunk : chunks_) {
    for (std::uint32_t i = 0; i < kChunkSize; ++i) {
      Slot& s = chunk[i];
      s.fn.reset();
      s.armed = false;
      ++s.gen;  // invalidates every outstanding EventId
    }
  }
  // Rebuild the free list so pops hand out ascending slot indices.  (Slot
  // choice never affects drain order: restored keys carry unique seqs, so
  // the slot bits in a key are never the deciding comparison.)
  free_.clear();
  for (std::uint32_t i =
           static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
       i-- > 0;) {
    free_.push_back(i);
  }
  run_.clear();
  run_idx_ = 0;
  for (auto& bucket : wheel_) bucket.clear();
  std::fill(occupied_.begin(), occupied_.end(), 0);
  wheel_count_ = 0;
  cur_vb_ = 0;
  width_ = kInitialWidth;
  overflow_.clear();
  live_ = 0;
  drained_keys_ = 0;
  tune_time_ = 0.0;
  tune_drained_ = 0;
}

void EventQueue::place_key(HeapKey k) {
  const SimTime t = time_of(k);
  if (run_idx_ == run_.size() && wheel_count_ == 0 && overflow_.empty()) {
    // No keys anywhere: re-anchor the window at this event so an idle
    // period (or a drained queue in a test) cannot strand the cursor in
    // the past and force a bucket-by-bucket catch-up scan.
    run_.clear();
    run_idx_ = 0;
    cur_vb_ = vb_of(t);
    run_.push_back(k);
    return;
  }
  std::int64_t v = vb_of(t);
  if (v <= cur_vb_) {
    // At or before the bucket being drained: keep the run sorted.  Never
    // ahead of the cursor — an already-executed position is never revisited.
    // If the run has grown far past a healthy bucket, re-bin its tail first
    // so this insert (and the ones behind it) stay O(bucket), not O(n).
    if (run_.size() - run_idx_ > kSpillAbove && spill_run()) {
      v = vb_of(t);  // the window moved; re-classify
    }
  }
  if (v <= cur_vb_) {
    auto it = std::upper_bound(
        run_.begin() + static_cast<std::ptrdiff_t>(run_idx_), run_.end(), k);
    run_.insert(it, k);
  } else if (v - cur_vb_ < static_cast<std::int64_t>(kWheelBuckets)) {
    const std::size_t b = static_cast<std::size_t>(v) & kWheelMask;
    wheel_[b].push_back(k);
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++wheel_count_;
  } else {
    ovf_push(k);
  }
}

std::int64_t EventQueue::next_occupied_vb() const {
  // Cyclic scan of the occupancy bitmap starting just past the current
  // bucket.  Window keys satisfy cur_vb_ < vb < cur_vb_ + kWheelBuckets, so
  // the cyclic slot distance is exactly the vb distance.
  constexpr std::size_t kWords = kWheelBuckets / 64;
  const std::size_t cur_slot = static_cast<std::size_t>(cur_vb_) & kWheelMask;
  const std::size_t start = (cur_slot + 1) & kWheelMask;
  std::size_t w = start >> 6;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (word != 0) {
      const std::size_t found =
          (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
      const std::size_t delta = (found - cur_slot) & kWheelMask;
      return cur_vb_ + static_cast<std::int64_t>(delta);
    }
    w = (w + 1) & (kWords - 1);
    word = occupied_[w];
  }
  throw std::logic_error("EventQueue: occupancy bitmap out of sync");
}

void EventQueue::refill_run() {
  run_.clear();
  run_idx_ = 0;
  if (wheel_count_ == 0 && overflow_.empty()) {
    throw std::logic_error("EventQueue: refill with no keys left");
  }
  // Advance to the earliest populated source: the next occupied wheel
  // bucket or the overflow minimum, whichever bins earlier.  (An overflow
  // key can bin at or before cur_vb_ after a width change; max() keeps the
  // window from moving backwards.)
  std::int64_t next_vb;
  if (wheel_count_ == 0) {
    next_vb = vb_of(time_of(overflow_.front()));
  } else {
    next_vb = next_occupied_vb();
    if (!overflow_.empty()) {
      next_vb = std::min(next_vb, vb_of(time_of(overflow_.front())));
    }
  }
  cur_vb_ = std::max(cur_vb_, next_vb);

  auto& bucket = wheel_[static_cast<std::size_t>(cur_vb_) & kWheelMask];
  if (!bucket.empty()) {
    wheel_count_ -= bucket.size();
    const std::size_t b = static_cast<std::size_t>(cur_vb_) & kWheelMask;
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    run_.swap(bucket);  // swap recycles vector capacity both ways
  }
  while (!overflow_.empty() && vb_of(time_of(overflow_.front())) <= cur_vb_) {
    run_.push_back(ovf_pop());
  }
  // Fast path: a bucket narrower than the event grid holds equal-time keys,
  // which arrive in seq order — already sorted.  Checking costs one linear
  // scan (it fails within a few compares on genuinely shuffled buckets).
  if (!std::is_sorted(run_.begin(), run_.end())) {
    std::sort(run_.begin(), run_.end());
  }

  // Self-tuning: a fat bucket means the width is too coarse for the current
  // event density — narrow it so buckets stay around kTargetBucket keys and
  // pushes land in future buckets instead of sorted-inserting into the run.
  // The gap estimate is the *global* drain rate since the last check, never
  // one bucket's internal span: a pile-up of near-equal timestamps (events
  // snapped to a tick grid, FP-jittered sums) would estimate a microscopic
  // gap and collapse the width for good, even though no width can split
  // equal times — they drain FIFO from one bucket regardless.
  // Deterministic: depends only on event timestamps, never on wall clock.
  if (run_.size() > kRetuneAbove) {
    const double t_now = time_of(run_.front());
    const std::uint64_t n = drained_keys_ - tune_drained_;
    if (n > 0 && t_now > tune_time_) {
      const double proposed =
          ((t_now - tune_time_) / static_cast<double>(n)) *
          static_cast<double>(kTargetBucket);
      // 2x hysteresis in both directions: noisy estimates must not ratchet
      // the width (each small shrink pushes more keys into overflow, whose
      // migration inflates the next drain-rate sample — a feedback loop).
      if (proposed < width_ * 0.5 || proposed > width_ * 2.0) retune(proposed);
    }
    tune_time_ = t_now;
    tune_drained_ = drained_keys_;
  }
}

void EventQueue::retune(double new_width) {
  new_width = std::max(new_width, kMinWidth);
  if (new_width == width_) return;
  // The run is already in final order whatever the width; re-anchor the
  // window at its last key and re-bin the wheel.  Every overflow key must
  // stay beyond the re-anchored current bucket: one binned at or before it
  // would surface only at the next refill, after keys pushed into the run
  // later had already run.  A width that would swallow the earliest
  // overflow key is refused (the next fat bucket tries again).  Moving
  // such keys into the run instead makes one wide, fat run whose sorted
  // inserts cost O(run) each — a burst arriving after an idle gap is
  // exactly when the drain-rate estimate proposes the widest buckets.
  const double old_width = width_;
  width_ = new_width;
  const std::int64_t anchor = vb_of(time_of(run_.back()));
  if (!overflow_.empty() && vb_of(time_of(overflow_.front())) <= anchor) {
    width_ = old_width;
    return;
  }
  cur_vb_ = anchor;
  std::vector<HeapKey> rebin;
  rebin.reserve(wheel_count_);
  if (wheel_count_ > 0) {
    for (auto& bucket : wheel_) {
      rebin.insert(rebin.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
  }
  std::fill(occupied_.begin(), occupied_.end(), 0);
  wheel_count_ = 0;
  for (HeapKey k : rebin) place_key(k);
}

bool EventQueue::spill_run() {
  const std::int64_t lo = vb_of(time_of(run_[run_idx_]));
  if (lo == cur_vb_ && vb_of(time_of(run_.back())) == cur_vb_) {
    return false;  // one equal-time cluster: re-binning cannot spread it
  }
  std::vector<HeapKey> rebin(
      run_.begin() + static_cast<std::ptrdiff_t>(run_idx_), run_.end());
  run_.clear();
  run_idx_ = 0;
  // Moving the anchor down shifts the whole window, so wheel keys must be
  // re-binned too: under the lower anchor, a key beyond the new horizon
  // would share a slot with a key one wheel-revolution earlier and drain
  // out of order.
  if (wheel_count_ > 0) {
    rebin.reserve(rebin.size() + wheel_count_);
    for (auto& bucket : wheel_) {
      rebin.insert(rebin.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    std::fill(occupied_.begin(), occupied_.end(), 0);
    wheel_count_ = 0;
  }
  cur_vb_ = lo;
  // The run tail is sorted, so keys staying in the run append in O(1) each;
  // the rest spread into wheel buckets (or overflow) under the new anchor.
  for (HeapKey k : rebin) place_key(k);
  return true;
}

void EventQueue::ensure_live_front() {
  for (;;) {
    while (run_idx_ < run_.size()) {
      const std::uint32_t slot = slot_of(run_[run_idx_]);
      if (slot_at(slot).armed) return;
      release_slot(slot);  // lazily drop a cancelled entry
      ++run_idx_;
      ++drained_keys_;
    }
    refill_run();  // live_ > 0 guarantees keys remain somewhere
  }
}

SimTime EventQueue::next_time() {
  if (live_ == 0) throw std::logic_error("EventQueue::next_time: empty");
  ensure_live_front();
  return time_of(run_[run_idx_]);
}

SimTime EventQueue::run_top() {
  if (live_ == 0) throw std::logic_error("EventQueue::run_top: empty");
  ensure_live_front();
  const HeapKey top = run_[run_idx_];
  // Advance the cursor before running: the callback may push events (which
  // insert at or after the cursor) or cancel others, never disturbing an
  // already-consumed position.
  ++run_idx_;
  ++drained_keys_;
  // Start pulling the *next* event's cold closure while this one runs.
  if (run_idx_ < run_.size()) prefetch_slot(slot_of(run_[run_idx_]));
  const std::uint32_t slot = slot_of(top);
  Slot& s = slot_at(slot);
  s.armed = false;  // a self-cancel during execution is now a no-op
  --live_;
  s.fn();  // in place: chunks are stable under pushes from the callback
  release_slot(slot);
  return time_of(top);
}

Event EventQueue::pop() {
  if (live_ == 0) throw std::logic_error("EventQueue::pop: empty");
  ensure_live_front();
  const HeapKey top = run_[run_idx_];
  ++run_idx_;
  ++drained_keys_;
  const std::uint32_t slot = slot_of(top);
  Slot& s = slot_at(slot);
  Event e{time_of(top), seq_of(top), std::move(s.fn)};
  --live_;
  release_slot(slot);
  return e;
}

void EventQueue::ovf_push(HeapKey k) {
  overflow_.push_back(k);
  std::size_t i = overflow_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(k < overflow_[parent])) break;
    overflow_[i] = overflow_[parent];
    i = parent;
  }
  overflow_[i] = k;
}

EventQueue::HeapKey EventQueue::ovf_pop() {
  const HeapKey top = overflow_.front();
  overflow_.front() = overflow_.back();
  overflow_.pop_back();
  if (!overflow_.empty()) ovf_sift_down(0);
  return top;
}

void EventQueue::ovf_sift_down(std::size_t i) {
  // Pairwise min tournament of single-instruction 128-bit compares; the
  // compiler keeps it branch-free, avoiding data-dependent mispredicts on
  // essentially random keys down the dependent chain.
  const std::size_t n = overflow_.size();
  const HeapKey item = overflow_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first + kArity <= n) {
      const HeapKey k0 = overflow_[first];
      const HeapKey k1 = overflow_[first + 1];
      const HeapKey k2 = overflow_[first + 2];
      const HeapKey k3 = overflow_[first + 3];
      const std::size_t b01 = k1 < k0 ? first + 1 : first;
      const HeapKey v01 = k1 < k0 ? k1 : k0;
      const std::size_t b23 = k3 < k2 ? first + 3 : first + 2;
      const HeapKey v23 = k3 < k2 ? k3 : k2;
      const std::size_t best = v23 < v01 ? b23 : b01;
      const HeapKey vbest = v23 < v01 ? v23 : v01;
      if (!(vbest < item)) break;
      overflow_[i] = vbest;
      i = best;
    } else {
      if (first >= n) break;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (overflow_[c] < overflow_[best]) best = c;
      }
      if (!(overflow_[best] < item)) break;
      overflow_[i] = overflow_[best];
      i = best;
    }
  }
  overflow_[i] = item;
}

}  // namespace vb::sim
