// Pending-event set for the discrete-event simulator: a merge of sorted
// sources, ordered by (time, sequence number).
//
// Determinism contract: every pushed event gets a unique, monotonically
// increasing sequence number, so (time, seq) is a STRICT total order over
// all events that ever coexist in the queue. Any correct priority queue
// over a strict total order pops the exact same sequence — which is what
// lets the structure change (binary heap -> 4-ary heap -> merge of sorted
// sources) without perturbing simulation results by a single bit. The
// property tests in tests/event_queue_test.cpp check this equivalence
// against a std::priority_queue oracle; tests/sim_golden_test.cpp pins
// end-to-end results.
//
// Structure (DESIGN.md §9.2). Most worm events are pushed already in
// order, so the worm side keeps them in SOURCES — each a time-sorted
// sequence — and a 4-ary min-heap holds one entry per non-empty source:
// its head event. Three kinds of source:
//  - direct: a single event from push(); its heap entry IS the event;
//  - FIFO lane (push_lane): events whose times never decrease between
//    pushes, e.g. `now + d` for a fixed d while `now` never decreases.
//    Appending to a non-empty lane is O(1) and touches no heap entry;
//  - run (open_run / push_run / close_run): a short, time-sorted burst
//    pushed at once, e.g. a worm's channel releases and its completion.
// Popping a source head replaces the heap top with the source's next
// event and sifts it down; only a source that becomes empty leaves the
// heap. Sequence numbers are still assigned at push time, so every
// source is sorted by (time, seq) and the merge pops the exact global
// order. kGenerate events optionally get their own plain heap
// (enable_generate_lane), compared against the worm side at every pop.
//
// Layout: 16-byte packed entries {time, seq<<27 | tag}. Because seq
// occupies the high bits, comparing the packed word compares seq — the
// time tie-break costs ONE integer compare. An event's tag is
// kind<<24 | a; a source head's tag is 1<<26 | source id. Sifts hold the
// moving entry in registers and store it exactly once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"

namespace mcs::sim {

enum class EventKind : std::uint8_t {
  kGenerate,       ///< a = global node id
  kHeaderAdvance,  ///< a = worm id (header finished crossing a channel)
  kRelease,        ///< a = global channel id (tail crossed; free it)
  kWormDone        ///< a = worm id (tail fully at endpoint)
};

struct Event {
  double time;
  std::uint64_t seq;
  EventKind kind;
  std::int32_t a = -1;

  [[nodiscard]] bool after(const Event& other) const {
    // Branchless (time, seq) lexicographic compare: double comparisons in
    // the sift loops are data-dependent and mispredict badly as branches.
    return (time > other.time) |
           ((time == other.time) & (seq > other.seq));
  }
};

/// Deterministic operation counts of one EventQueue: pure functions of
/// the push/pop stream, so they are pinned exactly like results are.
struct EventQueueCounters {
  std::uint64_t generate_pushes = 0;  ///< into the generate lane
  std::uint64_t direct_pushes = 0;    ///< push() onto the worm side
  std::uint64_t lane_pushes = 0;      ///< push_lane()
  std::uint64_t run_pushes = 0;       ///< push_run()
  std::uint64_t pops = 0;
  std::uint64_t peak_size = 0;        ///< largest size() ever reached

  [[nodiscard]] bool operator==(const EventQueueCounters&) const = default;
};

class EventQueue {
 public:
  using LaneId = std::int32_t;

  /// Capacity hint: the expected number of concurrently pending
  /// worm-side events, reserved for the head heap and for run storage so
  /// a steady-state run allocates nothing. Purely an allocation hint,
  /// never observable in pop order.
  void reserve(std::size_t expected_events) {
    heads_.reserve(expected_events);
    run_pool_.reserve(expected_events);
    runs_.reserve(expected_events);
  }

  /// Route kGenerate events pushed with push() into their own heap. The
  /// traffic process keeps exactly one pending arrival per node — a
  /// large, slow-turnover population that would otherwise deepen every
  /// worm-event sift. pop() compares the two sides' tops, so the merged
  /// order is still exactly the global (time, seq) order. Call before
  /// any push.
  void enable_generate_lane(std::size_t expected_nodes) {
    MCS_EXPECTS(empty() && next_seq_ == 0);
    gen_lane_ = true;
    gen_.reserve(expected_nodes);
  }

  /// Largest event payload id that fits the packed layout. Producers
  /// validate their id spaces against this bound ONCE (engine: channel
  /// count and worm-pool growth; simulator: node count) so the hot push
  /// path only pays the semantic not-in-the-past check.
  static constexpr std::int32_t kMaxPayload = (1 << 24) - 1;

  /// Push one event as its own source (or into the generate lane).
  void push(double time, EventKind kind, std::int32_t a) {
    MCS_EXPECTS(time >= last_pop_time_);
    const Packed packed = make(time, kind, a);
    if (gen_lane_ && kind == EventKind::kGenerate) {
      ++counters_.generate_pushes;
      gen_.push_back(packed);
      sift_up(gen_, gen_.size() - 1);
    } else {
      heads_push(packed);
    }
  }

  /// Register `count` FIFO lanes; their ids are first, first + 1, ...
  LaneId add_lanes(std::size_t count) {
    const auto first = static_cast<LaneId>(lanes_.size());
    MCS_EXPECTS(lanes_.size() + count <= kRunFlag);
    lanes_.resize(lanes_.size() + count);
    for (std::size_t l = static_cast<std::size_t>(first); l < lanes_.size();
         ++l)
      lanes_[l].ring.resize(kLaneRing);
    return first;
  }

  /// Append to a lane. The lane must stay sorted: `time` may not precede
  /// the lane's last pending event (nor the last pop, if it is empty).
  void push_lane(LaneId lane, double time, EventKind kind, std::int32_t a) {
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    const std::size_t n = l.ring.size();
    MCS_EXPECTS(time >= (l.count == 0 ? last_pop_time_
                                      : l.ring[(l.head + l.count - 1) &
                                               (n - 1)].time));
    const Packed packed = make(time, kind, a);
    ++counters_.lane_pushes;
    if (l.count == n) grow(l);
    l.ring[(l.head + l.count) & (l.ring.size() - 1)] = packed;
    if (l.count++ == 0) heads_push(head_of(packed, static_cast<Source>(lane)));
  }

  /// Events one run may hold (push_run beyond it is a contract failure).
  /// Grows only; live runs are re-laid at the new capacity.
  void set_run_capacity(std::size_t events);

  /// Start a run. Until close_run() its events are pending but not yet
  /// visible to top()/pop().
  void open_run() {
    MCS_EXPECTS(open_slot_ == kNoRun && run_stride_ > 0);
    std::uint32_t slot = free_run_;
    if (slot != kNoRun) {
      free_run_ = runs_[slot].next;
    } else {
      slot = static_cast<std::uint32_t>(runs_.size());
      MCS_EXPECTS(slot < kRunFlag);
      runs_.emplace_back();
      run_pool_.resize(runs_.size() * run_stride_);
    }
    open_slot_ = slot;
    open_end_ = slot * run_stride_;
    open_limit_ = open_end_ + run_stride_;
    open_last_time_ = last_pop_time_;
  }

  /// Append to the open run; times must not decrease within a run.
  void push_run(double time, EventKind kind, std::int32_t a) {
    MCS_EXPECTS(open_end_ < open_limit_ && time >= open_last_time_);
    open_last_time_ = time;
    run_pool_[open_end_++] = make(time, kind, a);
  }

  /// Publish the open run (an empty run is simply dropped).
  void close_run() {
    MCS_EXPECTS(open_slot_ != kNoRun);
    const std::size_t begin = open_slot_ * run_stride_;
    counters_.run_pushes += open_end_ - begin;
    Run& run = runs_[open_slot_];
    run.next = static_cast<std::uint32_t>(begin);
    run.end = static_cast<std::uint32_t>(open_end_);
    if (open_end_ > begin) {
      heads_push(head_of(run_pool_[begin], kRunFlag | open_slot_));
    } else {
      free_slot(open_slot_);
    }
    open_slot_ = kNoRun;
    open_end_ = open_limit_ = 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Every pending event, in every source (open run included).
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] Event top() const {
    MCS_EXPECTS(!empty() && open_slot_ == kNoRun);
    if (gen_first()) return unpack(gen_.front());
    const Packed head = heads_.front();
    if ((head.meta & kSourceTag) == 0) return unpack(head);
    const Source src = static_cast<Source>(head.meta & kSourceMask);
    if (src & kRunFlag) return unpack(run_pool_[runs_[src & ~kRunFlag].next]);
    const Lane& l = lanes_[src];
    return unpack(l.ring[l.head]);
  }

  Event pop() {
    MCS_EXPECTS(!empty() && open_slot_ == kNoRun);
    counters_.peak_size = std::max<std::uint64_t>(counters_.peak_size, size_);
    --size_;
    Packed out;
    if (gen_first()) {
      out = gen_.front();
      gen_.front() = gen_.back();
      gen_.pop_back();
      if (!gen_.empty()) sift_down(gen_, 0);
    } else {
      out = heads_.front();
      if ((out.meta & kSourceTag) != 0)
        out = advance(static_cast<Source>(out.meta & kSourceMask));
      else
        heads_remove_top();
    }
    last_pop_time_ = out.time;
    return unpack(out);
  }

  [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

  /// Payload of the generate lane's earliest event: the node whose
  /// arrival pops next among kGenerate events. Read-only, so a producer
  /// can warm that node's state ahead of the pop. The lane must be
  /// enabled and non-empty.
  [[nodiscard]] std::int32_t generate_top() const {
    MCS_EXPECTS(!gen_.empty());
    return unpack(gen_.front()).a;
  }

  [[nodiscard]] EventQueueCounters counters() const {
    EventQueueCounters c = counters_;
    c.direct_pushes = next_seq_ - c.generate_pushes - c.lane_pushes -
                      c.run_pushes;
    c.pops = next_seq_ - size_;
    c.peak_size = std::max<std::uint64_t>(c.peak_size, size_);
    return c;
  }

 private:
  static constexpr int kABits = 24;   ///< payload id; see kMaxPayload
  static constexpr int kKindBits = 2;
  static constexpr int kSeqShift = kABits + kKindBits + 1;
  static constexpr std::uint64_t kSourceTag = std::uint64_t{1} << 26;
  static constexpr std::uint64_t kSourceMask = kSourceTag - 1;
  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kLaneRing = 16;  ///< initial lane capacity

  /// Source id in a head entry: a lane index, or kRunFlag | run slot.
  using Source = std::uint32_t;
  static constexpr Source kRunFlag = Source{1} << 25;
  static constexpr std::uint32_t kNoRun = ~std::uint32_t{0};

  /// meta = seq << 27 | tag. seq is unique, so meta order == seq order
  /// whenever times tie.
  struct Packed {
    double time;
    std::uint64_t meta;

    [[nodiscard]] bool after(const Packed& other) const {
      return (time > other.time) |
             ((time == other.time) & (meta > other.meta));
    }
  };

  /// Ring buffer; ring.size() is a power of two.
  struct Lane {
    std::vector<Packed> ring;
    std::size_t head = 0;
    std::size_t count = 0;
  };

  /// A published run: pending events are run_pool_[next, end). A free
  /// slot has end == kNoRun and links the next free slot through next.
  struct Run {
    std::uint32_t next = 0;
    std::uint32_t end = 0;
  };

  void free_slot(std::uint32_t slot) {
    runs_[slot] = Run{free_run_, kNoRun};
    free_run_ = slot;
  }

  Packed make(double time, EventKind kind, std::int32_t a) {
    // seq gets 64 - 27 = 37 bits in the packed word; wrapping would
    // silently break the tie-break total order, so fail loudly instead
    // (~1.4e11 events; a register compare + never-taken branch).
    MCS_EXPECTS(next_seq_ < (std::uint64_t{1} << (64 - kSeqShift)));
    ++size_;
    return Packed{time, (next_seq_++ << kSeqShift) |
                            (static_cast<std::uint64_t>(kind) << kABits) |
                            static_cast<std::uint64_t>(
                                static_cast<std::uint32_t>(a))};
  }

  static Packed head_of(const Packed& event, Source src) {
    return Packed{event.time,
                  (event.meta & ~((std::uint64_t{1} << kSeqShift) - 1)) |
                      kSourceTag | src};
  }

  static Event unpack(const Packed& p) {
    return Event{p.time, p.meta >> kSeqShift,
                 static_cast<EventKind>((p.meta >> kABits) & 0x3),
                 static_cast<std::int32_t>(p.meta & ((1u << kABits) - 1))};
  }

  /// Is the generate lane's top the next event?
  [[nodiscard]] bool gen_first() const {
    return !gen_.empty() &&
           (heads_.empty() || heads_.front().after(gen_.front()));
  }

  /// Pop the head event of source `src` (the heap top) and re-seat the
  /// source on its next event, or drop it when it ran dry.
  Packed advance(Source src) {
    Packed out;
    Packed next;
    bool more;
    if (src & kRunFlag) {
      Run& run = runs_[src & ~kRunFlag];
      out = run_pool_[run.next++];
      more = run.next != run.end;
      if (more)
        next = run_pool_[run.next];
      else
        free_slot(src & ~kRunFlag);
    } else {
      Lane& l = lanes_[src];
      out = l.ring[l.head];
      l.head = (l.head + 1) & (l.ring.size() - 1);
      more = --l.count != 0;
      if (more) next = l.ring[l.head];
    }
    if (more)
      heads_replace_top(head_of(next, src));
    else
      heads_remove_top();
    return out;
  }

  static void grow(Lane& l) {
    std::vector<Packed> ring(2 * l.ring.size());
    for (std::size_t i = 0; i < l.count; ++i)
      ring[i] = l.ring[(l.head + i) & (l.ring.size() - 1)];
    l.ring = std::move(ring);
    l.head = 0;
  }

  void heads_push(const Packed& entry) {
    heads_.push_back(entry);
    sift_up(heads_, heads_.size() - 1);
  }

  void heads_remove_top() {
    heads_.front() = heads_.back();
    heads_.pop_back();
    if (!heads_.empty()) sift_down(heads_, 0);
  }

  /// The top's source has a later head now: classic top-down sift with
  /// early exit — the successor of a popped head usually stays high.
  void heads_replace_top(const Packed& entry) {
    const std::size_t n = heads_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t smallest = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (heads_[smallest].after(heads_[c])) smallest = c;
      if (!entry.after(heads_[smallest])) break;
      heads_[i] = heads_[smallest];
      i = smallest;
    }
    heads_[i] = entry;
  }

  static void sift_up(std::vector<Packed>& heap, std::size_t i) {
    const Packed moving = heap[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!heap[parent].after(moving)) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = moving;
  }

  // Bottom-up ("bounce") sift-down: walk the min-child path all the way
  // to a leaf WITHOUT comparing against the moving entry, then sift the
  // mover back up from there. The mover is the old back-of-heap element,
  // which almost always belongs at a leaf — so the per-level mover
  // comparison of the classic loop is wasted work, and the up-phase
  // usually terminates after a single compare.
  static void sift_down(std::vector<Packed>& heap, std::size_t i) {
    const std::size_t n = heap.size();
    const Packed moving = heap[i];
    // Down: pull the smallest child up into the hole, to a leaf.
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t smallest = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (heap[smallest].after(heap[c])) smallest = c;
      heap[i] = heap[smallest];
      i = smallest;
    }
    // Up: the hole is at a leaf; float the mover to its true slot.
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!heap[parent].after(moving)) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = moving;
  }

  std::vector<Packed> heads_;  ///< one entry per non-empty worm-side source
  std::vector<Packed> gen_;    ///< kGenerate events (own heap when enabled)
  std::vector<Lane> lanes_;
  std::vector<Packed> run_pool_;  ///< run slot s = [s*stride, (s+1)*stride)
  std::vector<Run> runs_;
  std::uint32_t free_run_ = kNoRun;  ///< head of the free-slot list
  std::size_t run_stride_ = 0;
  std::uint32_t open_slot_ = kNoRun;
  std::size_t open_end_ = 0;
  std::size_t open_limit_ = 0;
  double open_last_time_ = 0.0;
  bool gen_lane_ = false;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  double last_pop_time_ = 0.0;
  EventQueueCounters counters_;
};

inline void EventQueue::set_run_capacity(std::size_t events) {
  MCS_EXPECTS(open_slot_ == kNoRun);
  if (events <= run_stride_) return;
  std::vector<Packed> pool(runs_.size() * events);
  for (std::size_t s = 0; s < runs_.size(); ++s) {
    Run& run = runs_[s];
    if (run.end == kNoRun) continue;  // free
    const std::size_t begin = s * events;
    std::copy(run_pool_.begin() + run.next, run_pool_.begin() + run.end,
              pool.begin() + static_cast<std::ptrdiff_t>(begin));
    run.end = static_cast<std::uint32_t>(begin + (run.end - run.next));
    run.next = static_cast<std::uint32_t>(begin);
  }
  run_pool_ = std::move(pool);
  run_stride_ = events;
}

}  // namespace mcs::sim
