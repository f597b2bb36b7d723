// The collection of Pastry nodes plus the simulated transport between them.
//
// All inter-node traffic flows through send_route / send_direct, which
// schedule delivery on the discrete-event simulator with a latency from the
// datacenter topology and charge per-sender message/byte counters (the raw
// data behind the paper's Fig. 15 overhead CDFs).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/format.h"
#include "net/topology.h"
#include "pastry/pastry_node.h"
#include "sim/fault_plan.h"
#include "sim/parallel_runner.h"
#include "sim/simulator.h"

namespace vb::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace vb::obs

namespace vb::pastry {

/// One fleet slot for bootstrap_bulk: a CA-assigned node id and the host it
/// runs on.  Ids must be unique; hosts must exist in the topology.
struct BulkFleetEntry {
  U128 id;
  net::HostId host = -1;
};

/// Per-node traffic counters, split by message category.
struct TrafficCounters {
  static constexpr int kCategories = 7;
  std::array<std::uint64_t, kCategories> msgs_sent{};
  std::array<std::uint64_t, kCategories> bytes_sent{};
  /// Messages this node sent that the fault plan destroyed in flight
  /// (loss or partition) / duplicated in flight.  Kept outside the
  /// category arrays: the sender is still charged for the send, these
  /// record what the network did to it afterwards.
  std::uint64_t fault_dropped_msgs = 0;
  std::uint64_t fault_dup_msgs = 0;

  std::uint64_t total_msgs() const;
  std::uint64_t total_bytes() const;
  void add(MsgCategory c, std::size_t bytes);
  void reset();
};

class PastryNetwork {
 public:
  /// The network borrows the simulator and topology; both must outlive it.
  PastryNetwork(sim::Simulator* simulator, const net::Topology* topo);

  /// Creates a node and instantly bootstraps its tables from the global
  /// view ("oracle" bootstrap — used by large benches where the paper also
  /// starts from an already-formed FreePastry ring).
  PastryNode& add_node_oracle(const U128& id, net::HostId host);

  /// Creates the entire fleet at once and synthesizes the canonical
  /// converged overlay state directly — sorted-id leaf sets, digit-trie
  /// routing tables, proximity neighbor sets — in O(N log N) without
  /// sending a single message.  Bit-identical to bootstrapping the same
  /// fleet one node at a time with add_node_oracle, and entry-for-entry
  /// equal to what sequential protocol joins converge to (locked by
  /// tests/pastry/bulk_bootstrap_property_test.cc).  The network must be
  /// empty.  Defined in bulk_bootstrap.cc; see docs/ARCHITECTURE.md,
  /// "Bulk-join bootstrap".
  void bootstrap_bulk(std::vector<BulkFleetEntry> fleet);

  /// Creates a node empty and runs the real message-based join protocol
  /// through `bootstrap`.  Caller runs the simulator to completion (or for
  /// long enough) before relying on the node's tables.
  PastryNode& add_node_join(const U128& id, net::HostId host,
                            const NodeHandle& bootstrap);

  /// Marks a node dead.  In-flight and future messages to it trigger the
  /// sender's failure handling (purge + reroute), like a TCP timeout would.
  void kill_node(const U128& id);

  /// Graceful departure: the node announces itself to all peers (they purge
  /// it eagerly) and dies *immediately after* the farewells are put on the
  /// wire.  Death is atomic with the announcement — no window exists in
  /// which a racing message can still be delivered to the departed node
  /// (messages already in flight bounce to the sender's failure handler,
  /// exactly like a crash).
  void depart_node(const U128& id);

  bool is_alive(const U128& id) const;
  PastryNode* find(const U128& id);
  const PastryNode* find(const U128& id) const;
  PastryNode& at(const U128& id);

  /// Live nodes in id order.
  std::vector<PastryNode*> nodes();
  std::vector<const PastryNode*> nodes() const;
  std::size_t size() const;

  /// Ground truth: the live node whose id is numerically closest to `key`
  /// (what correct routing must converge to).  Network must be non-empty.
  NodeHandle global_closest(const U128& key) const;

  // --- transport (used by PastryNode) -----------------------------------
  void send_route(const NodeHandle& from, const NodeHandle& to, RouteMsg msg);
  void send_direct(const NodeHandle& from, const NodeHandle& to,
                   PayloadPtr payload, MsgCategory category);

  // --- chaos injection ----------------------------------------------------
  /// Attaches a fault plan to the transport choke point; nullptr detaches.
  /// The plan must outlive the network (tests own it on the stack).  Every
  /// send consults the plan exactly once, so (seed, plan) replays are
  /// bit-identical.
  void set_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }
  sim::FaultPlan* fault_plan() const { return fault_plan_; }
  /// Messages destroyed / duplicated by the fault plan, summed over nodes.
  std::uint64_t total_fault_dropped() const;
  std::uint64_t total_fault_dups() const;

  // --- instrumentation ---------------------------------------------------
  /// Attaches a trace recorder; nullptr (the default) detaches.  Recording
  /// is passive — it never schedules events or draws randomness — so sim
  /// outcomes are bit-identical with tracing on or off, and the hot paths
  /// pay a single null-pointer test when tracing is disabled.  In sharded
  /// mode the recorder is switched to per-shard buffers automatically.
  void set_trace(obs::TraceRecorder* t);
  obs::TraceRecorder* trace() const { return trace_; }

  /// Pushes transport roll-ups into `reg` as `pastry.*` / `fault.*` series:
  /// per-category message/byte counters, totals, fault drop/dup counts, and
  /// a per-node total-messages distribution.  Idempotent: counters are
  /// overwritten and distributions rebuilt on every call.
  void export_metrics(obs::MetricsRegistry& reg) const;

  const TrafficCounters& counters(const U128& id) const;
  /// Snapshot of total messages sent per live node (Fig. 15 input).
  std::vector<std::uint64_t> per_node_msgs() const;
  std::vector<std::uint64_t> per_node_bytes() const;
  void reset_counters();
  std::uint64_t total_msgs() const;

  /// Number of hops the most recent delivered route took (test aid).
  /// Serial mode only — in sharded mode concurrent deliveries would race on
  /// one slot, so the note becomes a no-op.
  void note_delivery_hops(int hops) {
    if (runner_ == nullptr) last_delivery_hops_ = hops;
  }
  int last_delivery_hops() const { return last_delivery_hops_; }

  sim::Simulator& simulator() { return *sim_; }
  const net::Topology& topology() const { return *topo_; }

  // --- sharded (parallel) mode -------------------------------------------
  /// Switches the transport into ParallelRunner mode: host h's node stack
  /// belongs to shard `shard_of_host[h]`, every node event (delivery,
  /// retransmit timer, trace stamp) runs on that shard's simulator, and
  /// sends between hosts in different shards travel through the runner's
  /// mailboxes.  Requirements (see docs/ARCHITECTURE.md, "Sharding
  /// contract"):
  ///   * call after nodes exist (oracle bootstrap) and before any traffic;
  ///   * the map must be rack-aligned and runner->lookahead_s() must not
  ///     exceed Topology::min_cross_shard_latency_s(map) — verified here;
  ///   * membership changes (kill/depart/add) only between run_until calls;
  ///   * an attached FaultPlan is consulted via decide_keyed — verdicts are
  ///     a pure function of (plan seed, sender node, per-sender ordinal),
  ///     so chaos replays bit-identically at any thread count.
  void enable_sharding(sim::ParallelRunner* runner,
                       std::vector<int> shard_of_host);
  bool sharded() const { return runner_ != nullptr; }
  int shard_of(net::HostId h) const {
    return runner_ == nullptr
               ? 0
               : shard_of_host_[static_cast<std::size_t>(h)];
  }

  /// The simulator that drives host `h` — its shard's in sharded mode, the
  /// global one otherwise.  All per-node scheduling and now() reads go
  /// through this so node code is oblivious to the execution mode.
  sim::Simulator& simulator_for(net::HostId h) {
    return runner_ == nullptr ? *sim_ : runner_->shard(shard_of(h));
  }
  double now_for(net::HostId h) { return simulator_for(h).now(); }

  /// Runs one stabilization round on every live node (benches call this
  /// between protocol phases to mimic Pastry's periodic maintenance).
  void stabilize_all();

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Scheduled-but-undelivered transport copies (primary, fault duplicates,
  /// cross-shard failure bounces).  Zero is the quiesce-barrier condition:
  /// every pending event is then a periodic tick or a component-owned timer.
  /// Relaxed atomics — only read at barriers, never raced mid-window
  /// (each counter is touched by its destination shard's worker plus
  /// senders *scheduling into* that shard, which the runner's mailbox
  /// machinery already orders).
  std::int64_t wire_in_flight() const {
    std::int64_t n = 0;
    for (std::size_t s = 0; s < wire_shards_; ++s) {
      n += wire_[s].n.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Serializes per-node transport entries (liveness, traffic counters,
  /// keyed-fault ordinals) and each node's protocol state.  Must be called
  /// at a quiesce barrier; throws CkptError if wire_in_flight() != 0.
  void ckpt_save(ckpt::Writer& w) const;

  /// Restores entries and nodes.  The reconstruction must contain the same
  /// node ids (all alive — restore re-kills the dead ones); mismatches
  /// throw CkptError.
  void ckpt_restore(ckpt::Reader& r);

 private:
  struct Entry {
    std::unique_ptr<PastryNode> node;
    TrafficCounters counters;
    /// Per-sender message ordinal — the counter half of the keyed fault
    /// stream in sharded mode.  Only the sender's own shard touches it.
    std::uint64_t fault_seq = 0;
    bool alive = true;
  };

  Entry& entry_of(const U128& id);
  /// entry_of through the host slot; throws on an unknown node.
  Entry& entry_of(const NodeHandle& n);
  /// The entry of node `id`, tried first in the slot of `host` (the host
  /// the caller believes it runs on), then in the id-ordered map; nullptr
  /// if no such node exists.  O(1) on a hit.
  Entry* lookup(const U128& id, net::HostId host);
  /// Adds a node's entry to nodes_ and makes it its host's slot holder.
  /// Every node creation goes through here.
  Entry& emplace_node(const U128& id, net::HostId host, Entry e);

  /// Consults the fault plan (if any) for one message from→to.  Returns the
  /// default no-fault decision when no plan is attached.  `sender` supplies
  /// the keyed-stream ordinal in sharded mode.
  sim::FaultDecision consult_fault_plan(const NodeHandle& from,
                                        const NodeHandle& to, Entry& sender);

  // One in-flight counter per destination shard, cache-line padded so shard
  // workers don't false-share.  A raw array: std::vector<atomic> cannot be
  // resized, and the count is fixed once sharding is configured.
  struct alignas(64) WireCounter {
    std::atomic<std::int64_t> n{0};
  };
  void wire_inc(net::HostId dst) {
    wire_[static_cast<std::size_t>(shard_of(dst))].n.fetch_add(
        1, std::memory_order_relaxed);
  }
  void wire_dec(net::HostId dst) {
    wire_[static_cast<std::size_t>(shard_of(dst))].n.fetch_sub(
        1, std::memory_order_relaxed);
  }

  sim::Simulator* sim_;
  const net::Topology* topo_;
  std::map<U128, Entry> nodes_;  // ordered: gives ring order for oracle ops
  /// Host-indexed shortcut into nodes_ for the transport's per-message
  /// lookups: the node most recently created on each host.  Map nodes never
  /// move and are never erased (dead nodes stay, flagged), so the pointers
  /// stay valid.
  struct HostSlot {
    U128 id;
    Entry* entry = nullptr;
  };
  std::vector<HostSlot> by_host_;
  sim::FaultPlan* fault_plan_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  sim::ParallelRunner* runner_ = nullptr;  // non-null = sharded mode
  std::vector<int> shard_of_host_;
  int last_delivery_hops_ = 0;
  std::unique_ptr<WireCounter[]> wire_;
  std::size_t wire_shards_ = 1;
};

}  // namespace vb::pastry
