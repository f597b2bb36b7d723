#include "pastry/pastry_network.h"

#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vb::pastry {

std::uint64_t TrafficCounters::total_msgs() const {
  std::uint64_t t = 0;
  for (auto v : msgs_sent) t += v;
  return t;
}

std::uint64_t TrafficCounters::total_bytes() const {
  std::uint64_t t = 0;
  for (auto v : bytes_sent) t += v;
  return t;
}

void TrafficCounters::add(MsgCategory c, std::size_t bytes) {
  auto i = static_cast<std::size_t>(c);
  msgs_sent[i] += 1;
  bytes_sent[i] += bytes;
}

void TrafficCounters::reset() {
  msgs_sent.fill(0);
  bytes_sent.fill(0);
  fault_dropped_msgs = 0;
  fault_dup_msgs = 0;
}

PastryNetwork::PastryNetwork(sim::Simulator* simulator, const net::Topology* topo)
    : sim_(simulator), topo_(topo) {
  if (simulator == nullptr || topo == nullptr) {
    throw std::invalid_argument("PastryNetwork: null simulator/topology");
  }
  wire_ = std::make_unique<WireCounter[]>(1);
}

void PastryNetwork::enable_sharding(sim::ParallelRunner* runner,
                                    std::vector<int> shard_of_host) {
  if (runner == nullptr) {
    runner_ = nullptr;
    shard_of_host_.clear();
    wire_shards_ = 1;
    wire_ = std::make_unique<WireCounter[]>(1);
    return;
  }
  if (static_cast<int>(shard_of_host.size()) != topo_->num_hosts()) {
    throw std::invalid_argument("enable_sharding: bad shard map size");
  }
  for (int s : shard_of_host) {
    if (s < 0 || s >= runner->num_shards()) {
      throw std::invalid_argument("enable_sharding: shard index out of range");
    }
  }
  // The conservative-window contract: every cross-shard link must be at
  // least one lookahead long, or post() would be asked to schedule into the
  // current window.  Fail loudly at setup rather than mid-run.
  if (runner->lookahead_s() >
      topo_->min_cross_shard_latency_s(shard_of_host)) {
    throw std::invalid_argument(
        "enable_sharding: lookahead exceeds the minimum cross-shard latency");
  }
  runner_ = runner;
  shard_of_host_ = std::move(shard_of_host);
  wire_shards_ = static_cast<std::size_t>(runner_->num_shards());
  wire_ = std::make_unique<WireCounter[]>(wire_shards_);
  if (trace_ != nullptr) trace_->enable_sharded(runner_->num_shards());
}

void PastryNetwork::set_trace(obs::TraceRecorder* t) {
  trace_ = t;
  if (trace_ != nullptr && runner_ != nullptr) {
    trace_->enable_sharded(runner_->num_shards());
  }
}

PastryNetwork::Entry& PastryNetwork::entry_of(const U128& id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::out_of_range("PastryNetwork: unknown node " + id.short_hex());
  }
  return it->second;
}

PastryNetwork::Entry& PastryNetwork::entry_of(const NodeHandle& n) {
  Entry* e = lookup(n.id, n.host);
  if (e == nullptr) {
    throw std::out_of_range("PastryNetwork: unknown node " + n.id.short_hex());
  }
  return *e;
}

PastryNetwork::Entry* PastryNetwork::lookup(const U128& id, net::HostId host) {
  if (host >= 0 && static_cast<std::size_t>(host) < by_host_.size()) {
    const HostSlot& slot = by_host_[static_cast<std::size_t>(host)];
    if (slot.entry != nullptr && slot.id == id) return slot.entry;
  }
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

PastryNetwork::Entry& PastryNetwork::emplace_node(const U128& id,
                                                  net::HostId host, Entry e) {
  Entry& placed = nodes_.emplace(id, std::move(e)).first->second;
  if (host >= 0) {
    const auto h = static_cast<std::size_t>(host);
    if (h >= by_host_.size()) by_host_.resize(h + 1);
    by_host_[h] = HostSlot{id, &placed};
  }
  return placed;
}

PastryNode& PastryNetwork::add_node_oracle(const U128& id, net::HostId host) {
  if (nodes_.contains(id)) {
    throw std::invalid_argument("PastryNetwork: duplicate id " + id.short_hex());
  }
  Entry e;
  e.node = std::make_unique<PastryNode>(NodeHandle{id, host}, this);
  PastryNode& fresh = *e.node;
  emplace_node(id, host, std::move(e));
  for (auto& [other_id, other] : nodes_) {
    if (other_id == id || !other.alive) continue;
    other.node->learn(fresh.handle());
    fresh.learn(other.node->handle());
  }
  return fresh;
}

PastryNode& PastryNetwork::add_node_join(const U128& id, net::HostId host,
                                         const NodeHandle& bootstrap) {
  if (nodes_.contains(id)) {
    throw std::invalid_argument("PastryNetwork: duplicate id " + id.short_hex());
  }
  Entry e;
  e.node = std::make_unique<PastryNode>(NodeHandle{id, host}, this);
  PastryNode& fresh = *e.node;
  emplace_node(id, host, std::move(e));
  if (bootstrap.valid()) fresh.begin_join(bootstrap);
  return fresh;
}

void PastryNetwork::kill_node(const U128& id) { entry_of(id).alive = false; }

void PastryNetwork::depart_node(const U128& id) {
  Entry& e = entry_of(id);
  if (!e.alive) throw std::logic_error("depart_node: already dead");
  e.node->announce_departure();
  // Death is atomic with the announcement: the farewells are already on the
  // wire (scheduled above), and from this instant every message addressed to
  // the departed node — including ones that were racing the farewell —
  // bounces to its sender's failure handler.  The old "die one cross-pod
  // latency later" grace period let such racers be delivered to a node that
  // had already said goodbye, so a reply could originate from the dead.
  e.alive = false;
}

bool PastryNetwork::is_alive(const U128& id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.alive;
}

PastryNode* PastryNetwork::find(const U128& id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.alive) return nullptr;
  return it->second.node.get();
}

const PastryNode* PastryNetwork::find(const U128& id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.alive) return nullptr;
  return it->second.node.get();
}

PastryNode& PastryNetwork::at(const U128& id) {
  PastryNode* n = find(id);
  if (n == nullptr) {
    throw std::out_of_range("PastryNetwork: no live node " + id.short_hex());
  }
  return *n;
}

std::vector<PastryNode*> PastryNetwork::nodes() {
  std::vector<PastryNode*> out;
  out.reserve(nodes_.size());
  for (auto& [id, e] : nodes_) {
    if (e.alive) out.push_back(e.node.get());
  }
  return out;
}

std::vector<const PastryNode*> PastryNetwork::nodes() const {
  std::vector<const PastryNode*> out;
  out.reserve(nodes_.size());
  for (const auto& [id, e] : nodes_) {
    if (e.alive) out.push_back(e.node.get());
  }
  return out;
}

std::size_t PastryNetwork::size() const {
  std::size_t n = 0;
  for (const auto& [id, e] : nodes_) n += e.alive ? 1 : 0;
  return n;
}

NodeHandle PastryNetwork::global_closest(const U128& key) const {
  NodeHandle best = kNoHandle;
  for (const auto& [id, e] : nodes_) {
    if (!e.alive) continue;
    if (!best.valid() || closer_on_ring(key, id, best.id)) {
      best = e.node->handle();
    }
  }
  if (!best.valid()) throw std::logic_error("PastryNetwork: empty network");
  return best;
}

sim::FaultDecision PastryNetwork::consult_fault_plan(const NodeHandle& from,
                                                     const NodeHandle& to,
                                                     Entry& sender) {
  if (fault_plan_ == nullptr) return {};
  sim::FaultEndpoints ep;
  ep.src_host = static_cast<int>(from.host);
  ep.dst_host = static_cast<int>(to.host);
  ep.src_rack = topo_->rack_of(from.host);
  ep.dst_rack = topo_->rack_of(to.host);
  ep.src_pod = topo_->pod_of(from.host);
  ep.dst_pod = topo_->pod_of(to.host);
  if (runner_ != nullptr) {
    // Sharded mode: the plan's sequential Rng would be drawn in a
    // thread-dependent order (and raced outright).  Key the verdict by
    // (sender node, per-sender ordinal) instead — order-free, replayable.
    return fault_plan_->decide_keyed(now_for(from.host), ep, from.id.lo(),
                                     sender.fault_seq++);
  }
  return fault_plan_->decide(sim_->now(), ep);
}

void PastryNetwork::send_route(const NodeHandle& from, const NodeHandle& to,
                               RouteMsg msg) {
  Entry& sender = entry_of(from);
  // A dead node's pending timers can still fire; their sends go nowhere.
  if (!sender.alive) return;
  sender.counters.add(msg.category,
                      msg.payload ? msg.payload->wire_bytes() : 16);
  sim::Simulator& src_sim = simulator_for(from.host);
  sim::FaultDecision fault = consult_fault_plan(from, to, sender);
  if (fault.drop) {
    sender.counters.fault_dropped_msgs += 1;
    if (trace_ != nullptr) {
      trace_->instant(src_sim.now(), msg.trace_id, static_cast<int>(from.host),
                      fault.partitioned ? "fault.partition_drop" : "fault.drop",
                      "fault", "dst_host", static_cast<double>(to.host));
    }
    return;  // silent loss: no bounce, no failure callback — pure chaos
  }
  double lat = topo_->latency_s(from.host, to.host);
  U128 from_id = from.id;
  NodeHandle to_handle = to;
  // Capture the destination only as its handle (to_handle.id is the map
  // key): a separate U128 copy would push the hop closure past EventFn's
  // inline buffer — see the static_assert below.
  auto deliver = [this, from_id, to_handle](RouteMsg m) mutable {
    wire_dec(to_handle.host);  // this copy is off the wire, whatever happens
    Entry* dst = lookup(to_handle.id, to_handle.host);
    if (dst == nullptr || !dst->alive) {
      // Destination dead: surface the failure to the sender after a
      // timeout-like delay (one more latency unit).
      auto sit = nodes_.find(from_id);
      if (sit == nodes_.end() || !sit->second.alive) return;
      PastryNode& snode = *sit->second.node;
      if (runner_ != nullptr &&
          shard_of(snode.handle().host) != vb::current_shard()) {
        // The bounce crosses shards: hand it back on the sender's own shard
        // one link latency later (>= lookahead by the sharding contract).
        wire_inc(snode.handle().host);
        runner_->post(
            shard_of(snode.handle().host),
            simulator_for(to_handle.host).now() +
                topo_->latency_s(to_handle.host, snode.handle().host),
            [this, from_id, to_handle, m = std::move(m)]() mutable {
              auto s2 = nodes_.find(from_id);
              wire_dec(s2->second.node->handle().host);
              if (!s2->second.alive) return;
              s2->second.node->handle_send_failure(to_handle, &m);
            });
        return;
      }
      snode.handle_send_failure(to_handle, &m);
      return;
    }
    dst->node->handle_route_msg(std::move(m));
  };
  bool cross = runner_ != nullptr && shard_of(from.host) != shard_of(to.host);
  if (fault.duplicate) {
    sender.counters.fault_dup_msgs += 1;
    if (trace_ != nullptr) {
      trace_->instant(src_sim.now(), msg.trace_id, static_cast<int>(from.host),
                      "fault.dup", "fault", "dst_host",
                      static_cast<double>(to.host));
    }
    auto dup = [deliver, m = msg]() mutable { deliver(std::move(m)); };
    wire_inc(to.host);
    if (cross) {
      runner_->post(shard_of(to.host),
                    src_sim.now() + lat + fault.dup_extra_delay_s,
                    std::move(dup));
    } else {
      src_sim.schedule_in(lat + fault.dup_extra_delay_s, std::move(dup));
    }
  }
  auto primary = [deliver, m = std::move(msg)]() mutable {
    deliver(std::move(m));
  };
  // The route hop is the hottest closure in the simulator; if it outgrows
  // the EventFn inline buffer every hop heap-allocates (~15% throughput).
  static_assert(sizeof(primary) <= sim::EventFn::inline_capacity(),
                "route-hop closure must stay inline; grow kDefaultInlineBytes");
  wire_inc(to.host);
  if (cross) {
    runner_->post(shard_of(to.host), src_sim.now() + lat + fault.extra_delay_s,
                  std::move(primary));
  } else {
    src_sim.schedule_in(lat + fault.extra_delay_s, std::move(primary));
  }
}

void PastryNetwork::send_direct(const NodeHandle& from, const NodeHandle& to,
                                PayloadPtr payload, MsgCategory category) {
  Entry& sender = entry_of(from);
  if (!sender.alive) return;
  sender.counters.add(category, payload ? payload->wire_bytes() : 16);
  sim::Simulator& src_sim = simulator_for(from.host);
  sim::FaultDecision fault = consult_fault_plan(from, to, sender);
  if (fault.drop) {
    sender.counters.fault_dropped_msgs += 1;
    if (trace_ != nullptr) {
      trace_->instant(src_sim.now(), payload ? payload->trace_id() : 0,
                      static_cast<int>(from.host),
                      fault.partitioned ? "fault.partition_drop" : "fault.drop",
                      "fault", "dst_host", static_cast<double>(to.host));
    }
    return;
  }
  double lat = topo_->latency_s(from.host, to.host);
  std::uint64_t payload_trace =
      (trace_ != nullptr && payload) ? payload->trace_id() : 0;
  U128 from_id = from.id;
  U128 to_id = to.id;
  NodeHandle from_handle = from;
  NodeHandle to_handle = to;
  auto deliver = [this, from_id, to_id, from_handle, to_handle,
                  p = std::move(payload), category]() {
    wire_dec(to_handle.host);  // this copy is off the wire, whatever happens
    Entry* dst = lookup(to_id, to_handle.host);
    if (dst == nullptr || !dst->alive) {
      Entry* src = lookup(from_id, from_handle.host);
      if (src == nullptr || !src->alive) return;
      PastryNode& snode = *src->node;
      if (runner_ != nullptr &&
          shard_of(snode.handle().host) != vb::current_shard()) {
        wire_inc(snode.handle().host);
        runner_->post(
            shard_of(snode.handle().host),
            simulator_for(to_handle.host).now() +
                topo_->latency_s(to_handle.host, snode.handle().host),
            [this, from_id, to_handle]() {
              auto s2 = nodes_.find(from_id);
              wire_dec(s2->second.node->handle().host);
              if (!s2->second.alive) return;
              s2->second.node->handle_send_failure(to_handle, nullptr);
            });
        return;
      }
      snode.handle_send_failure(to_handle, nullptr);
      return;
    }
    dst->node->handle_direct_msg(from_handle, p, category);
  };
  bool cross = runner_ != nullptr && shard_of(from.host) != shard_of(to.host);
  if (fault.duplicate) {
    sender.counters.fault_dup_msgs += 1;
    if (trace_ != nullptr) {
      trace_->instant(src_sim.now(), payload_trace, static_cast<int>(from.host),
                      "fault.dup", "fault", "dst_host",
                      static_cast<double>(to.host));
    }
    wire_inc(to.host);
    if (cross) {
      runner_->post(shard_of(to.host),
                    src_sim.now() + lat + fault.dup_extra_delay_s, deliver);
    } else {
      src_sim.schedule_in(lat + fault.dup_extra_delay_s, deliver);
    }
  }
  wire_inc(to.host);
  if (cross) {
    runner_->post(shard_of(to.host), src_sim.now() + lat + fault.extra_delay_s,
                  std::move(deliver));
  } else {
    src_sim.schedule_in(lat + fault.extra_delay_s, std::move(deliver));
  }
}

const TrafficCounters& PastryNetwork::counters(const U128& id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::out_of_range("PastryNetwork: unknown node " + id.short_hex());
  }
  return it->second.counters;
}

std::vector<std::uint64_t> PastryNetwork::per_node_msgs() const {
  std::vector<std::uint64_t> out;
  for (const auto& [id, e] : nodes_) {
    if (e.alive) out.push_back(e.counters.total_msgs());
  }
  return out;
}

std::vector<std::uint64_t> PastryNetwork::per_node_bytes() const {
  std::vector<std::uint64_t> out;
  for (const auto& [id, e] : nodes_) {
    if (e.alive) out.push_back(e.counters.total_bytes());
  }
  return out;
}

void PastryNetwork::reset_counters() {
  for (auto& [id, e] : nodes_) e.counters.reset();
}

std::uint64_t PastryNetwork::total_msgs() const {
  std::uint64_t t = 0;
  for (const auto& [id, e] : nodes_) t += e.counters.total_msgs();
  return t;
}

std::uint64_t PastryNetwork::total_fault_dropped() const {
  std::uint64_t t = 0;
  for (const auto& [id, e] : nodes_) t += e.counters.fault_dropped_msgs;
  return t;
}

std::uint64_t PastryNetwork::total_fault_dups() const {
  std::uint64_t t = 0;
  for (const auto& [id, e] : nodes_) t += e.counters.fault_dup_msgs;
  return t;
}

void PastryNetwork::export_metrics(obs::MetricsRegistry& reg) const {
  static constexpr MsgCategory kAll[] = {
      MsgCategory::kOverlayMaintenance, MsgCategory::kScribeControl,
      MsgCategory::kAggregation,        MsgCategory::kVBundle,
      MsgCategory::kApp,                MsgCategory::kRetransmit,
      MsgCategory::kAck,
  };
  std::array<std::uint64_t, TrafficCounters::kCategories> msgs{};
  std::array<std::uint64_t, TrafficCounters::kCategories> bytes{};
  std::uint64_t dropped = 0;
  std::uint64_t dups = 0;
  obs::Distribution& per_node = reg.distribution("pastry.msgs.per_node");
  per_node.reset();  // idempotent collection: rebuild, never accumulate
  for (const auto& [id, e] : nodes_) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      msgs[i] += e.counters.msgs_sent[i];
      bytes[i] += e.counters.bytes_sent[i];
    }
    dropped += e.counters.fault_dropped_msgs;
    dups += e.counters.fault_dup_msgs;
    if (e.alive) {
      per_node.observe(static_cast<double>(e.counters.total_msgs()));
    }
  }
  std::uint64_t total_m = 0;
  std::uint64_t total_b = 0;
  for (MsgCategory c : kAll) {
    auto i = static_cast<std::size_t>(c);
    std::string base = std::string("pastry.msgs.") + to_string(c);
    reg.counter(base).set(msgs[i]);
    reg.counter(std::string("pastry.bytes.") + to_string(c)).set(bytes[i]);
    total_m += msgs[i];
    total_b += bytes[i];
  }
  reg.counter("pastry.msgs.total").set(total_m);
  reg.counter("pastry.bytes.total").set(total_b);
  reg.counter("fault.dropped_msgs").set(dropped);
  reg.counter("fault.dup_msgs").set(dups);
  reg.gauge("pastry.nodes.alive").set(static_cast<double>(size()));
}

void PastryNetwork::stabilize_all() {
  for (auto& [id, e] : nodes_) {
    if (e.alive) {
      e.node->stabilize();
      e.node->maintain_routing_table();
    }
  }
}

void PastryNetwork::ckpt_save(ckpt::Writer& w) const {
  if (wire_in_flight() != 0) {
    throw ckpt::CkptError(
        "pastry save: " + std::to_string(wire_in_flight()) +
        " transport deliveries still in flight — checkpoints may only be "
        "taken at a quiesce barrier (wire_in_flight() == 0)");
  }
  w.begin_section("pastry");
  w.i64(last_delivery_hops_);
  w.u32(static_cast<std::uint32_t>(nodes_.size()));
  for (const auto& [id, e] : nodes_) {
    w.u128(id);
    w.boolean(e.alive);
    w.u64(e.fault_seq);
    for (std::uint64_t v : e.counters.msgs_sent) w.u64(v);
    for (std::uint64_t v : e.counters.bytes_sent) w.u64(v);
    w.u64(e.counters.fault_dropped_msgs);
    w.u64(e.counters.fault_dup_msgs);
    e.node->ckpt_save(w);
  }
  w.end_section();
}

void PastryNetwork::ckpt_restore(ckpt::Reader& r) {
  r.enter_section("pastry");
  last_delivery_hops_ = static_cast<int>(r.i64());
  if (r.u32() != nodes_.size()) {
    throw ckpt::CkptError(
        "pastry restore: node count differs from the reconstruction");
  }
  for (auto& [id, e] : nodes_) {
    // nodes_ is id-ordered and the save loop walked the same order, so the
    // ids must line up one-to-one.
    if (r.u128() != id) {
      throw ckpt::CkptError("pastry restore: node id mismatch at " +
                            id.short_hex() +
                            " — reconstruction created different nodes");
    }
    bool alive = r.boolean();
    if (alive && !e.alive) {
      throw ckpt::CkptError("pastry restore: node " + id.short_hex() +
                            " is dead in the reconstruction but alive in the "
                            "checkpoint");
    }
    e.alive = alive;  // re-kill nodes that had failed by checkpoint time
    e.fault_seq = r.u64();
    for (std::uint64_t& v : e.counters.msgs_sent) v = r.u64();
    for (std::uint64_t& v : e.counters.bytes_sent) v = r.u64();
    e.counters.fault_dropped_msgs = r.u64();
    e.counters.fault_dup_msgs = r.u64();
    e.node->ckpt_restore(r);
  }
  r.exit_section();
}

}  // namespace vb::pastry
