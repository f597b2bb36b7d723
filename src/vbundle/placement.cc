// Placement half of VBundleAgent (§II.B): key-routed boot queries with
// proximity-ordered neighbor-set spillover.
#include <algorithm>
#include <optional>

#include "pastry/pastry_network.h"
#include "vbundle/controller.h"

namespace vb::core {

using pastry::MsgCategory;
using pastry::NodeHandle;

namespace {

/// Proximity of `n` to the walk's anchor: topology tier first, host-id
/// distance within a tier.
long anchor_rank(const net::Topology& topo, const NodeHandle& anchor,
                 const NodeHandle& n) {
  long tier = static_cast<long>(topo.proximity(anchor.host, n.host));
  long delta = n.host > anchor.host ? n.host - anchor.host
                                    : anchor.host - n.host;
  return tier * 1'000'000L + delta;
}

/// Adds `id` to the walk's sorted seen set; false if it was already there.
bool mark_seen(PlacementWalkMsg& walk, const U128& id) {
  auto it = std::lower_bound(walk.seen.begin(), walk.seen.end(), id);
  if (it != walk.seen.end() && *it == id) return false;
  walk.seen.insert(it, id);
  return true;
}

void push_candidate(PlacementWalkMsg& walk, const net::Topology& topo,
                    const NodeHandle& n) {
  walk.frontier.push_back(
      {anchor_rank(topo, walk.anchor, n), walk.next_seq++, n});
  std::push_heap(walk.frontier.begin(), walk.frontier.end(),
                 PlacementWalkMsg::Candidate::later);
}

}  // namespace

void VBundleAgent::request_boot(const U128& customer_key, host::VmId vm,
                                const host::VmSpec& spec,
                                host::CustomerId customer, BootCallback cb) {
  pending_boots_[vm] = std::move(cb);
  auto q = std::make_shared<BootQueryMsg>();
  q->vm = vm;
  q->spec = spec;
  q->customer = customer;
  q->requester = node_->handle();
  node_->route(customer_key, std::move(q), MsgCategory::kVBundle);
}

bool VBundleAgent::try_host_locally(host::VmId vm) {
  return fleet_->place(vm, node_->host());
}

bool VBundleAgent::boot_settled(host::VmId vm) const {
  // Only a duplicated query or walk message (a fork) can arrive after its
  // VM found a home, or after the requester gave up on it and destroyed
  // it (a rejected bundle); either way the boot is settled, so the fork
  // just stops.
  const host::Vm& v = fleet_->vm(vm);
  return v.host != -1 || v.destroyed;
}

void VBundleAgent::handle_boot_query(const BootQueryMsg& q) {
  if (boot_settled(q.vm)) return;
  if (try_host_locally(q.vm)) {
    auto ack = std::make_shared<BootAckMsg>();
    ack->vm = q.vm;
    ack->server = node_->handle();
    ack->visits = 1;
    node_->send_direct(q.requester, std::move(ack), MsgCategory::kVBundle);
    return;
  }
  // Key owner is full: spill over the proximity neighbor set.
  auto walk = std::make_shared<PlacementWalkMsg>();
  walk->vm = q.vm;
  walk->spec = q.spec;
  walk->customer = q.customer;
  walk->requester = q.requester;
  walk->anchor = node_->handle();
  walk->seen.push_back(node_->id());
  walk->visits = 1;
  walk->max_visits = cfg_->max_placement_visits;
  // The first hop is the head of the neighbor set as it lists itself,
  // nearest first (§II.B: "the neighbor set M contains ... |M| nodes that
  // are closest according to the proximity metric").  The others join the
  // frontier in listed order and, like every later candidate, leave it in
  // anchor-rank order.
  const net::Topology& topo = node_->network().topology();
  std::optional<NodeHandle> first;
  for (const NodeHandle& n : node_->neighbor_set().members()) {
    if (!mark_seen(*walk, n.id)) continue;
    if (first) {
      push_candidate(*walk, topo, n);
    } else {
      first = n;
    }
  }
  if (first && walk->visits < walk->max_visits) {
    node_->send_direct(*first, std::move(walk), MsgCategory::kVBundle);
    return;
  }
  fail_walk(*walk);
}

void VBundleAgent::handle_placement_walk(const PlacementWalkMsg& msg) {
  if (boot_settled(msg.vm)) return;
  auto walk = std::make_shared<PlacementWalkMsg>(msg);
  walk->visits += 1;
  if (try_host_locally(walk->vm)) {
    auto ack = std::make_shared<BootAckMsg>();
    ack->vm = walk->vm;
    ack->server = node_->handle();
    ack->visits = walk->visits;
    node_->send_direct(walk->requester, std::move(ack), MsgCategory::kVBundle);
    return;
  }
  // Merge our neighbor set into the frontier, ranked by proximity to the
  // anchor so the search expands outward from the key.
  const net::Topology& topo = node_->network().topology();
  for (const NodeHandle& n : node_->neighbor_set().members()) {
    if (mark_seen(*walk, n.id)) push_candidate(*walk, topo, n);
  }
  if (walk->frontier.empty() || walk->visits >= walk->max_visits) {
    fail_walk(*walk);
    return;
  }
  std::pop_heap(walk->frontier.begin(), walk->frontier.end(),
                PlacementWalkMsg::Candidate::later);
  NodeHandle next = walk->frontier.back().node;
  walk->frontier.pop_back();
  node_->send_direct(next, std::move(walk), MsgCategory::kVBundle);
}

void VBundleAgent::fail_walk(const PlacementWalkMsg& walk) {
  // Search radius exhausted.
  auto nack = std::make_shared<BootNackMsg>();
  nack->vm = walk.vm;
  nack->visits = walk.visits;
  node_->send_direct(walk.requester, std::move(nack), MsgCategory::kVBundle);
}

}  // namespace vb::core
