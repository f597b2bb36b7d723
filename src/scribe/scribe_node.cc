#include "scribe/scribe_node.h"

#include <algorithm>

#include "obs/trace.h"
#include "pastry/pastry_network.h"

namespace vb::scribe {

using pastry::MsgCategory;
using pastry::NodeHandle;
using pastry::PayloadPtr;

bool GroupState::has_child(const NodeHandle& n) const {
  return std::find(children.begin(), children.end(), n) != children.end();
}

ScribeNode::ScribeNode(pastry::PastryNode* owner) : owner_(owner) {
  owner_->add_app(this);
}

void ScribeNode::add_app(ScribeApp* app) { apps_.push_back(app); }

GroupState& ScribeNode::state(const GroupId& group) { return groups_[group]; }

const GroupState* ScribeNode::find_group(const GroupId& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : &it->second;
}

bool ScribeNode::is_member(const GroupId& group) const {
  const GroupState* st = find_group(group);
  return st != nullptr && st->member;
}

bool ScribeNode::in_tree(const GroupId& group) const {
  const GroupState* st = find_group(group);
  return st != nullptr && st->in_tree();
}

void ScribeNode::create(const GroupId& group) {
  auto msg = std::make_shared<CreateMsg>();
  msg->group = group;
  msg->creator = owner_->handle();
  owner_->route(group, std::move(msg), MsgCategory::kScribeControl);
}

void ScribeNode::join(const GroupId& group) {
  GroupState& st = state(group);
  if (st.member) return;
  st.member = true;
  if (st.attached || st.root) return;  // already on the tree as a forwarder
  if (st.join_pending) return;         // a JOIN is already routing
  send_join(group, st);
}

void ScribeNode::send_join(const GroupId& group, GroupState& st) {
  st.join_pending = true;
  double now = owner_->network().simulator_for(owner_->host()).now();
  st.next_join_retry_s = now + st.join_backoff_s;
  st.join_backoff_s = std::min(st.join_backoff_s * 2.0, kJoinBackoffMaxS);
  auto msg = std::make_shared<JoinMsg>();
  msg->group = group;
  msg->joiner = owner_->handle();
  owner_->route(group, std::move(msg), MsgCategory::kScribeControl);
}

void ScribeNode::leave(const GroupId& group) {
  GroupState* st = &state(group);
  if (!st->member) return;
  st->member = false;
  maybe_prune(group);
}

void ScribeNode::maybe_prune(const GroupId& group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  GroupState& st = it->second;
  // A node stays in the tree while it is a member, the root, or still
  // forwards for children.
  if (st.member || st.root || !st.children.empty()) return;
  if (st.attached && st.parent.valid()) {
    auto msg = std::make_shared<LeaveMsg>();
    msg->group = group;
    msg->child = owner_->handle();
    owner_->send_reliable(st.parent, std::move(msg),
                          MsgCategory::kScribeControl);
  }
  groups_.erase(it);
}

void ScribeNode::maintenance() {
  // Root validity: the rendezvous point is *defined* as the live node
  // numerically closest to the groupId.  A later join can displace us; when
  // routing no longer terminates here, demote and re-home our subtree at
  // the new key owner (Scribe root migration).
  std::vector<GroupId> demote;
  for (auto& [group, st] : groups_) {
    if (st.root && owner_->next_hop(group) != owner_->handle()) {
      demote.push_back(group);
    }
  }
  for (const GroupId& group : demote) {
    GroupState& st = state(group);
    st.root = false;
    detach_and_rejoin(group);
  }

  for (auto& [group, st] : groups_) {
    if (!st.attached || st.root || !st.parent.valid()) continue;
    auto hb = std::make_shared<HeartbeatMsg>();
    hb->group = group;
    hb->child = owner_->handle();
    owner_->send_reliable(st.parent, std::move(hb),
                          MsgCategory::kScribeControl);
  }

  // JOIN retransmission: a routed JOIN can die on any lossy hop with no
  // bounce, so a node that stays unattached past its backoff deadline sends
  // a fresh one.  Backoff doubles up to kJoinBackoffMaxS; it resets once
  // the node attaches.
  double now = owner_->network().simulator_for(owner_->host()).now();
  for (auto& [group, st] : groups_) {
    if (st.member && st.join_pending && !st.attached && !st.root &&
        now >= st.next_join_retry_s) {
      send_join(group, st);
    }
  }
}

void ScribeNode::multicast(const GroupId& group, PayloadPtr inner,
                           MsgCategory category) {
  auto msg = std::make_shared<MulticastMsg>();
  msg->group = group;
  msg->inner = std::move(inner);
  msg->inner_category = category;
  owner_->route(group, std::move(msg), category);
}

void ScribeNode::anycast(const GroupId& group, PayloadPtr inner,
                         MsgCategory category) {
  // If we are on the tree ourselves, start the DFS right here — this is how
  // Pastry's local route convergence keeps the walk near the origin.
  auto walk = std::make_shared<WalkMsg>();
  walk->group = group;
  walk->inner = std::move(inner);
  walk->origin = owner_->handle();
  walk->inner_category = category;
  if (obs::TraceRecorder* tr = owner_->network().trace()) {
    walk->trace = tr->new_trace_id();
    tr->begin(owner_->network().simulator_for(owner_->host()).now(), walk->trace,
              static_cast<int>(owner_->handle().host), "scribe.anycast",
              "scribe");
  }
  if (in_tree(group)) {
    walk->visited.push_back(owner_->id());
    walk->nodes_visited = 1;
    process_walk(std::move(walk));
    return;
  }
  auto msg = std::make_shared<AnycastMsg>();
  msg->group = group;
  msg->inner = walk->inner;
  msg->origin = owner_->handle();
  msg->inner_category = category;
  msg->trace = walk->trace;
  owner_->route(group, std::move(msg), category);
}

void ScribeNode::add_child(const GroupId& group, const NodeHandle& child) {
  GroupState& st = state(group);
  if (child.id == owner_->id() || st.has_child(child)) return;
  st.children.push_back(child);
  for (ScribeApp* app : apps_) app->on_children_changed(*this, group);
}

void ScribeNode::remove_child(const GroupId& group, const NodeHandle& child) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  auto& ch = it->second.children;
  auto pos = std::find(ch.begin(), ch.end(), child);
  if (pos == ch.end()) return;
  ch.erase(pos);
  for (ScribeApp* app : apps_) app->on_children_changed(*this, group);
  maybe_prune(group);
}

// --- routing hooks --------------------------------------------------------

bool ScribeNode::forward(pastry::PastryNode& self, pastry::RouteMsg& msg,
                         const NodeHandle& next) {
  (void)self;
  if (auto join = std::dynamic_pointer_cast<const JoinMsg>(msg.payload)) {
    GroupState& st = state(join->group);
    if (join->joiner.id == owner_->id()) {
      // Our own join leaving this node: the next hop becomes our parent.
      // If we silently re-parent, the old parent must prune its stale edge
      // or multicasts reach us twice.
      if (st.attached && st.parent.valid() && !(st.parent == next)) {
        auto leave = std::make_shared<LeaveMsg>();
        leave->group = join->group;
        leave->child = owner_->handle();
        owner_->send_reliable(st.parent, std::move(leave),
                              MsgCategory::kScribeControl);
      }
      st.parent = next;
      st.attached = true;
      st.join_pending = false;
      st.join_backoff_s = kJoinBackoffBaseS;
      for (ScribeApp* app : apps_) app->on_parent_changed(*this, join->group);
      return true;
    }
    // A join passing through us: graft the edge.
    add_child(join->group, join->joiner);
    if (st.attached || st.root) return false;  // tree reached; absorb
    // Not attached yet: continue the join on our own behalf.
    auto rewritten = std::make_shared<JoinMsg>();
    rewritten->group = join->group;
    rewritten->joiner = owner_->handle();
    msg.payload = rewritten;
    st.parent = next;
    st.attached = true;
    for (ScribeApp* app : apps_) app->on_parent_changed(*this, join->group);
    return true;
  }
  if (auto any = std::dynamic_pointer_cast<const AnycastMsg>(msg.payload)) {
    if (in_tree(any->group)) {
      // First tree node on the route: convert to a DFS walk.
      auto walk = std::make_shared<WalkMsg>();
      walk->group = any->group;
      walk->inner = any->inner;
      walk->origin = any->origin;
      walk->inner_category = any->inner_category;
      walk->trace = any->trace;
      walk->visited.push_back(owner_->id());
      walk->nodes_visited = 1;
      process_walk(std::move(walk));
      return false;
    }
  }
  return true;
}

void ScribeNode::deliver(pastry::PastryNode& self, const pastry::RouteMsg& msg) {
  (void)self;
  if (auto create = std::dynamic_pointer_cast<const CreateMsg>(msg.payload)) {
    GroupState& st = state(create->group);
    st.root = true;
    st.attached = true;
    return;
  }
  if (auto join = std::dynamic_pointer_cast<const JoinMsg>(msg.payload)) {
    // We own the key: become (or already are) the rendezvous root.
    GroupState& st = state(join->group);
    st.root = true;
    st.attached = true;
    if (join->joiner.id != owner_->id()) {
      add_child(join->group, join->joiner);
    } else {
      st.join_pending = false;
      st.join_backoff_s = kJoinBackoffBaseS;
    }
    return;
  }
  if (auto mc = std::dynamic_pointer_cast<const MulticastMsg>(msg.payload)) {
    GroupState& st = state(mc->group);
    st.root = true;  // key owner is the rendezvous point by definition
    st.attached = true;
    disseminate(mc->group, mc->inner, mc->inner_category);
    return;
  }
  if (auto any = std::dynamic_pointer_cast<const AnycastMsg>(msg.payload)) {
    GroupState& st = state(any->group);
    st.root = true;
    st.attached = true;
    auto walk = std::make_shared<WalkMsg>();
    walk->group = any->group;
    walk->inner = any->inner;
    walk->origin = any->origin;
    walk->inner_category = any->inner_category;
    walk->trace = any->trace;
    walk->visited.push_back(owner_->id());
    walk->nodes_visited = 1;
    process_walk(std::move(walk));
    return;
  }
}

void ScribeNode::disseminate(const GroupId& group, const PayloadPtr& inner,
                             MsgCategory category) {
  const GroupState* st = find_group(group);
  if (st == nullptr) return;
  if (st->member) {
    for (ScribeApp* app : apps_) app->on_multicast(*this, group, inner);
  }
  // Dissemination stays fire-and-forget: multicast consumers (the
  // aggregation layer) re-publish periodically, so a lost copy costs one
  // round of staleness, not correctness — and tree fan-out is the bulk of
  // Fig.-15 traffic, where an ack per edge would double the bill.
  for (const NodeHandle& child : st->children) {
    auto msg = std::make_shared<DisseminateMsg>();
    msg->group = group;
    msg->inner = inner;
    msg->inner_category = category;
    owner_->send_direct(child, std::move(msg), category);
  }
}

void ScribeNode::push_neighbors(WalkMsg& walk, const GroupState& st) const {
  const net::Topology& topo = owner_->network().topology();
  // Each unvisited tree neighbour, keyed once by its proximity to the origin.
  struct Ranked {
    int proximity;
    NodeHandle node;
  };
  std::vector<Ranked> ranked;
  auto consider = [&](const NodeHandle& n) {
    if (std::find(walk.visited.begin(), walk.visited.end(), n.id) !=
        walk.visited.end()) {
      return;
    }
    ranked.push_back(
        {static_cast<int>(topo.proximity(walk.origin.host, n.host)), n});
  };
  for (const NodeHandle& c : st.children) consider(c);
  if (st.attached && st.parent.valid() && !st.root) consider(st.parent);
  // Sort so the candidate closest to the origin ends up on top of the stack
  // (v-Bundle prefers topologically close receivers, §III.C step 2).
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.proximity != b.proximity) {
      return a.proximity > b.proximity;  // farthest first -> popped last
    }
    return a.node.host > b.node.host;
  });
  for (const Ranked& r : ranked) walk.stack.push_back(r.node);
}

void ScribeNode::process_walk(std::shared_ptr<WalkMsg> walk) {
  if (obs::TraceRecorder* tr = owner_->network().trace()) {
    tr->instant(owner_->network().simulator_for(owner_->host()).now(), walk->trace,
                static_cast<int>(owner_->handle().host), "anycast.visit",
                "scribe", "nodes_visited",
                static_cast<double>(walk->nodes_visited));
  }
  const GroupState* st = find_group(walk->group);
  // Offer to local apps first (members only).
  if (st != nullptr && st->member) {
    for (ScribeApp* app : apps_) {
      if (app->on_anycast(*this, walk->group, walk->inner, walk->origin)) {
        auto ok = std::make_shared<AnycastAcceptedMsg>();
        ok->group = walk->group;
        ok->inner = walk->inner;
        ok->acceptor = owner_->handle();
        ok->nodes_visited = walk->nodes_visited;
        ok->trace = walk->trace;
        owner_->send_reliable(walk->origin, std::move(ok),
                              walk->inner_category);
        return;
      }
    }
  }
  // Continue the DFS.
  auto next_walk = std::make_shared<WalkMsg>(*walk);
  if (st != nullptr) push_neighbors(*next_walk, *st);
  // Drop already-visited stack entries (can happen when two branches pushed
  // the same node).
  while (!next_walk->stack.empty()) {
    NodeHandle top = next_walk->stack.back();
    next_walk->stack.pop_back();
    if (std::find(next_walk->visited.begin(), next_walk->visited.end(),
                  top.id) != next_walk->visited.end()) {
      continue;
    }
    next_walk->visited.push_back(top.id);
    next_walk->nodes_visited += 1;
    // Reliable: losing one DFS hop would kill the whole walk silently.
    owner_->send_reliable(top, next_walk, next_walk->inner_category);
    return;
  }
  // Stack exhausted: no member accepted.
  auto fail = std::make_shared<AnycastFailedMsg>();
  fail->group = walk->group;
  fail->inner = walk->inner;
  fail->nodes_visited = walk->nodes_visited;
  fail->trace = walk->trace;
  owner_->send_reliable(walk->origin, std::move(fail), walk->inner_category);
}

void ScribeNode::receive_direct(pastry::PastryNode& self,
                                const NodeHandle& from,
                                const PayloadPtr& payload,
                                MsgCategory category) {
  (void)self;
  (void)category;
  if (auto dis = std::dynamic_pointer_cast<const DisseminateMsg>(payload)) {
    disseminate(dis->group, dis->inner, dis->inner_category);
    return;
  }
  if (auto lv = std::dynamic_pointer_cast<const LeaveMsg>(payload)) {
    remove_child(lv->group, lv->child);
    return;
  }
  if (auto hb = std::dynamic_pointer_cast<const HeartbeatMsg>(payload)) {
    const GroupState* st = find_group(hb->group);
    if (st == nullptr || !st->in_tree()) {
      auto nack = std::make_shared<HeartbeatNackMsg>();
      nack->group = hb->group;
      owner_->send_reliable(hb->child, std::move(nack),
                            MsgCategory::kScribeControl);
      return;
    }
    add_child(hb->group, hb->child);  // heals a silently dropped edge
    return;
  }
  if (auto nack = std::dynamic_pointer_cast<const HeartbeatNackMsg>(payload)) {
    // Our supposed parent is not in the tree: detach and rejoin.
    const GroupState* st = find_group(nack->group);
    if (st != nullptr && st->attached && !st->root && st->parent == from) {
      detach_and_rejoin(nack->group);
    }
    return;
  }
  if (auto reset = std::dynamic_pointer_cast<const ParentResetMsg>(payload)) {
    // Our parent lost its root path; the subtree dissolves recursively.
    const GroupState* st = find_group(reset->group);
    if (st != nullptr && st->attached && !st->root && st->parent == from) {
      detach_and_rejoin(reset->group);
    }
    return;
  }
  if (auto walk = std::dynamic_pointer_cast<const WalkMsg>(payload)) {
    process_walk(std::make_shared<WalkMsg>(*walk));
    return;
  }
  if (auto ok = std::dynamic_pointer_cast<const AnycastAcceptedMsg>(payload)) {
    if (obs::TraceRecorder* tr = owner_->network().trace()) {
      tr->end(owner_->network().simulator_for(owner_->host()).now(), ok->trace,
              static_cast<int>(owner_->handle().host), "scribe.anycast",
              "scribe", "accepted", 1.0, "nodes_visited",
              static_cast<double>(ok->nodes_visited));
    }
    for (ScribeApp* app : apps_) {
      app->on_anycast_accepted(*this, ok->group, ok->inner, ok->acceptor,
                               ok->nodes_visited);
    }
    return;
  }
  if (auto fail = std::dynamic_pointer_cast<const AnycastFailedMsg>(payload)) {
    if (obs::TraceRecorder* tr = owner_->network().trace()) {
      tr->end(owner_->network().simulator_for(owner_->host()).now(), fail->trace,
              static_cast<int>(owner_->handle().host), "scribe.anycast",
              "scribe", "accepted", 0.0, "nodes_visited",
              static_cast<double>(fail->nodes_visited));
    }
    for (ScribeApp* app : apps_) {
      app->on_anycast_failed(*this, fail->group, fail->inner);
    }
    return;
  }
  (void)from;
}

void ScribeNode::detach_and_rejoin(const GroupId& group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  GroupState& st = it->second;
  // Explicitly leave the old parent: it may have re-added us from an
  // in-flight heartbeat after it reset us, and a stale edge means duplicate
  // multicast delivery.  Harmless if the parent is dead or already pruned.
  if (st.attached && st.parent.valid()) {
    auto leave = std::make_shared<LeaveMsg>();
    leave->group = group;
    leave->child = owner_->handle();
    owner_->send_reliable(st.parent, std::move(leave),
                          MsgCategory::kScribeControl);
  }
  st.attached = false;
  st.parent = pastry::kNoHandle;
  // Dissolve the subtree: if our rejoin were intercepted by one of our own
  // descendants, the tree would cycle.  Children rejoin independently.
  std::vector<NodeHandle> children = std::move(st.children);
  st.children.clear();
  for (const NodeHandle& child : children) {
    auto reset = std::make_shared<ParentResetMsg>();
    reset->group = group;
    owner_->send_reliable(child, std::move(reset),
                          MsgCategory::kScribeControl);
  }
  if (!children.empty()) {
    for (ScribeApp* app : apps_) app->on_children_changed(*this, group);
  }
  if (st.member) {
    if (!st.join_pending) {
      st.join_pending = true;
      auto msg = std::make_shared<JoinMsg>();
      msg->group = group;
      msg->joiner = owner_->handle();
      owner_->route(group, std::move(msg), MsgCategory::kScribeControl);
    }
  } else {
    maybe_prune(group);
  }
}

void ScribeNode::on_node_failed(pastry::PastryNode& self,
                                const NodeHandle& failed) {
  (void)self;
  // Tree repair: drop failed children; groups whose parent died detach and
  // rejoin (Scribe's self-repairing trees, §III.E).
  std::vector<GroupId> detach;
  for (auto& [group, st] : groups_) {
    auto pos = std::find(st.children.begin(), st.children.end(), failed);
    if (pos != st.children.end()) {
      st.children.erase(pos);
      for (ScribeApp* app : apps_) app->on_children_changed(*this, group);
    }
    if (st.attached && !st.root && st.parent == failed) detach.push_back(group);
  }
  for (const GroupId& group : detach) detach_and_rejoin(group);
}

}  // namespace vb::scribe
