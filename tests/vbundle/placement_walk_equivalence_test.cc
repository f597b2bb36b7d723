// Equivalence lock for the placement spill-over walk: the heap-ordered
// frontier (src/vbundle/placement.cc) must make exactly the moves of the
// original design, kept verbatim below as RefAgent — a frontier vector
// that is re-sorted with std::stable_sort on every hop and searched
// linearly for known ids.
//
// Two identical, nearly full clouds boot the same VMs, one through the
// real VBundleAgent and one through RefAgent (its own payload types, which
// VBundleAgent ignores).  Every walk message delivered is recorded as
// (time, host, wire_bytes, visits, frontier size), every completion as
// (vm, host, visits); both records, the per-node traffic counters and the
// final placements must agree exactly.  The scenario runs again under a
// FaultPlan that duplicates messages, so forked walks, and the fault
// plan's random stream, must match as well; and once more with failed
// boots rejecting their tenant's bundle, so forks outlive destroyed VMs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "pastry/pastry_network.h"
#include "sim/fault_plan.h"
#include "vbundle/cloud.h"

namespace vb::core {
namespace {

using pastry::MsgCategory;
using pastry::NodeHandle;

// --- the reference: the pre-heap walk, verbatim -----------------------------

struct RefBootQueryMsg : pastry::Payload {
  host::VmId vm = -1;
  host::VmSpec spec;
  host::CustomerId customer = -1;
  pastry::NodeHandle requester;
  std::size_t wire_bytes() const override { return 96; }
};

struct RefWalkMsg : pastry::Payload {
  host::VmId vm = -1;
  host::VmSpec spec;
  host::CustomerId customer = -1;
  pastry::NodeHandle requester;
  pastry::NodeHandle anchor;
  std::vector<pastry::NodeHandle> frontier;
  std::vector<U128> visited;
  int visits = 0;
  int max_visits = 256;
  std::size_t wire_bytes() const override {
    return 112 + 24 * frontier.size() + 16 * visited.size();
  }
};

struct RefAckMsg : pastry::Payload {
  host::VmId vm = -1;
  pastry::NodeHandle server;
  int visits = 0;
  std::size_t wire_bytes() const override { return 64; }
};

struct RefNackMsg : pastry::Payload {
  host::VmId vm = -1;
  int visits = 0;
  std::size_t wire_bytes() const override { return 48; }
};

class RefAgent : public pastry::PastryApp {
 public:
  RefAgent(pastry::PastryNode* node, host::Fleet* fleet,
           const VBundleConfig* cfg)
      : node_(node), fleet_(fleet), cfg_(cfg) {
    node_->add_app(this);
  }

  void request_boot(const U128& customer_key, host::VmId vm,
                    const host::VmSpec& spec, host::CustomerId customer,
                    BootCallback cb) {
    pending_boots_[vm] = std::move(cb);
    auto q = std::make_shared<RefBootQueryMsg>();
    q->vm = vm;
    q->spec = spec;
    q->customer = customer;
    q->requester = node_->handle();
    node_->route(customer_key, std::move(q), MsgCategory::kVBundle);
  }

  void deliver(pastry::PastryNode&, const pastry::RouteMsg& msg) override {
    if (auto q = std::dynamic_pointer_cast<const RefBootQueryMsg>(msg.payload)) {
      handle_boot_query(*q);
    }
  }

  void receive_direct(pastry::PastryNode&, const NodeHandle&,
                      const pastry::PayloadPtr& payload,
                      MsgCategory) override {
    if (auto walk = std::dynamic_pointer_cast<const RefWalkMsg>(payload)) {
      handle_placement_walk(*walk);
      return;
    }
    if (auto ack = std::dynamic_pointer_cast<const RefAckMsg>(payload)) {
      finish(ack->vm, ack->server.host, ack->visits);
      return;
    }
    if (auto nack = std::dynamic_pointer_cast<const RefNackMsg>(payload)) {
      finish(nack->vm, -1, nack->visits);
    }
  }

 private:
  void finish(host::VmId vm, int h, int visits) {
    auto it = pending_boots_.find(vm);
    if (it == pending_boots_.end()) return;
    BootCallback cb = std::move(it->second);
    pending_boots_.erase(it);
    if (cb) cb(vm, h, visits);
  }

  // A duplicate's fork reaching a server after the VM found a home, or
  // after it was destroyed, is dropped, as in VBundleAgent.
  bool already_placed(host::VmId vm) const {
    const host::Vm& v = fleet_->vm(vm);
    return v.host != -1 || v.destroyed;
  }

  bool try_host_locally(host::VmId vm) {
    return fleet_->place(vm, node_->host());
  }

  void seed_frontier(RefWalkMsg& walk) const {
    for (const NodeHandle& n : node_->neighbor_set().members()) {
      walk.frontier.push_back(n);
    }
  }

  void handle_boot_query(const RefBootQueryMsg& q) {
    if (already_placed(q.vm)) return;
    if (try_host_locally(q.vm)) {
      auto ack = std::make_shared<RefAckMsg>();
      ack->vm = q.vm;
      ack->server = node_->handle();
      ack->visits = 1;
      node_->send_direct(q.requester, std::move(ack), MsgCategory::kVBundle);
      return;
    }
    auto walk = std::make_shared<RefWalkMsg>();
    walk->vm = q.vm;
    walk->spec = q.spec;
    walk->customer = q.customer;
    walk->requester = q.requester;
    walk->anchor = node_->handle();
    walk->visited.push_back(node_->id());
    walk->visits = 1;
    walk->max_visits = cfg_->max_placement_visits;
    seed_frontier(*walk);
    continue_walk(std::move(walk));
  }

  void handle_placement_walk(const RefWalkMsg& msg) {
    if (already_placed(msg.vm)) return;
    auto walk = std::make_shared<RefWalkMsg>(msg);
    walk->visited.push_back(node_->id());
    walk->visits += 1;
    if (try_host_locally(walk->vm)) {
      auto ack = std::make_shared<RefAckMsg>();
      ack->vm = walk->vm;
      ack->server = node_->handle();
      ack->visits = walk->visits;
      node_->send_direct(walk->requester, std::move(ack),
                         MsgCategory::kVBundle);
      return;
    }
    const net::Topology& topo = node_->network().topology();
    for (const NodeHandle& n : node_->neighbor_set().members()) {
      bool seen =
          std::find(walk->visited.begin(), walk->visited.end(), n.id) !=
              walk->visited.end() ||
          std::find(walk->frontier.begin(), walk->frontier.end(), n) !=
              walk->frontier.end();
      if (!seen) walk->frontier.push_back(n);
    }
    auto anchor_rank = [&](const NodeHandle& n) {
      long tier = static_cast<long>(topo.proximity(walk->anchor.host, n.host));
      long delta = n.host > walk->anchor.host ? n.host - walk->anchor.host
                                              : walk->anchor.host - n.host;
      return tier * 1'000'000L + delta;
    };
    std::stable_sort(walk->frontier.begin(), walk->frontier.end(),
                     [&](const NodeHandle& a, const NodeHandle& b) {
                       return anchor_rank(a) < anchor_rank(b);
                     });
    continue_walk(std::move(walk));
  }

  void continue_walk(std::shared_ptr<RefWalkMsg> walk) {
    while (!walk->frontier.empty() && walk->visits < walk->max_visits) {
      NodeHandle next = walk->frontier.front();
      walk->frontier.erase(walk->frontier.begin());
      if (std::find(walk->visited.begin(), walk->visited.end(), next.id) !=
          walk->visited.end()) {
        continue;
      }
      node_->send_direct(next, walk, MsgCategory::kVBundle);
      return;
    }
    auto nack = std::make_shared<RefNackMsg>();
    nack->vm = walk->vm;
    nack->visits = walk->visits;
    node_->send_direct(walk->requester, std::move(nack), MsgCategory::kVBundle);
  }

  pastry::PastryNode* node_;
  host::Fleet* fleet_;
  const VBundleConfig* cfg_;
  std::map<host::VmId, BootCallback> pending_boots_;
};

// --- recording --------------------------------------------------------------

/// (delivery time, receiving host, wire_bytes, visits, frontier)
using Hop = std::tuple<double, int, std::size_t, int, std::size_t>;
/// (vm, host or -1, visits)
using Done = std::tuple<host::VmId, int, int>;

/// Registered on every node of a cloud after its placement agent; records
/// each walk message of type `Walk` as it arrives.
template <class Walk>
class HopRecorder : public pastry::PastryApp {
 public:
  explicit HopRecorder(VBundleCloud* cloud) : cloud_(cloud) {}
  void deliver(pastry::PastryNode&, const pastry::RouteMsg&) override {}
  void receive_direct(pastry::PastryNode& self, const NodeHandle&,
                      const pastry::PayloadPtr& payload,
                      MsgCategory) override {
    if (auto w = std::dynamic_pointer_cast<const Walk>(payload)) {
      hops.emplace_back(cloud_->now(), self.host(), w->wire_bytes(), w->visits,
                        w->frontier.size());
      // A fork of a destroyed VM's walk that reached a server that had
      // room for it (or, with no guard, took that room).
      const host::Fleet& fleet = cloud_->fleet();
      const host::Vm& v = fleet.vm(w->vm);
      if (v.destroyed && (v.host == self.host() ||
                          fleet.host(self.host()).can_admit(v.spec))) {
        ++late_forks;
      }
    }
  }
  std::vector<Hop> hops;
  int late_forks = 0;

 private:
  VBundleCloud* cloud_;
};

struct Outcome {
  std::vector<Hop> hops;
  std::vector<Done> done;
  std::vector<std::uint64_t> node_bytes;
  std::vector<int> vm_hosts;
  int destroyed_placed = 0;  ///< destroyed VMs still holding a host
  int late_forks = 0;
  std::uint64_t dups = 0;
};

CloudConfig walk_config(int max_visits) {
  CloudConfig c;
  c.topology.num_pods = 2;
  c.topology.racks_per_pod = 3;
  c.topology.hosts_per_rack = 6;  // 36 servers
  c.vbundle.max_placement_visits = max_visits;
  c.seed = 11;
  return c;
}

/// Fills every server to within one 100 Mbps slot of full, leaving a slot
/// free on about one server in four, then boots `boots` VMs for two
/// tenants one after another.  `reference` picks RefAgent over
/// VBundleAgent; `dup_prob` > 0 attaches a duplicating FaultPlan.  With
/// `reject_bundles`, a failed boot rejects its tenant's bundle as
/// arena::VBundleEmbedder does: the VM and every VM the tenant holds are
/// destroyed at once, while forks of their walks may still be in flight.
Outcome run(bool reference, int max_visits, double dup_prob, int boots,
            bool reject_bundles = false) {
  VBundleCloud cloud(walk_config(max_visits));
  sim::FaultPlan plan(99);
  if (dup_prob > 0) {
    plan.uniform_duplication(dup_prob);
    cloud.pastry().set_fault_plan(&plan);
  }
  const int n = cloud.num_hosts();
  host::Fleet& fleet = cloud.fleet();
  const host::VmSpec slot{100, 200};

  host::CustomerId filler = cloud.add_customer("filler");
  const host::CustomerId tenants[2] = {cloud.add_customer("IBM"),
                                       cloud.add_customer("Dell")};
  Rng rng(5);
  for (int h = 0; h < n; ++h) {
    int vms = rng.chance(0.25) ? 9 : 10;
    for (int i = 0; i < vms; ++i) {
      EXPECT_TRUE(fleet.place(fleet.create_vm(filler, slot), h));
    }
  }

  std::vector<std::unique_ptr<RefAgent>> refs;
  HopRecorder<PlacementWalkMsg> real_hops(&cloud);
  HopRecorder<RefWalkMsg> ref_hops(&cloud);
  for (int h = 0; h < n; ++h) {
    pastry::PastryNode& node = cloud.agent(h).node();
    if (reference) {
      refs.push_back(std::make_unique<RefAgent>(&node, &fleet,
                                                &cloud.vbundle_config()));
      node.add_app(&ref_hops);
    } else {
      node.add_app(&real_hops);
    }
  }

  Outcome out;
  std::map<host::CustomerId, std::vector<host::VmId>> bundles;
  for (int i = 0; i < boots; ++i) {
    host::CustomerId c = tenants[i % 2];
    host::VmId vm = fleet.create_vm(c, slot);
    int gw = static_cast<int>(vm) % n;
    auto cb = [&, c](host::VmId id, int h, int visits) {
      out.done.emplace_back(id, h, visits);
      if (!reject_bundles) return;
      if (h >= 0) {
        bundles[c].push_back(id);
        return;
      }
      cloud.shutdown_vm(id);
      for (host::VmId placed : bundles[c]) cloud.shutdown_vm(placed);
      bundles[c].clear();
    };
    if (reference) {
      refs[static_cast<std::size_t>(gw)]->request_boot(cloud.customer_key(c),
                                                       vm, slot, c, cb);
    } else {
      cloud.agent(gw).request_boot(cloud.customer_key(c), vm, slot, c, cb);
    }
    cloud.run_until(cloud.now() + 5.0);
  }
  out.hops = reference ? ref_hops.hops : real_hops.hops;
  out.late_forks = reference ? ref_hops.late_forks : real_hops.late_forks;
  out.node_bytes = cloud.pastry().per_node_bytes();
  for (const host::Vm& v : fleet.all_vms()) {
    out.vm_hosts.push_back(v.host);
    out.destroyed_placed += v.destroyed && v.host != -1 ? 1 : 0;
  }
  out.dups = cloud.pastry().total_fault_dups();
  return out;
}

void expect_same(const Outcome& real, const Outcome& ref) {
  ASSERT_EQ(real.hops.size(), ref.hops.size());
  for (std::size_t i = 0; i < real.hops.size(); ++i) {
    ASSERT_EQ(real.hops[i], ref.hops[i]) << "walk message " << i;
  }
  EXPECT_EQ(real.done, ref.done);
  EXPECT_EQ(real.node_bytes, ref.node_bytes);
  EXPECT_EQ(real.vm_hosts, ref.vm_hosts);
  EXPECT_EQ(real.late_forks, ref.late_forks);
  EXPECT_EQ(real.dups, ref.dups);
}

int longest_walk(const Outcome& o) {
  int most = 0;
  for (const Done& d : o.done) most = std::max(most, std::get<2>(d));
  return most;
}

TEST(PlacementWalkEquivalence, HeapFrontierMakesTheReferenceMoves) {
  const int kBoots = 14;
  Outcome real = run(false, 256, 0.0, kBoots);
  Outcome ref = run(true, 256, 0.0, kBoots);
  expect_same(real, ref);
  // The scenario is what it claims: long walks that fill the free slots,
  // then walks that exhaust the frontier and fail.
  ASSERT_EQ(real.done.size(), static_cast<std::size_t>(kBoots));
  EXPECT_GE(longest_walk(real), 20);
  EXPECT_TRUE(std::any_of(real.done.begin(), real.done.end(),
                          [](const Done& d) { return std::get<1>(d) < 0; }));
}

TEST(PlacementWalkEquivalence, VisitBudgetCutsBothWalksAtTheSameHop) {
  Outcome real = run(false, 6, 0.0, 10);
  Outcome ref = run(true, 6, 0.0, 10);
  expect_same(real, ref);
  EXPECT_EQ(longest_walk(real), 6);
}

TEST(PlacementWalkEquivalence, ForkedWalksUnderDuplicationMatch) {
  Outcome real = run(false, 256, 0.3, 14);
  Outcome ref = run(true, 256, 0.3, 14);
  expect_same(real, ref);
  EXPECT_GT(real.dups, 0u);
  // Some walk message arrived twice: a fork.
  std::map<std::pair<int, int>, int> arrivals;
  int forks = 0;
  for (const Hop& h : real.hops) {
    forks += ++arrivals[{std::get<1>(h), std::get<3>(h)}] > 1 ? 1 : 0;
  }
  EXPECT_GT(forks, 0);
}

TEST(PlacementWalkEquivalence, ForksOfARejectedBundleStop) {
  Outcome real = run(false, 256, 0.3, 14, /*reject_bundles=*/true);
  Outcome ref = run(true, 256, 0.3, 14, /*reject_bundles=*/true);
  expect_same(real, ref);
  // The scenario is what it claims: some fork of a destroyed VM's walk
  // reached a server with room for it, and it did not take that room.
  EXPECT_GT(real.late_forks, 0);
  EXPECT_EQ(real.destroyed_placed, 0);
}

}  // namespace
}  // namespace vb::core
