// Implementation of PastryNetwork::bootstrap_bulk (declared in
// pastry_network.h, documented in bulk_bootstrap.h).
//
// Every phase feeds candidates through PastryNode::learn(), the same entry
// point the oracle and the join protocol use.  learn() is a running minimum
// under each component's total order, so correctness only requires
// *coverage*: each node must be offered every canonical winner at least
// once.  Extra candidates (phase overlap, brute-forced small runs) are
// harmlessly absorbed — the minimum is unchanged — which keeps the
// synthesized state bit-identical to an oracle bootstrap of the same fleet.
#include "pastry/bulk_bootstrap.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "net/topology.h"

namespace vb::pastry {
namespace {

// Below this run length the digit-trie recursion switches to all-pairs
// learn(): the summary maps cost more than they save on tiny runs, and
// all-pairs trivially covers every row >= depth winner.
constexpr int kBruteCutoff = 48;

void brute_learn(const std::vector<PastryNode*>& ring, int lo, int hi) {
  for (int i = lo; i < hi; ++i) {
    for (int j = lo; j < hi; ++j) {
      if (i != j) ring[i]->learn(ring[j]->handle());
    }
  }
}

// Fills every routing-table cell (row >= depth) for the nodes in
// ring[lo, hi), which all share `depth` leading id digits.  Sorted ids make
// each child digit a contiguous run, and within a run the front node is the
// minimum id — so the per-child summaries only need host/rack/pod -> first
// occurrence to answer "minimum (proximity, id) candidate for node X" in
// O(1): the tiers partition the run (a populated nearer tier map always
// contains the tier's true minimum), and a missing nearer tier means no such
// candidate exists at all.
void fill_routing(const std::vector<PastryNode*>& ring,
                  const net::Topology& topo, int lo, int hi, int depth) {
  const int n = hi - lo;
  if (n <= 1) return;
  if (n <= kBruteCutoff || depth >= kIdDigits) {
    brute_learn(ring, lo, hi);
    return;
  }

  std::array<int, kIdBase + 1> start{};
  int i = lo;
  for (int c = 0; c < kIdBase; ++c) {
    start[static_cast<std::size_t>(c)] = i;
    while (i < hi && ring[static_cast<std::size_t>(i)]->handle().id.digit(depth) == c) ++i;
  }
  start[kIdBase] = hi;

  struct Summary {
    std::unordered_map<int, int> host_min;  // host  -> min-id node index
    std::unordered_map<int, int> rack_min;  // rack  -> min-id node index
    std::unordered_map<int, int> pod_min;   // pod   -> min-id node index
  };
  std::array<Summary, kIdBase> sum;
  for (int c = 0; c < kIdBase; ++c) {
    for (int k = start[static_cast<std::size_t>(c)];
         k < start[static_cast<std::size_t>(c) + 1]; ++k) {
      net::HostId h = ring[static_cast<std::size_t>(k)]->handle().host;
      auto& s = sum[static_cast<std::size_t>(c)];
      s.host_min.emplace(static_cast<int>(h), k);  // emplace keeps the first
      s.rack_min.emplace(topo.rack_of(h), k);      // = min id (sorted run)
      s.pod_min.emplace(topo.pod_of(h), k);
    }
  }

  for (int c = 0; c < kIdBase; ++c) {
    for (int k = start[static_cast<std::size_t>(c)];
         k < start[static_cast<std::size_t>(c) + 1]; ++k) {
      PastryNode* x = ring[static_cast<std::size_t>(k)];
      const net::HostId xh = x->handle().host;
      const int xr = topo.rack_of(xh);
      const int xp = topo.pod_of(xh);
      for (int c2 = 0; c2 < kIdBase; ++c2) {
        if (c2 == c) continue;
        const auto lo2 = start[static_cast<std::size_t>(c2)];
        if (lo2 == start[static_cast<std::size_t>(c2) + 1]) continue;
        const Summary& s = sum[static_cast<std::size_t>(c2)];
        int w;
        if (auto it = s.host_min.find(static_cast<int>(xh));
            it != s.host_min.end()) {
          w = it->second;
        } else if (auto it2 = s.rack_min.find(xr); it2 != s.rack_min.end()) {
          w = it2->second;
        } else if (auto it3 = s.pod_min.find(xp); it3 != s.pod_min.end()) {
          w = it3->second;
        } else {
          w = lo2;  // cross-pod for X: min id is the run's front
        }
        x->learn(ring[static_cast<std::size_t>(w)]->handle());
      }
    }
  }

  for (int c = 0; c < kIdBase; ++c) {
    fill_routing(ring, topo, start[static_cast<std::size_t>(c)],
                 start[static_cast<std::size_t>(c) + 1], depth + 1);
  }
}

// Leaf sets: node i's canonical leaves are its `half` successors and `half`
// predecessors in sorted ring order (ring distances to anything farther are
// strictly larger, so nothing else can enter a full side).
void fill_leaves(const std::vector<PastryNode*>& ring) {
  const int n = static_cast<int>(ring.size());
  for (int i = 0; i < n; ++i) {
    PastryNode* x = ring[static_cast<std::size_t>(i)];
    const int span = std::min(static_cast<int>(x->leaf_set().half()), n - 1);
    for (int k = 1; k <= span; ++k) {
      x->learn(ring[static_cast<std::size_t>((i + k) % n)]->handle());
      x->learn(ring[static_cast<std::size_t>((i - k + n) % n)]->handle());
    }
  }
}

// Neighbor sets: the local side sees every node hosted in the owner's rack;
// the remote side walks occupied hosts outward from the owner's host (both
// directions, same-rack hosts skipped) until a whole |delta| tier has been
// offered and the quota is met — any host farther out keys strictly larger
// than the quota-th kept entry and can never displace it.
void fill_neighbors(const std::vector<PastryNode*>& ring,
                    const net::Topology& topo) {
  std::vector<std::vector<int>> by_host(
      static_cast<std::size_t>(topo.num_hosts()));
  for (int i = 0; i < static_cast<int>(ring.size()); ++i) {
    by_host[static_cast<std::size_t>(ring[static_cast<std::size_t>(i)]->handle().host)]
        .push_back(i);
  }
  std::vector<net::HostId> occ;
  for (net::HostId h = 0; h < topo.num_hosts(); ++h) {
    if (!by_host[static_cast<std::size_t>(h)].empty()) occ.push_back(h);
  }
  const int hpr = topo.config().hosts_per_rack;

  for (int i = 0; i < static_cast<int>(ring.size()); ++i) {
    PastryNode* x = ring[static_cast<std::size_t>(i)];
    const net::HostId xh = x->handle().host;
    const int xr = topo.rack_of(xh);

    const net::HostId rack_lo = topo.rack_first_host(xr);
    for (net::HostId h = rack_lo; h < rack_lo + hpr; ++h) {
      for (int j : by_host[static_cast<std::size_t>(h)]) {
        if (j != i) x->learn(ring[static_cast<std::size_t>(j)]->handle());
      }
    }

    const std::size_t want = x->neighbor_set().remote_capacity();
    auto it = std::lower_bound(occ.begin(), occ.end(), xh);
    int li = static_cast<int>(it - occ.begin()) - 1;
    int ri = static_cast<int>(it - occ.begin()) + 1;
    std::size_t fed = 0;
    const auto feed_host = [&](net::HostId h) {
      if (topo.rack_of(h) == xr) return;  // local class, handled above
      for (int j : by_host[static_cast<std::size_t>(h)]) {
        x->learn(ring[static_cast<std::size_t>(j)]->handle());
        ++fed;
      }
    };
    while (li >= 0 || ri < static_cast<int>(occ.size())) {
      const long dl =
          li >= 0 ? static_cast<long>(xh) - occ[static_cast<std::size_t>(li)]
                  : -1;
      const long dr = ri < static_cast<int>(occ.size())
                          ? static_cast<long>(occ[static_cast<std::size_t>(ri)]) - xh
                          : -1;
      const long d = (dl < 0)   ? dr
                     : (dr < 0) ? dl
                                : std::min(dl, dr);
      // Offer the whole |delta| tier (both sides) before testing the quota:
      // equal deltas tie-break by id, so a tier must never be half-fed.
      if (dl == d) feed_host(occ[static_cast<std::size_t>(li--)]);
      if (dr == d) feed_host(occ[static_cast<std::size_t>(ri++)]);
      if (fed >= want) break;
    }
  }
}

}  // namespace

std::vector<BulkFleetEntry> fleet_one_per_host(const std::vector<U128>& ids) {
  std::vector<BulkFleetEntry> fleet;
  fleet.reserve(ids.size());
  for (std::size_t h = 0; h < ids.size(); ++h) {
    fleet.push_back({ids[h], static_cast<net::HostId>(h)});
  }
  return fleet;
}

void PastryNetwork::bootstrap_bulk(std::vector<BulkFleetEntry> fleet) {
  if (!nodes_.empty()) {
    throw std::logic_error("bootstrap_bulk: network must be empty");
  }
  if (runner_ != nullptr) {
    throw std::logic_error("bootstrap_bulk: call before enable_sharding");
  }
  std::sort(fleet.begin(), fleet.end(),
            [](const BulkFleetEntry& a, const BulkFleetEntry& b) {
              return a.id < b.id;
            });
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (fleet[i].host < 0 || fleet[i].host >= topo_->num_hosts()) {
      throw std::invalid_argument("bootstrap_bulk: host out of range for id " +
                                  fleet[i].id.short_hex());
    }
    if (i > 0 && fleet[i].id == fleet[i - 1].id) {
      throw std::invalid_argument("bootstrap_bulk: duplicate id " +
                                  fleet[i].id.short_hex());
    }
  }

  std::vector<PastryNode*> ring;
  ring.reserve(fleet.size());
  for (const BulkFleetEntry& f : fleet) {
    Entry e;
    e.node = std::make_unique<PastryNode>(NodeHandle{f.id, f.host}, this);
    ring.push_back(e.node.get());
    emplace_node(f.id, f.host, std::move(e));
  }

  fill_leaves(ring);
  fill_routing(ring, *topo_, 0, static_cast<int>(ring.size()), 0);
  fill_neighbors(ring, *topo_);
}

}  // namespace vb::pastry
