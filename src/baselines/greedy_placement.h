// Greedy placement baselines (paper Fig. 8b and the arena's tree packer).
//
// "The greedy algorithm makes decisions on the basis of information at hand
// without considering the effects these decisions may have in the future.
// It places the new coming VMs on the first server it finds with enough
// resources."
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hostmodel/host.h"
#include "net/topology.h"

namespace vb::baseline {

class GreedyPlacer {
 public:
  explicit GreedyPlacer(host::Fleet* fleet);

  /// Places `vm` on the first host (scanning from host 0) that can admit its
  /// reservation.  Returns the host id, or -1 if the cloud is full.
  int place(host::VmId vm);

  /// Hosts examined across all placements (decision-cost accounting).
  std::uint64_t hosts_examined() const { return hosts_examined_; }

 private:
  host::Fleet* fleet_;
  std::uint64_t hosts_examined_ = 0;
};

/// Oversubscription-aware tree packing for VC(N, B) bundles — the Oktopus
/// family of virtual-cluster embedders, used by the arena as the
/// "greedy_tree" baseline.
///
/// Under the hose model, any subtree holding m of the bundle's N VMs must
/// carry min(m, N - m) * B on its uplink; placing the whole bundle in one
/// rack therefore costs zero bi-section bandwidth.  The packer searches
/// lowest-subtree-first (single rack, then single pod, then cross-pod),
/// best-fit at each level, and accounts the uplink bandwidth a spread
/// placement consumes in its own ledger so concurrent bundles cannot
/// oversubscribe a ToR/agg uplink's reservable capacity.
///
/// pack() only *plans*: it never mutates the fleet.  The caller places the
/// VMs and calls reserve_uplinks() on acceptance, and release_uplinks() when
/// the bundle departs.  The search is conservative (a greedy fill that
/// violates an uplink budget rejects the level rather than backtracking) and
/// fully deterministic: every ordering is by (capacity, id) with explicit
/// tie-breaks.
///
/// Free capacity is read incrementally.  For every VM shape it has packed,
/// the packer caches how many VMs of that shape each host could still admit
/// (uncapped), stamped with the host's Fleet::reservation_rev.  A pack
/// recomputes only the hosts whose revision moved since, so a campaign pays
/// for the hosts its own placements and departures touched, not for a
/// division per host per request.
class GreedyTreePacker {
 public:
  struct Result {
    bool ok = false;
    /// Planned host for each of the bundle's N VMs (index = VM ordinal).
    std::vector<int> hosts;
    /// ToR/agg uplink bandwidth this placement consumes, as (link, Mbps)
    /// pairs — empty for single-rack placements.
    std::vector<std::pair<net::LinkId, double>> uplink_holds;
    std::uint64_t hosts_examined = 0;
  };

  GreedyTreePacker(host::Fleet* fleet, const net::Topology* topo);

  /// Plans placement of an N-VM bundle where every VM has spec `spec` and
  /// the hose bandwidth B is spec.reservation_mbps.
  Result pack(int n_vms, const host::VmSpec& spec);

  /// Commits / returns the uplink bandwidth of an accepted / departed
  /// bundle against this packer's ledger.
  void reserve_uplinks(
      const std::vector<std::pair<net::LinkId, double>>& holds);
  void release_uplinks(
      const std::vector<std::pair<net::LinkId, double>>& holds);

  /// Ledgered reservation on one uplink, Mbps.
  double uplink_reserved(net::LinkId l) const {
    return uplink_reserved_.at(static_cast<std::size_t>(l));
  }

  /// Hosts examined across all pack() calls (decision-cost accounting).
  /// Logical: every pack() counts every host, cached or not.
  std::uint64_t hosts_examined() const { return hosts_examined_; }

  /// Runtime consistency checks; returns one message per violation, each
  /// prefixed with the name of the check it failed:
  ///   uplink_ledger — a link's ledgered reservation differs from the sum
  ///                   of `live_holds` (the holds of every live bundle) by
  ///                   more than 1e-6 Mbps;
  ///   slot_cache    — a cached slot count stamped with the host's current
  ///                   revision differs from a fresh computation.
  std::vector<std::string> audit(
      const std::vector<std::pair<net::LinkId, double>>& live_holds) const;

 private:
  /// Per-host slot counts of one VM shape.
  struct SlotCache {
    double mbps = 0.0;  ///< the shape: bandwidth, CPU and memory
    double cpu = 0.0;   ///< reservations of one VM
    double ram = 0.0;
    std::vector<int> slots;          ///< slots_on_host at `rev`
    std::vector<std::uint64_t> rev;  ///< Fleet revision of each count
  };

  double uplink_free(net::LinkId l) const;
  /// VMs of `spec` host `h` can still admit, clamped to [0, INT_MAX].
  int slots_on_host(int h, const host::VmSpec& spec) const;
  /// The cache of `spec`'s shape, created empty on first use.
  SlotCache& cache_for(const host::VmSpec& spec);

  host::Fleet* fleet_;
  const net::Topology* topo_;
  std::vector<double> uplink_reserved_;
  std::vector<SlotCache> caches_;
  std::uint64_t hosts_examined_ = 0;
};

}  // namespace vb::baseline
