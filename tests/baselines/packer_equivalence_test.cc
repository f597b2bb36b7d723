// Equivalence property test for GreedyTreePacker's incremental slot cache.
//
// The cached packer recomputes a host's slot count only when the host's
// Fleet::reservation_rev moved.  This test drives seeded random sequences
// of place / unplace / migrate / destroy / hold / release, with checkpoint
// restores into the same fleet and into a fresh one, and checks that every
// pack() returns exactly what the uncached packer (kept verbatim below as
// the oracle) returns for the same fleet and uplink ledger.  A Fleet
// mutator that forgot to move a revision leaves a stale count behind and
// shows up here as a diverging plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/greedy_placement.h"
#include "ckpt/format.h"
#include "common/rng.h"
#include "hostmodel/host.h"
#include "net/topology.h"

namespace vb::baseline {
namespace {

using Holds = std::vector<std::pair<net::LinkId, double>>;

constexpr double kEps = 1e-9;

// The tree packer as it was before the slot cache: every pack() computes
// every host's slot count afresh.  The oracle for the cached packer.
class ReferencePacker {
 public:
  ReferencePacker(host::Fleet* fleet, const net::Topology* topo)
      : fleet_(fleet),
        topo_(topo),
        uplink_reserved_(static_cast<std::size_t>(topo->num_links()), 0.0) {}

  GreedyTreePacker::Result pack(int n_vms, const host::VmSpec& spec);

  void reserve_uplinks(const Holds& holds) {
    for (const auto& [l, mbps] : holds) {
      uplink_reserved_[static_cast<std::size_t>(l)] += mbps;
    }
  }
  void release_uplinks(const Holds& holds) {
    for (const auto& [l, mbps] : holds) {
      uplink_reserved_[static_cast<std::size_t>(l)] -= mbps;
    }
  }

 private:
  double uplink_free(net::LinkId l) const;
  int slots_on_host(int h, const host::VmSpec& spec, int cap) const;

  host::Fleet* fleet_;
  const net::Topology* topo_;
  std::vector<double> uplink_reserved_;
  std::uint64_t hosts_examined_ = 0;
};

double ReferencePacker::uplink_free(net::LinkId l) const {
  return topo_->link_capacity_mbps(l) -
         uplink_reserved_[static_cast<std::size_t>(l)];
}

int ReferencePacker::slots_on_host(int h, const host::VmSpec& spec,
                                   int cap) const {
  const host::Host& host = fleet_->host(h);
  double s = cap;
  if (spec.reservation_mbps > 0) {
    s = std::min(s, std::floor((host.free_reservation_mbps() + kEps) /
                               spec.reservation_mbps));
  }
  if (spec.cpu_reservation > 0) {
    s = std::min(s, std::floor(
                        (host.cpu_capacity() - host.reserved_cpu() + kEps) /
                        spec.cpu_reservation));
  }
  if (spec.ram_mb > 0) {
    s = std::min(s,
                 std::floor((host.mem_capacity_mb() - host.reserved_mem_mb() +
                             kEps) /
                            spec.ram_mb));
  }
  return std::max(0, static_cast<int>(s));
}

GreedyTreePacker::Result ReferencePacker::pack(int n_vms,
                                               const host::VmSpec& spec) {
  GreedyTreePacker::Result res;
  if (n_vms <= 0) return res;
  const int n = n_vms;
  const int nh = fleet_->num_hosts();
  const int nr = topo_->num_racks();
  const int np = topo_->num_pods();
  const double bw = spec.reservation_mbps;

  std::vector<int> slots(static_cast<std::size_t>(nh));
  std::vector<int> rack_slots(static_cast<std::size_t>(nr), 0);
  for (int h = 0; h < nh; ++h) {
    slots[static_cast<std::size_t>(h)] = slots_on_host(h, spec, n);
    rack_slots[static_cast<std::size_t>(topo_->rack_of(h))] +=
        slots[static_cast<std::size_t>(h)];
  }
  res.hosts_examined = static_cast<std::uint64_t>(nh);
  hosts_examined_ += static_cast<std::uint64_t>(nh);

  // Appends `m` VM placements from rack `r`, hosts in id order.
  auto fill_rack = [&](int r, int m) {
    int h = topo_->rack_first_host(r);
    int end = h + topo_->config().hosts_per_rack;
    for (; h < end && m > 0; ++h) {
      int take = std::min(slots[static_cast<std::size_t>(h)], m);
      for (int i = 0; i < take; ++i) res.hosts.push_back(h);
      m -= take;
    }
  };

  // Level 1: the whole bundle in one rack — zero bi-section bandwidth.
  // Best fit: the *smallest* rack pool that still holds N, preserving big
  // contiguous pools for later large bundles.
  int best = -1;
  for (int r = 0; r < nr; ++r) {
    if (rack_slots[static_cast<std::size_t>(r)] < n) continue;
    if (best == -1 || rack_slots[static_cast<std::size_t>(r)] <
                          rack_slots[static_cast<std::size_t>(best)]) {
      best = r;
    }
  }
  if (best != -1) {
    fill_rack(best, n);
    res.ok = true;
    return res;
  }

  // Greedy rack fill for a spread placement: racks descending by free slots
  // (ties by id), each taking as many VMs as it can.  A rack holding m of
  // the N VMs needs min(m, N - m) * B on its ToR uplink (hose-model cut);
  // racks whose uplink budget can't carry their share are skipped, and the
  // fill fails (empty plan) if the remainder can't be placed — conservative,
  // no backtracking.
  auto plan_racks = [&](std::vector<int> racks,
                        int need) -> std::vector<std::pair<int, int>> {
    std::sort(racks.begin(), racks.end(), [&](int a, int b) {
      int sa = rack_slots[static_cast<std::size_t>(a)];
      int sb = rack_slots[static_cast<std::size_t>(b)];
      if (sa != sb) return sa > sb;
      return a < b;
    });
    std::vector<std::pair<int, int>> out;
    for (int r : racks) {
      if (need == 0) break;
      int m = std::min(rack_slots[static_cast<std::size_t>(r)], need);
      if (m == 0) continue;
      double uplink = std::min(m, n - m) * bw;
      if (uplink > uplink_free(topo_->tor_up(r)) + kEps) continue;
      out.emplace_back(r, m);
      need -= m;
    }
    if (need != 0) out.clear();
    return out;
  };

  auto commit_racks = [&](const std::vector<std::pair<int, int>>& plan) {
    for (const auto& [r, m] : plan) {
      double uplink = std::min(m, n - m) * bw;
      if (uplink > 0) res.uplink_holds.emplace_back(topo_->tor_up(r), uplink);
      fill_rack(r, m);
    }
  };

  const int racks_per_pod = topo_->config().racks_per_pod;
  std::vector<int> pod_slots(static_cast<std::size_t>(np), 0);
  for (int r = 0; r < nr; ++r) {
    pod_slots[static_cast<std::size_t>(r / racks_per_pod)] +=
        rack_slots[static_cast<std::size_t>(r)];
  }

  // Level 2: one pod, spread across its racks.  Best fit again: pods
  // ascending by pool size (ties by id), first feasible plan wins.
  std::vector<int> pods;
  for (int p = 0; p < np; ++p) {
    if (pod_slots[static_cast<std::size_t>(p)] >= n) pods.push_back(p);
  }
  std::sort(pods.begin(), pods.end(), [&](int a, int b) {
    int sa = pod_slots[static_cast<std::size_t>(a)];
    int sb = pod_slots[static_cast<std::size_t>(b)];
    if (sa != sb) return sa < sb;
    return a < b;
  });
  for (int p : pods) {
    std::vector<int> racks;
    for (int r = p * racks_per_pod; r < (p + 1) * racks_per_pod; ++r) {
      racks.push_back(r);
    }
    auto plan = plan_racks(racks, n);
    if (!plan.empty()) {
      commit_racks(plan);
      res.ok = true;
      return res;
    }
  }

  // Level 3: cross-pod.  Pods descending by pool size take what they can;
  // a pod holding m of N needs min(m, N - m) * B on its agg uplink on top
  // of the per-rack ToR budgets inside it.
  std::vector<int> all_pods(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) all_pods[static_cast<std::size_t>(p)] = p;
  std::sort(all_pods.begin(), all_pods.end(), [&](int a, int b) {
    int sa = pod_slots[static_cast<std::size_t>(a)];
    int sb = pod_slots[static_cast<std::size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  std::vector<std::pair<int, int>> pod_plan;  // (pod, m)
  int need = n;
  for (int p : all_pods) {
    if (need == 0) break;
    int m = std::min(pod_slots[static_cast<std::size_t>(p)], need);
    if (m == 0) continue;
    double agg = std::min(m, n - m) * bw;
    if (agg > uplink_free(topo_->agg_up(p)) + kEps) continue;
    pod_plan.emplace_back(p, m);
    need -= m;
  }
  if (need != 0) return res;  // cloud genuinely full (or too fragmented)

  std::vector<std::pair<int, int>> rack_plan;
  for (const auto& [p, m] : pod_plan) {
    std::vector<int> racks;
    for (int r = p * racks_per_pod; r < (p + 1) * racks_per_pod; ++r) {
      racks.push_back(r);
    }
    auto plan = plan_racks(racks, m);
    if (plan.empty()) return res;  // a ToR budget blocks this pod's share
    rack_plan.insert(rack_plan.end(), plan.begin(), plan.end());
  }
  for (const auto& [p, m] : pod_plan) {
    double agg = std::min(m, n - m) * bw;
    if (agg > 0) res.uplink_holds.emplace_back(topo_->agg_up(p), agg);
  }
  commit_racks(rack_plan);
  res.ok = true;
  return res;
}

// --- the random campaign ---------------------------------------------------

constexpr double kNic = 1000.0;
constexpr double kCpu = 16.0;
constexpr double kMem = 8192.0;
// Holds may push a host below zero free capacity, but only this far: the
// oracle casts the uncapped count to int, and with the tiny spec a deeper
// deficit would overflow that cast.
constexpr double kMaxDeficitMbps = 700.0;
constexpr double kMaxDeficitCpu = 16.0;
constexpr double kMaxDeficitMem = 4000.0;

net::TopologyConfig topo_config() {
  net::TopologyConfig cfg;
  cfg.num_pods = 2;
  cfg.racks_per_pod = 3;
  cfg.hosts_per_rack = 4;  // 24 servers
  cfg.host_nic_mbps = kNic;
  cfg.tor_oversubscription = 2.0;
  cfg.agg_oversubscription = 2.0;
  return cfg;
}

host::VmSpec make_spec(double mbps, double cpu, double ram) {
  host::VmSpec s;
  s.reservation_mbps = mbps;
  s.limit_mbps = 2 * mbps;
  s.cpu_reservation = cpu;
  s.cpu_limit = 2 * cpu;
  s.ram_mb = ram;
  return s;
}

// Bandwidth-led, CPU-led, RAM-led, and a tiny spec whose count on an empty
// host exceeds INT_MAX in every dimension (so the cache's clamp is hit).
std::vector<host::VmSpec> spec_menu() {
  return {make_spec(150.0, 0.0, 128.0), make_spec(100.0, 3.0, 1024.0),
          make_spec(50.0, 1.0, 3000.0), make_spec(4e-7, 0.0, 2.5e-6)};
}
constexpr std::size_t kTiny = 3;
const host::VmSpec kBigHold = make_spec(700.0, 6.0, 3000.0);

struct Bundle {
  std::vector<host::VmId> vms;
  Holds holds;
};
struct HeldSpec {
  int host = 0;
  host::VmSpec spec;
};
// Test-side state a checkpoint restore rolls back together with the fleet.
struct World {
  std::vector<Bundle> bundles;
  std::vector<HeldSpec> holds;
};

Holds all_holds(const World& w) {
  Holds out;
  for (const Bundle& b : w.bundles) {
    out.insert(out.end(), b.holds.begin(), b.holds.end());
  }
  return out;
}

::testing::AssertionResult same(const GreedyTreePacker::Result& got,
                                const GreedyTreePacker::Result& want) {
  if (got.ok == want.ok && got.hosts == want.hosts &&
      got.uplink_holds == want.uplink_holds &&
      got.hosts_examined == want.hosts_examined) {
    return ::testing::AssertionSuccess();
  }
  std::ostringstream os;
  os << "cached ok=" << got.ok << " hosts=" << got.hosts.size()
     << " holds=" << got.uplink_holds.size()
     << " examined=" << got.hosts_examined << "; reference ok=" << want.ok
     << " hosts=" << want.hosts.size() << " holds=" << want.uplink_holds.size()
     << " examined=" << want.hosts_examined;
  if (got.hosts != want.hosts) os << " (plans differ)";
  return ::testing::AssertionFailure() << os.str();
}

bool within_deficit(const host::Host& h, const host::VmSpec& s) {
  return h.free_reservation_mbps() - s.reservation_mbps >= -kMaxDeficitMbps &&
         h.cpu_capacity() - h.reserved_cpu() - s.cpu_reservation >=
             -kMaxDeficitCpu &&
         h.mem_capacity_mb() - h.reserved_mem_mb() - s.ram_mb >=
             -kMaxDeficitMem;
}

std::vector<std::uint8_t> save(const host::Fleet& f) {
  ckpt::Writer w;
  f.ckpt_save(w);
  return w.finish();
}

void restore(host::Fleet& f, const std::vector<std::uint8_t>& image) {
  ckpt::Reader r(image);
  f.ckpt_restore(r);
}

class PackerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackerEquivalence, CachedPackMatchesUncachedOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const net::Topology topo(topo_config());
  const std::vector<host::VmSpec> menu = spec_menu();
  const int nh = topo.num_hosts();

  auto f1 = std::make_unique<host::Fleet>(nh, kNic, kCpu, kMem);
  // The fresh fleet of the second restore, with a packer that has already
  // cached counts of its empty hosts: the restore must invalidate them.
  auto f2 = std::make_unique<host::Fleet>(nh, kNic, kCpu, kMem);
  auto p2 = std::make_unique<GreedyTreePacker>(f2.get(), &topo);
  for (const host::VmSpec& s : menu) p2->pack(3, s);

  host::Fleet* fleet = f1.get();
  auto cached = std::make_unique<GreedyTreePacker>(fleet, &topo);
  auto oracle = std::make_unique<ReferencePacker>(fleet, &topo);
  World world;

  constexpr int kSteps = 320;
  constexpr int kSave1 = 60, kRestoreSame = 130, kRestoreFresh = 220;
  std::vector<std::uint8_t> image;
  World saved;
  int packs = 0, clamp_packs = 0, overheld_packs = 0;

  auto any_host = [&](auto pred) {
    for (int h = 0; h < nh; ++h) {
      if (pred(fleet->host(h))) return true;
    }
    return false;
  };

  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    if (step == 0) {
      // Over-hold one host: two big holds leave it below zero free
      // bandwidth, CPU and memory.
      int h = static_cast<int>(rng.index(static_cast<std::size_t>(nh)));
      for (int i = 0; i < 2; ++i) {
        fleet->hold_all(h, kBigHold);
        world.holds.push_back({h, kBigHold});
      }
      ASSERT_LT(fleet->host(h).free_reservation_mbps(), 0.0);
    }
    if (step == kSave1 || step == kRestoreFresh) {
      image = save(*fleet);
      saved = world;
    }
    if (step == kRestoreSame) {
      restore(*fleet, image);
      cached->release_uplinks(all_holds(world));
      oracle->release_uplinks(all_holds(world));
      world = saved;
      cached->reserve_uplinks(all_holds(world));
      oracle->reserve_uplinks(all_holds(world));
    }
    if (step == kRestoreFresh) {
      restore(*f2, image);
      fleet = f2.get();
      cached = std::move(p2);
      oracle = std::make_unique<ReferencePacker>(fleet, &topo);
      cached->reserve_uplinks(all_holds(world));
      oracle->reserve_uplinks(all_holds(world));
    }

    const std::size_t op = rng.index(10);
    if (op <= 3 || op == 9) {
      const std::size_t si = rng.index(menu.size());
      const host::VmSpec& spec = menu[si];
      const int n = 1 + static_cast<int>(rng.index(10));
      ++packs;
      if (si == kTiny &&
          any_host([](const host::Host& h) {
            return h.free_reservation_mbps() / 4e-7 > INT_MAX;
          })) {
        ++clamp_packs;
      }
      if (any_host([](const host::Host& h) {
            return h.free_reservation_mbps() < 0;
          })) {
        ++overheld_packs;
      }
      GreedyTreePacker::Result got = cached->pack(n, spec);
      GreedyTreePacker::Result want = oracle->pack(n, spec);
      ASSERT_TRUE(same(got, want)) << "pack(" << n << ", spec " << si << ")";
      if (got.ok && op != 9) {
        // Commit the plan the way GreedyTreeEmbedder does: a place that
        // float residue refuses (the packer's slack is kEps) rolls the
        // whole bundle back.
        Bundle b;
        bool placed = true;
        for (int h : got.hosts) {
          host::VmId v = fleet->create_vm(0, spec);
          b.vms.push_back(v);
          if (!fleet->place(v, h)) {
            placed = false;
            break;
          }
        }
        if (!placed) {
          for (host::VmId v : b.vms) fleet->destroy_vm(v);
        } else {
          b.holds = got.uplink_holds;
          cached->reserve_uplinks(b.holds);
          oracle->reserve_uplinks(b.holds);
          world.bundles.push_back(std::move(b));
        }
      }
    } else if (op == 4 && !world.bundles.empty()) {
      // Departure: every VM destroyed, placed or not.
      std::size_t i = rng.index(world.bundles.size());
      for (host::VmId v : world.bundles[i].vms) fleet->destroy_vm(v);
      cached->release_uplinks(world.bundles[i].holds);
      oracle->release_uplinks(world.bundles[i].holds);
      world.bundles.erase(world.bundles.begin() +
                          static_cast<std::ptrdiff_t>(i));
    } else if ((op == 5 || op == 6) && !world.bundles.empty()) {
      const Bundle& b = world.bundles[rng.index(world.bundles.size())];
      host::VmId v = b.vms[rng.index(b.vms.size())];
      int dst = static_cast<int>(rng.index(static_cast<std::size_t>(nh)));
      const host::VmSpec& spec = fleet->vm(v).spec;
      const bool admits = fleet->host(dst).can_admit(spec);
      if (fleet->vm(v).host == -1) {
        if (admits) {
          ASSERT_TRUE(fleet->place(v, dst));
        }
      } else if (op == 5) {
        fleet->unplace(v);
      } else if (admits) {
        const bool via_hold = rng.chance(0.5);
        if (via_hold) fleet->hold_all(dst, spec);
        fleet->migrate(v, dst, via_hold);
      }
    } else if (op == 7) {
      int h = static_cast<int>(rng.index(static_cast<std::size_t>(nh)));
      const host::VmSpec& spec =
          rng.chance(0.3) ? kBigHold : menu[rng.index(menu.size())];
      if (within_deficit(fleet->host(h), spec)) {
        fleet->hold_all(h, spec);
        world.holds.push_back({h, spec});
      }
    } else if (op == 8 && !world.holds.empty()) {
      std::size_t i = rng.index(world.holds.size());
      fleet->release_hold_all(world.holds[i].host, world.holds[i].spec);
      world.holds.erase(world.holds.begin() + static_cast<std::ptrdiff_t>(i));
    }

    std::vector<std::string> v = cached->audit(all_holds(world));
    ASSERT_TRUE(v.empty()) << v.front();
  }
  EXPECT_GT(packs, 100);
  EXPECT_GT(clamp_packs, 0) << "the INT_MAX clamp was never exercised";
  EXPECT_GT(overheld_packs, 0) << "no pack ran against an over-held host";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackerEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace vb::baseline
