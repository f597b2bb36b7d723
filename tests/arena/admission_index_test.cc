// Oracle test for the admission controller's departure index: under a
// seeded random stream of offers, migrating-VM deferrals and departure
// sweeps, next_departure() and the teardown order of process_departures()
// must equal a brute-force scan of the live bundles, including equal-time
// ties (broken by request id), never-departing (+inf) bundles, and a
// checkpoint restore that rebuilds the index on a fresh controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arena/admission.h"
#include "common/rng.h"

namespace vb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRetry = 1.0;

core::CloudConfig cloud_config() {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 2;
  cfg.topology.hosts_per_rack = 4;  // 16 servers x 1000 Mbps
  cfg.topology.host_nic_mbps = 1000.0;
  cfg.seed = 7;
  return cfg;
}

/// Forwards to the greedy tree packer and records the first VM of every
/// bundle it releases, i.e. the teardown order.
class RecordingEmbedder : public arena::Embedder {
 public:
  explicit RecordingEmbedder(core::VBundleCloud* cloud) : inner_(cloud) {}
  const char* name() const override { return "recording"; }
  arena::EmbedOutcome embed(const arena::VcRequest& req,
                            host::CustomerId c) override {
    return inner_.embed(req, c);
  }
  void release(const arena::EmbedOutcome& o) override {
    released.push_back(o.vms.front());
    inner_.release(o);
  }
  void reacquire(const arena::EmbedOutcome& o) override {
    inner_.reacquire(o);
  }
  std::vector<host::VmId> released;

 private:
  arena::GreedyTreeEmbedder inner_;
};

/// One controller on its own cloud.
struct Rig {
  core::VBundleCloud cloud{cloud_config()};
  RecordingEmbedder emb{&cloud};
  arena::AdmissionController adm{&cloud, &emb, nullptr, {}};
};

double brute_next_departure(const arena::AdmissionController& adm) {
  double t = kInf;
  for (const auto& [id, b] : adm.active()) t = std::min(t, b.depart_s);
  return t;
}

bool has_migrating_vm(core::VBundleCloud& cloud, const arena::ActiveBundle& b) {
  for (host::VmId v : b.outcome.vms) {
    if (cloud.fleet().vm(v).migrating) return true;
  }
  return false;
}

/// Runs one departure sweep at `now` and checks it against the scan: the
/// due bundles in (depart_s, id) order, migrating ones re-keyed to
/// now + kRetry and kept, the others torn down in that order.  Returns how
/// many bundles were deferred.
int sweep_and_check(Rig& rig, double now) {
  std::vector<std::pair<double, std::uint64_t>> due;
  for (const auto& [id, b] : rig.adm.active()) {
    if (b.depart_s <= now) due.emplace_back(b.depart_s, id);
  }
  std::sort(due.begin(), due.end());
  std::vector<host::VmId> expect_released;
  std::vector<std::uint64_t> expect_deferred;
  for (const auto& [t, id] : due) {
    const arena::ActiveBundle& b = rig.adm.active().at(id);
    if (has_migrating_vm(rig.cloud, b)) {
      expect_deferred.push_back(id);
    } else {
      expect_released.push_back(b.outcome.vms.front());
    }
  }
  rig.emb.released.clear();
  int done = rig.adm.process_departures(now, kRetry);
  EXPECT_EQ(done, static_cast<int>(expect_released.size()));
  EXPECT_EQ(rig.emb.released, expect_released) << "teardown order at " << now;
  for (std::uint64_t id : expect_deferred) {
    auto it = rig.adm.active().find(id);
    if (it == rig.adm.active().end()) {
      ADD_FAILURE() << "deferred bundle " << id << " was torn down";
      continue;
    }
    EXPECT_EQ(it->second.depart_s, now + kRetry);
  }
  EXPECT_EQ(rig.adm.next_departure(), brute_next_departure(rig.adm));
  return static_cast<int>(expect_deferred.size());
}

/// Moves a controller onto a fresh cloud through its checkpoint image.
std::unique_ptr<Rig> round_trip(Rig& rig) {
  ckpt::Writer w;
  rig.adm.ckpt_save(w);
  std::vector<std::uint8_t> adm_img = w.finish();
  std::vector<std::uint8_t> cloud_img = rig.cloud.save_checkpoint();
  auto fresh = std::make_unique<Rig>();
  ckpt::Reader r(adm_img);
  fresh->adm.ckpt_restore(r);
  fresh->cloud.restore_checkpoint(cloud_img);
  return fresh;
}

TEST(AdmissionIndex, MatchesBruteForceScanUnderRandomOffersDeferralsAndRestore) {
  Rng rng(2026);
  auto rig = std::make_unique<Rig>();
  // A coarse lifetime grid so several bundles share a departure time, plus
  // bundles that never leave.
  const std::vector<double> lifetimes = {5.0, 10.0, 10.0, 20.0, 40.0, kInf};
  double now = 0.0;
  std::uint64_t next_id = 0;
  int deferrals = 0;
  int ties = 0;
  for (int step = 0; step < 600; ++step) {
    now += static_cast<double>(rng.next_below(4));  // zero steps give ties
    int offers = static_cast<int>(rng.next_below(4));
    for (int i = 0; i < offers; ++i) {
      arena::VcRequest req;
      req.id = next_id++;
      req.tenant = "t" + std::to_string(rng.next_below(3));
      req.arrival_s = now;
      req.lifetime_s = lifetimes[rng.index(lifetimes.size())];
      req.n_vms = 1 + static_cast<int>(rng.next_below(3));
      req.spec = host::VmSpec{50, 100};
      rig->adm.offer(req);
    }
    // Put some due bundles' first VM "on the wire" and let earlier ones
    // land, so sweeps defer bundles and deferred bundles come due again.
    for (const auto& [id, b] : rig->adm.active()) {
      bool& flag = rig->cloud.fleet().vm(b.outcome.vms.front()).migrating;
      if (flag) {
        flag = !rng.chance(0.5);
      } else if (b.depart_s <= now) {
        flag = rng.chance(0.2);
      }
    }
    std::map<double, int> per_time;
    for (const auto& [id, b] : rig->adm.active()) {
      if (b.depart_s <= now) ++per_time[b.depart_s];
    }
    for (const auto& [t, n] : per_time) ties += n > 1 ? 1 : 0;
    ASSERT_EQ(rig->adm.next_departure(), brute_next_departure(rig->adm));
    deferrals += sweep_and_check(*rig, now);
    if (step == 300) {
      // The cloud image carries no in-flight migrations: clear the flags
      // first, then continue on the restored controller.
      for (const auto& [id, b] : rig->adm.active()) {
        for (host::VmId v : b.outcome.vms) {
          rig->cloud.fleet().vm(v).migrating = false;
        }
      }
      std::unique_ptr<Rig> restored = round_trip(*rig);
      EXPECT_EQ(restored->adm.active().size(), rig->adm.active().size());
      EXPECT_EQ(restored->adm.next_departure(), rig->adm.next_departure());
      rig = std::move(restored);
    }
  }
  // The stream actually exercised what it is meant to.
  EXPECT_GT(deferrals, 10);
  EXPECT_GT(ties, 10);
  bool has_forever = false;
  for (const auto& [id, b] : rig->adm.active()) {
    has_forever |= b.depart_s == kInf;
  }
  EXPECT_TRUE(has_forever);
  // A sweep at +inf drains everything that is not migrating.
  for (const auto& [id, b] : rig->adm.active()) {
    for (host::VmId v : b.outcome.vms) {
      rig->cloud.fleet().vm(v).migrating = false;
    }
  }
  sweep_and_check(*rig, kInf);
  EXPECT_TRUE(rig->adm.active().empty());
  EXPECT_EQ(rig->adm.next_departure(), kInf);
}

}  // namespace
}  // namespace vb
