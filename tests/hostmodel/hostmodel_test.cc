// TC shaper semantics (rate/ceil with borrowing) and fleet bookkeeping
// (admission, placement, migration, utilization snapshots).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/format.h"
#include "common/rng.h"
#include "hostmodel/host.h"
#include "hostmodel/tc_shaper.h"
#include "workloads/demand.h"

namespace vb::host {
namespace {

TEST(Shaper, EmptyClasses) {
  EXPECT_TRUE(shape(1000.0, {}).empty());
}

TEST(Shaper, GuaranteeIsAlwaysMet) {
  // Two classes, both demanding their rate exactly.
  std::vector<ShaperClass> c{{300, 300, 300}, {700, 700, 700}};
  auto a = shape(1000.0, c);
  EXPECT_DOUBLE_EQ(a[0], 300.0);
  EXPECT_DOUBLE_EQ(a[1], 700.0);
}

TEST(Shaper, BorrowUpToCeil) {
  // One idle class leaves surplus; the other borrows up to its ceil.
  std::vector<ShaperClass> c{{500, 500, 0}, {100, 800, 900}};
  auto a = shape(1000.0, c);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 800.0);  // ceil caps the borrow below demand
}

TEST(Shaper, BorrowCappedByDemand) {
  std::vector<ShaperClass> c{{500, 500, 0}, {100, 800, 350}};
  auto a = shape(1000.0, c);
  EXPECT_DOUBLE_EQ(a[1], 350.0);
}

TEST(Shaper, SurplusSharedFairly) {
  // Both hungry beyond their rates; 400 surplus splits 200/200.
  std::vector<ShaperClass> c{{300, 1000, 1000}, {300, 1000, 1000}};
  auto a = shape(1000.0, c);
  EXPECT_NEAR(a[0], 500.0, 1e-6);
  EXPECT_NEAR(a[1], 500.0, 1e-6);
}

TEST(Shaper, UnevenCeilsWaterfill) {
  // Class 0 hits its ceil at 400; remaining surplus flows to class 1.
  std::vector<ShaperClass> c{{300, 400, 1000}, {300, 1000, 1000}};
  auto a = shape(1000.0, c);
  EXPECT_NEAR(a[0], 400.0, 1e-6);
  EXPECT_NEAR(a[1], 600.0, 1e-6);
}

TEST(Shaper, OverbookedGuaranteesScaleProportionally) {
  std::vector<ShaperClass> c{{800, 800, 800}, {400, 400, 400}};
  auto a = shape(600.0, c);
  EXPECT_NEAR(a[0], 400.0, 1e-6);
  EXPECT_NEAR(a[1], 200.0, 1e-6);
}

TEST(Shaper, RejectsInvalidInput) {
  EXPECT_THROW(shape(-1.0, {}), std::invalid_argument);
  EXPECT_THROW(shape(100.0, {{100, 50, 10}}), std::invalid_argument);  // ceil<rate
  EXPECT_THROW(shape(100.0, {{-1, 50, 10}}), std::invalid_argument);
  EXPECT_THROW(shape(100.0, {{10, 50, -2}}), std::invalid_argument);
}

// Property: allocations never exceed demand, ceil, or capacity; guarantees
// are honored when not overbooked.
class ShaperProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShaperProperty, Invariants) {
  Rng rng(GetParam());
  double cap = rng.uniform(100.0, 2000.0);
  std::vector<ShaperClass> classes;
  int n = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < n; ++i) {
    double rate = rng.uniform(0.0, 300.0);
    double ceil = rate + rng.uniform(0.0, 500.0);
    double demand = rng.uniform(0.0, 800.0);
    classes.push_back({rate, ceil, demand});
  }
  auto a = shape(cap, classes);
  double total = 0, guaranteed_need = 0;
  for (int i = 0; i < n; ++i) {
    auto u = static_cast<std::size_t>(i);
    EXPECT_GE(a[u], -1e-9);
    EXPECT_LE(a[u], classes[u].demand_mbps + 1e-9);
    EXPECT_LE(a[u], classes[u].ceil_mbps + 1e-9);
    total += a[u];
    guaranteed_need += std::min(classes[u].demand_mbps, classes[u].rate_mbps);
  }
  EXPECT_LE(total, cap + 1e-6);
  if (guaranteed_need <= cap) {
    for (int i = 0; i < n; ++i) {
      auto u = static_cast<std::size_t>(i);
      EXPECT_GE(a[u] + 1e-9,
                std::min(classes[u].demand_mbps, classes[u].rate_mbps));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShaperProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Fleet, CreateAndPlaceVm) {
  Fleet f(4, 1000.0);
  VmId v = f.create_vm(0, VmSpec{200, 400, 128});
  EXPECT_EQ(f.vm(v).host, -1);
  EXPECT_TRUE(f.place(v, 2));
  EXPECT_EQ(f.vm(v).host, 2);
  EXPECT_EQ(f.host(2).vm_count(), 1u);
  EXPECT_DOUBLE_EQ(f.host(2).reserved_mbps(), 200.0);
}

TEST(Fleet, AdmissionControlRejectsOverbooking) {
  Fleet f(1, 1000.0);
  VmId a = f.create_vm(0, VmSpec{600, 800});
  VmId b = f.create_vm(0, VmSpec{600, 800});
  EXPECT_TRUE(f.place(a, 0));
  EXPECT_FALSE(f.place(b, 0));  // 600 + 600 > 1000
  EXPECT_EQ(f.vm(b).host, -1);
}

TEST(Fleet, HoldsCountAgainstAdmission) {
  Fleet f(1, 1000.0);
  const VmSpec held{800, 800};
  f.hold_all(0, held);
  VmId a = f.create_vm(0, VmSpec{300, 300});
  EXPECT_FALSE(f.place(a, 0));
  f.release_hold_all(0, held);
  EXPECT_TRUE(f.place(a, 0));
}

TEST(Fleet, PlaceTwiceThrows) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{100, 100});
  ASSERT_TRUE(f.place(v, 0));
  EXPECT_THROW(f.place(v, 1), std::logic_error);
}

TEST(Fleet, UnplaceReleasesReservation) {
  Fleet f(1, 1000.0);
  VmId v = f.create_vm(0, VmSpec{400, 400});
  ASSERT_TRUE(f.place(v, 0));
  f.unplace(v);
  EXPECT_EQ(f.vm(v).host, -1);
  EXPECT_DOUBLE_EQ(f.host(0).reserved_mbps(), 0.0);
  EXPECT_THROW(f.unplace(v), std::logic_error);
}

TEST(Fleet, MigrateMovesReservation) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{400, 400});
  ASSERT_TRUE(f.place(v, 0));
  f.migrate(v, 1, /*consume_hold=*/false);
  EXPECT_EQ(f.vm(v).host, 1);
  EXPECT_DOUBLE_EQ(f.host(0).reserved_mbps(), 0.0);
  EXPECT_DOUBLE_EQ(f.host(1).reserved_mbps(), 400.0);
}

TEST(Fleet, MigrateConsumesHold) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{400, 400});
  ASSERT_TRUE(f.place(v, 0));
  f.hold_all(1, f.vm(v).spec);
  f.migrate(v, 1, /*consume_hold=*/true);
  // Hold replaced by the real reservation: still 400 total.
  EXPECT_DOUBLE_EQ(f.host(1).reserved_mbps(), 400.0);
  EXPECT_DOUBLE_EQ(f.host(1).reserved_mem_mb(), f.vm(v).spec.ram_mb);
}

// --- reservation revision contract -----------------------------------------

std::vector<std::uint64_t> revs(const Fleet& f) {
  std::vector<std::uint64_t> out;
  for (int h = 0; h < f.num_hosts(); ++h) out.push_back(f.reservation_rev(h));
  return out;
}

// Runs `op` and checks that it moved (upward) the revisions of exactly the
// hosts in `touched` and left every other host's alone.
template <typename Op>
void expect_moves(Fleet& f, const std::vector<int>& touched, Op op,
                  const char* what) {
  const std::vector<std::uint64_t> before = revs(f);
  op();
  const std::vector<std::uint64_t> after = revs(f);
  for (int h = 0; h < f.num_hosts(); ++h) {
    const auto i = static_cast<std::size_t>(h);
    bool is_touched =
        std::find(touched.begin(), touched.end(), h) != touched.end();
    if (is_touched) {
      EXPECT_GT(after[i], before[i]) << what << ": host " << h;
    } else {
      EXPECT_EQ(after[i], before[i]) << what << ": host " << h;
    }
  }
}

TEST(FleetRevision, EachMutatorMovesExactlyTheHostsItTouches) {
  Fleet f(4, 1000.0);
  VmId a = f.create_vm(0, VmSpec{200, 400, 128});
  VmId b = f.create_vm(0, VmSpec{300, 400, 128});
  VmId big = f.create_vm(0, VmSpec{900, 900, 128});
  expect_moves(f, {}, [&] { f.create_vm(0, VmSpec{100, 100}); }, "create_vm");
  expect_moves(f, {1}, [&] { ASSERT_TRUE(f.place(a, 1)); }, "place");
  expect_moves(f, {3}, [&] { ASSERT_TRUE(f.place(b, 3)); }, "place");
  expect_moves(f, {}, [&] { ASSERT_FALSE(f.place(big, 1)); }, "failed place");
  expect_moves(f, {1, 2}, [&] { f.migrate(a, 2, false); }, "migrate");
  expect_moves(f, {0}, [&] { f.hold_all(0, f.vm(b).spec); }, "hold_all");
  expect_moves(f, {3, 0}, [&] { f.migrate(b, 0, true); }, "migrate+hold");
  expect_moves(f, {2}, [&] { f.unplace(a); }, "unplace");
  expect_moves(f, {}, [&] { f.destroy_vm(a); }, "destroy unplaced");
  expect_moves(f, {3}, [&] { f.hold_all(3, f.vm(big).spec); }, "hold_all");
  expect_moves(f, {3}, [&] { f.release_hold_all(3, f.vm(big).spec); },
               "release_hold_all");
  expect_moves(f, {0}, [&] { f.destroy_vm(b); }, "destroy placed");
}

TEST(FleetRevision, DemandChangesMoveNoRevision) {
  Fleet f(3, 1000.0);
  VmId a = f.create_vm(0, VmSpec{200, 400, 128, 1.0, 2.0});
  VmId c = f.create_vm(0, VmSpec{100, 400, 128});
  ASSERT_TRUE(f.place(a, 0));
  ASSERT_TRUE(f.place(c, 2));
  expect_moves(f, {}, [&] { f.set_demand(a, 350.0); }, "set_demand");
  expect_moves(f, {}, [&] { f.set_cpu_demand(a, 1.5); }, "set_cpu_demand");
  load::DemandModel dm;
  dm.assign(a, std::make_unique<load::ConstantDemand>(120.0));
  dm.assign(c, std::make_unique<load::ConstantDemand>(80.0));
  expect_moves(f, {}, [&] { dm.apply(f, 10.0); }, "DemandModel::apply");
  EXPECT_DOUBLE_EQ(f.vm(c).demand_mbps, 80.0);
}

TEST(FleetRevision, EveryRevisionRisesAcrossRestoreIntoTheSameFleet) {
  Fleet f(5, 1000.0);
  VmId a = f.create_vm(0, VmSpec{200, 400, 128});
  ASSERT_TRUE(f.place(a, 1));
  ckpt::Writer w;
  f.ckpt_save(w);
  std::vector<std::uint8_t> image = w.finish();
  // Changes after the save: the restore must invalidate whatever was cached
  // from them, and from anything before.
  f.hold_all(3, f.vm(a).spec);
  const std::vector<std::uint64_t> before = revs(f);
  ckpt::Reader r(image);
  f.ckpt_restore(r);
  const std::vector<std::uint64_t> after = revs(f);
  for (std::size_t h = 0; h < before.size(); ++h) {
    EXPECT_GT(after[h], before[h]) << "host " << h;
  }
  EXPECT_DOUBLE_EQ(f.host(3).reserved_mbps(), 0.0);
  EXPECT_DOUBLE_EQ(f.host(1).reserved_mbps(), 200.0);
}

TEST(Fleet, DemandAndUtilization) {
  Fleet f(1, 1000.0);
  VmId a = f.create_vm(0, VmSpec{100, 200});
  VmId b = f.create_vm(0, VmSpec{100, 300});
  ASSERT_TRUE(f.place(a, 0));
  ASSERT_TRUE(f.place(b, 0));
  f.set_demand(a, 150.0);
  f.set_demand(b, 500.0);  // clipped to limit 300
  EXPECT_DOUBLE_EQ(f.host_demand_mbps(0), 450.0);
  EXPECT_DOUBLE_EQ(f.host_utilization(0), 0.45);
  EXPECT_THROW(f.set_demand(a, -1.0), std::invalid_argument);
}

TEST(Fleet, ShapeHostAppliesReservationAndBorrow) {
  Fleet f(1, 1000.0);
  VmId a = f.create_vm(0, VmSpec{600, 600});
  VmId b = f.create_vm(0, VmSpec{100, 900});
  ASSERT_TRUE(f.place(a, 0));
  ASSERT_TRUE(f.place(b, 0));
  f.set_demand(a, 200.0);   // uses a third of its reservation
  f.set_demand(b, 900.0);   // wants to borrow
  auto shaped = f.shape_host(0);
  ASSERT_EQ(shaped.size(), 2u);
  EXPECT_DOUBLE_EQ(shaped[0].second, 200.0);
  EXPECT_DOUBLE_EQ(shaped[1].second, 800.0);  // 100 rate + 700 borrowed
}

TEST(Fleet, TotalsMatchAcrossHosts) {
  Fleet f(3, 1000.0);
  Rng rng(8);
  for (int i = 0; i < 9; ++i) {
    VmId v = f.create_vm(i % 2, VmSpec{100, 400});
    ASSERT_TRUE(f.place(v, i % 3));
    f.set_demand(v, rng.uniform(0.0, 500.0));
  }
  double demand = f.total_demand_mbps();
  double satisfied = f.total_satisfied_mbps();
  EXPECT_GT(demand, 0.0);
  EXPECT_LE(satisfied, demand + 1e-9);
  auto snap = f.utilization_snapshot();
  ASSERT_EQ(snap.size(), 3u);
  double sum = 0;
  for (double u : snap) sum += u * 1000.0;
  EXPECT_NEAR(sum, demand, 1e-6);
}

TEST(Fleet, RejectsBadConstruction) {
  EXPECT_THROW(Fleet(0, 1000.0), std::invalid_argument);
  EXPECT_THROW(Fleet(4, 0.0), std::invalid_argument);
  Fleet f(1, 100.0);
  EXPECT_THROW(f.create_vm(0, VmSpec{200, 100}), std::invalid_argument);
}

TEST(Fleet, DestroyVmReleasesResources) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{400, 600});
  ASSERT_TRUE(f.place(v, 0));
  f.set_demand(v, 300.0);
  f.destroy_vm(v);
  EXPECT_TRUE(f.destroyed(v));
  EXPECT_EQ(f.vm(v).host, -1);
  EXPECT_DOUBLE_EQ(f.host(0).reserved_mbps(), 0.0);
  EXPECT_DOUBLE_EQ(f.host_demand_mbps(0), 0.0);
  EXPECT_THROW(f.destroy_vm(v), std::logic_error);
}

TEST(Fleet, DestroyUnplacedVmIsFine) {
  Fleet f(1, 1000.0);
  VmId v = f.create_vm(0, VmSpec{100, 100});
  f.destroy_vm(v);
  EXPECT_TRUE(f.destroyed(v));
}

TEST(Fleet, DestroyedCapacityIsReusable) {
  Fleet f(1, 1000.0);
  VmId a = f.create_vm(0, VmSpec{800, 900});
  ASSERT_TRUE(f.place(a, 0));
  VmId b = f.create_vm(0, VmSpec{800, 900});
  EXPECT_FALSE(f.place(b, 0));
  f.destroy_vm(a);
  EXPECT_TRUE(f.place(b, 0));
}

TEST(Fleet, CannotDestroyMigratingVm) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{100, 200});
  ASSERT_TRUE(f.place(v, 0));
  f.vm(v).migrating = true;
  EXPECT_THROW(f.destroy_vm(v), std::logic_error);
}

TEST(Vm, CappedDemandAndToString) {
  Vm v;
  v.id = 3;
  v.spec = VmSpec{100, 250};
  v.demand_mbps = 400.0;
  EXPECT_DOUBLE_EQ(v.capped_demand(), 250.0);
  v.demand_mbps = 100.0;
  EXPECT_DOUBLE_EQ(v.capped_demand(), 100.0);
  EXPECT_NE(v.to_string().find("vm3"), std::string::npos);
}

}  // namespace
}  // namespace vb::host
