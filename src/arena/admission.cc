#include "arena/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace vb::arena {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
}

AdmissionController::AdmissionController(core::VBundleCloud* cloud,
                                         Embedder* embedder,
                                         load::DemandModel* demand, Config cfg)
    : cloud_(cloud), embedder_(embedder), demand_(demand), cfg_(cfg) {
  if (cloud == nullptr || embedder == nullptr) {
    throw std::invalid_argument("AdmissionController: null cloud/embedder");
  }
  if (cfg_.horizon_s <= 0) {
    throw std::invalid_argument("AdmissionController: horizon must be > 0");
  }
}

double AdmissionController::price(const VcRequest& req) const {
  double hours = std::min(req.lifetime_s, cfg_.horizon_s) / 3600.0;
  double per_vm_hour = cfg_.pricing.vm_hour +
                       req.spec.reservation_mbps / 1000.0 *
                           cfg_.pricing.bw_gbps_hour;
  return hours * static_cast<double>(req.n_vms) * per_vm_hour;
}

host::CustomerId AdmissionController::customer_for(const std::string& tenant) {
  auto it = customer_ids_.find(tenant);
  if (it != customer_ids_.end()) return it->second;
  host::CustomerId c = cloud_->add_customer(tenant);
  customer_ids_.emplace(tenant, c);
  return c;
}

bool AdmissionController::offer(const VcRequest& req) {
  ++stats_.offered;
  double p = price(req);
  stats_.offered_revenue += p;
  TenantStats& ts = tenants_[req.tenant];
  ++ts.offered;

  host::CustomerId c = customer_for(req.tenant);
  EmbedOutcome o = embedder_->embed(req, c);
  stats_.hosts_probed += o.hosts_probed;
  stats_.decision_fingerprint =
      (stats_.decision_fingerprint ^ (req.id * 2 + (o.ok ? 1 : 0))) *
      kFnvPrime;

  if (!o.ok) {
    if (o.cost_rejected) {
      ++stats_.rejected_cost;
    } else {
      ++stats_.rejected_capacity;
    }
    ++ts.consecutive_rejects;
    if (ts.consecutive_rejects == cfg_.slo_reject_streak) ++ts.slo_violations;
    return false;
  }

  ++stats_.accepted;
  ++ts.accepted;
  ts.consecutive_rejects = 0;
  stats_.vms_accepted += o.vms.size();
  stats_.revenue += p;

  if (demand_ != nullptr && req.shape.kind != ProfileKind::kNone) {
    for (std::size_t i = 0; i < o.vms.size(); ++i) {
      demand_->assign(o.vms[i], make_vm_profile(req.shape,
                                                static_cast<int>(i),
                                                req.n_vms));
    }
  }
  std::vector<host::VmId>& tenant_vms = placed_[req.tenant];
  tenant_vms.insert(tenant_vms.end(), o.vms.begin(), o.vms.end());

  ActiveBundle b;
  b.request_id = req.id;
  b.customer = c;
  b.tenant = req.tenant;
  b.depart_s = req.arrival_s + req.lifetime_s;  // inf-safe
  b.revenue = p;
  b.n_vms = req.n_vms;
  b.shape = req.shape;
  b.outcome = std::move(o);
  activate(std::move(b));
  return true;
}

void AdmissionController::activate(ActiveBundle b) {
  const std::pair<double, std::uint64_t> key{b.depart_s, b.request_id};
  if (active_.emplace(b.request_id, std::move(b)).second) {
    departures_.insert(key);
  }
  check_index();
}

void AdmissionController::check_index() const {
  if (departures_.size() != active_.size()) {
    throw std::logic_error(
        "AdmissionController: departure index has " +
        std::to_string(departures_.size()) + " keys for " +
        std::to_string(active_.size()) + " live bundles");
  }
}

double AdmissionController::next_departure() const {
  return departures_.empty() ? std::numeric_limits<double>::infinity()
                             : departures_.begin()->first;
}

int AdmissionController::process_departures(double now, double retry_s) {
  // Snapshot the due prefix first: deferrals re-key bundles, so the set
  // must not be walked while it changes.
  std::vector<std::uint64_t> due;
  for (auto it = departures_.begin();
       it != departures_.end() && it->first <= now; ++it) {
    due.push_back(it->second);
  }
  int done = 0;
  for (std::uint64_t id : due) {
    ActiveBundle& b = active_.at(id);
    bool migrating = false;
    for (host::VmId v : b.outcome.vms) {
      if (cloud_->fleet().vm(v).migrating) {
        migrating = true;
        break;
      }
    }
    if (migrating) {
      // The shuffler has this bundle's VM on the wire; destroying it now
      // would corrupt the migration.  Come back shortly.
      departures_.erase({b.depart_s, id});
      b.depart_s = now + retry_s;
      departures_.emplace(b.depart_s, id);
      continue;
    }
    for (host::VmId v : b.outcome.vms) {
      if (demand_ != nullptr) demand_->unassign(v);
      cloud_->shutdown_vm(v);
    }
    embedder_->release(b.outcome);
    departures_.erase({b.depart_s, id});
    active_.erase(id);
    ++done;
  }
  check_index();
  return done;
}

Embedder* AdmissionController::set_embedder(Embedder* e) {
  if (e == nullptr) {
    throw std::invalid_argument("AdmissionController: null embedder");
  }
  Embedder* old = embedder_;
  embedder_ = e;
  return old;
}

std::uint64_t AdmissionController::slo_violations() const {
  std::uint64_t total = 0;
  for (const auto& [name, ts] : tenants_) total += ts.slo_violations;
  return total;
}

void AdmissionController::ckpt_save(ckpt::Writer& w) const {
  w.begin_section("arena_admission");

  w.begin_section("stats");
  w.u64(stats_.offered);
  w.u64(stats_.accepted);
  w.u64(stats_.rejected_capacity);
  w.u64(stats_.rejected_cost);
  w.u64(stats_.vms_accepted);
  w.u64(stats_.hosts_probed);
  w.f64(stats_.revenue);
  w.f64(stats_.offered_revenue);
  w.u64(stats_.decision_fingerprint);
  w.end_section();

  // Customers in registration (= CustomerId) order, so restore re-adds them
  // exactly as the original run did and the cloud image's verification of
  // customer keys passes.
  std::vector<std::string> by_id(customer_ids_.size());
  for (const auto& [name, id] : customer_ids_) {
    by_id.at(static_cast<std::size_t>(id)) = name;
  }
  w.begin_section("customers");
  w.u32(static_cast<std::uint32_t>(by_id.size()));
  for (const std::string& name : by_id) w.str(name);
  w.end_section();

  w.begin_section("tenants");
  w.u32(static_cast<std::uint32_t>(tenants_.size()));
  for (const auto& [name, ts] : tenants_) {
    w.str(name);
    w.u64(ts.offered);
    w.u64(ts.accepted);
    w.u64(ts.consecutive_rejects);
    w.u64(ts.slo_violations);
  }
  w.end_section();

  w.begin_section("active");
  w.u32(static_cast<std::uint32_t>(active_.size()));
  for (const auto& [id, b] : active_) {
    w.u64(b.request_id);
    w.i64(b.customer);
    w.str(b.tenant);
    w.f64(b.depart_s);
    w.f64(b.revenue);
    w.i64(b.n_vms);
    b.shape.ckpt_save(w);
    w.u32(static_cast<std::uint32_t>(b.outcome.vms.size()));
    for (host::VmId v : b.outcome.vms) w.i64(v);
    w.u32(static_cast<std::uint32_t>(b.outcome.uplink_holds.size()));
    for (const auto& [link, mbps] : b.outcome.uplink_holds) {
      w.i64(link);
      w.f64(mbps);
    }
  }
  w.end_section();

  w.begin_section("placed");
  w.u32(static_cast<std::uint32_t>(placed_.size()));
  for (const auto& [tenant, vms] : placed_) {
    w.str(tenant);
    w.u32(static_cast<std::uint32_t>(vms.size()));
    for (host::VmId v : vms) w.i64(v);
  }
  w.end_section();

  w.end_section();
}

void AdmissionController::ckpt_restore(ckpt::Reader& r) {
  if (cloud_->num_customers() != 0 || !active_.empty()) {
    throw ckpt::CkptError(
        "arena_admission: restore requires a fresh cloud/controller");
  }
  r.enter_section("arena_admission");

  r.enter_section("stats");
  stats_.offered = r.u64();
  stats_.accepted = r.u64();
  stats_.rejected_capacity = r.u64();
  stats_.rejected_cost = r.u64();
  stats_.vms_accepted = r.u64();
  stats_.hosts_probed = r.u64();
  stats_.revenue = r.f64();
  stats_.offered_revenue = r.f64();
  stats_.decision_fingerprint = r.u64();
  r.exit_section();

  r.enter_section("customers");
  std::uint32_t nc = r.u32();
  for (std::uint32_t i = 0; i < nc; ++i) {
    std::string name = r.str();
    host::CustomerId c = cloud_->add_customer(name);
    if (c != static_cast<host::CustomerId>(i)) {
      throw ckpt::CkptError("arena_admission: customer id drift on restore");
    }
    customer_ids_.emplace(std::move(name), c);
  }
  r.exit_section();

  r.enter_section("tenants");
  std::uint32_t nt = r.u32();
  for (std::uint32_t i = 0; i < nt; ++i) {
    std::string name = r.str();
    TenantStats ts;
    ts.offered = r.u64();
    ts.accepted = r.u64();
    ts.consecutive_rejects = r.u64();
    ts.slo_violations = r.u64();
    tenants_.emplace(std::move(name), ts);
  }
  r.exit_section();

  r.enter_section("active");
  std::uint32_t na = r.u32();
  for (std::uint32_t i = 0; i < na; ++i) {
    ActiveBundle b;
    b.request_id = r.u64();
    b.customer = static_cast<host::CustomerId>(r.i64());
    b.tenant = r.str();
    b.depart_s = r.f64();
    b.revenue = r.f64();
    b.n_vms = static_cast<int>(r.i64());
    b.shape.ckpt_restore(r);
    b.outcome.ok = true;
    std::uint32_t nv = r.u32();
    b.outcome.vms.reserve(nv);
    for (std::uint32_t v = 0; v < nv; ++v) {
      b.outcome.vms.push_back(static_cast<host::VmId>(r.i64()));
    }
    std::uint32_t nu = r.u32();
    b.outcome.uplink_holds.reserve(nu);
    for (std::uint32_t u = 0; u < nu; ++u) {
      net::LinkId link = static_cast<net::LinkId>(r.i64());
      double mbps = r.f64();
      b.outcome.uplink_holds.emplace_back(link, mbps);
    }
    // Rebuild the externally-held state the cloud image doesn't carry:
    // demand profiles (deterministic from the shape) and uplink ledgers.
    if (demand_ != nullptr && b.shape.kind != ProfileKind::kNone) {
      for (std::size_t v = 0; v < b.outcome.vms.size(); ++v) {
        demand_->assign(b.outcome.vms[v],
                        make_vm_profile(b.shape, static_cast<int>(v),
                                        b.n_vms));
      }
    }
    embedder_->reacquire(b.outcome);
    activate(std::move(b));
  }
  r.exit_section();

  r.enter_section("placed");
  std::uint32_t np = r.u32();
  for (std::uint32_t i = 0; i < np; ++i) {
    std::string tenant = r.str();
    std::uint32_t nv = r.u32();
    std::vector<host::VmId> vms;
    vms.reserve(nv);
    for (std::uint32_t v = 0; v < nv; ++v) {
      vms.push_back(static_cast<host::VmId>(r.i64()));
    }
    placed_.emplace(std::move(tenant), std::move(vms));
  }
  r.exit_section();

  r.exit_section();
}

}  // namespace vb::arena
