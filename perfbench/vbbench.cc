// vbbench: the repository benchmark's measuring binary (driven by run.py).
//
// Three single-threaded workloads through the library's public API only
// (VBundleCloud, Arena, AdmissionController::set_embedder, the Embedder
// interface, save/restore_checkpoint, collect_metrics):
//
//   arena_vbundle_3k  the arena_compare campaign at 3,000 servers with the
//                     v-Bundle embedder and the shuffler on.  Dominated by
//                     the placement walk (embed calls).
//   arena_tree_8k     the same campaign shape at 8,000 servers with
//                     greedy_tree and no rebalancing: admission agenda and
//                     tree packer, no overlay traffic after set-up.
//   shuffle_16k       one v-Bundle epoch on 16,000 servers / 160k VMs:
//                     update ticks from t=0, a rebalance round at t=1500,
//                     run to t=1800.  Pastry delivery, Scribe anycast,
//                     aggregation and migrations; no placement walk.  Not
//                     in BENCHMARK.json: sim::EventQueue runs part of its
//                     rebalance burst out of time order, and on some seeds
//                     that makes its checkpoint check fail (NOTES.md).
//
// Every workload is a fixed batch: its simulated outcome is a pure function
// of --seed.  The main phase (epoch or campaign) is timed in segments of
// simulated time and repeated on fresh set-ups until the repetitions add up
// to --seconds of host time, at least four times.  Every repetition saves
// the mid-run state and restores it into a fresh set-up (ckpt_s), the first
// one several times.  The first repetition is checked: fleet conservation,
// migration settlement, admission accounting, a restored-and-resumed
// fingerprint, and every later repetition ending in its state.  Any
// violation exits 1.
//
// Usage:
//   vbbench --workload=<name> [--seed=42] [--seconds=15] [--smoke]
//           [--trace-out=<path>]
//
// Prints one JSON object: {"correct", "attempted", "failed", "violations",
// "metrics": {name: {"value", "unit"}}}.  --trace-out turns on the span
// recorder (spans.h) and writes its Chrome trace there; the per-layer
// metrics that come from spans are only reported in that mode.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arena/arena.h"
#include "common/flags.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "spans.h"
#include "vbundle/cloud.h"
#include "workloads/scenario.h"

using namespace vb;
using perfbench::SpanRecorder;

namespace {

// Mid-run checkpoint round trips in the first repetition; every later one
// makes one more, so that the samples ckpt_s takes the median of are spread
// over the whole run rather than bunched in one moment of host load.  Each
// restore needs a freshly built cloud, which also gives one more set-up
// sample for setup_s.
constexpr int kCkptRoundTrips = 3;

// The generator seed is the workload seed shifted so that the default
// --seed=42 reproduces arena_compare's generator seed 1234.
constexpr std::uint64_t kGeneratorSeedOffset = 1234 - 42;

template <class F>
double timed(F&& body) {
  auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// Hash of the cloud's simulated state: event count, migrations, every
/// host's VM list and every host's utilization bits.
std::uint64_t cloud_fingerprint(core::VBundleCloud& cloud) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv(h, cloud.simulator().events_executed());
  h = fnv(h, cloud.migrations().completed());
  for (int i = 0; i < cloud.fleet().num_hosts(); ++i) {
    for (host::VmId v : cloud.fleet().host(i).vms()) {
      h = fnv(h, static_cast<std::uint64_t>(v));
    }
  }
  for (double u : cloud.fleet().utilization_snapshot()) h = fnv(h, bits_of(u));
  return h;
}

std::uint64_t arena_fingerprint(arena::Arena& a) {
  const arena::AdmissionStats& s = a.admission().stats();
  std::uint64_t h = cloud_fingerprint(a.cloud());
  h = fnv(h, s.decision_fingerprint);
  h = fnv(h, s.offered);
  h = fnv(h, s.accepted);
  h = fnv(h, bits_of(s.revenue));
  return h;
}

// ---------------------------------------------------------------------------
// Results and checks.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// Fleet conservation through the public Fleet API: every host's bandwidth
/// reservation equals the sum over the VMs placed on it, each live VM sits
/// on exactly the host that lists it, and no VM is listed twice.
void check_fleet(const host::Fleet& fleet, Report& rep) {
  std::vector<int> listed_on(fleet.num_vms(), -1);
  int bad_hosts = 0;
  int bad_vms = 0;
  for (int h = 0; h < fleet.num_hosts(); ++h) {
    const host::Host& host = fleet.host(h);
    double sum = 0.0;
    for (host::VmId v : host.vms()) {
      const host::Vm& vm = fleet.vm(v);
      int& seen = listed_on[static_cast<std::size_t>(v)];
      if (seen != -1 || vm.host != h || vm.destroyed) ++bad_vms;
      seen = h;
      sum += vm.spec.reservation_mbps;
    }
    if (std::fabs(host.reserved_mbps() - sum) > 1e-6 * host.capacity_mbps()) {
      ++bad_hosts;
    }
  }
  for (const host::Vm& vm : fleet.all_vms()) {
    if (!vm.destroyed && vm.host >= 0 &&
        listed_on[static_cast<std::size_t>(vm.id)] != vm.host) {
      ++bad_vms;
    }
  }
  rep.check(bad_hosts == 0, "fleet: " + std::to_string(bad_hosts) +
                                " hosts whose reservation != sum of their VMs");
  rep.check(bad_vms == 0, "fleet: " + std::to_string(bad_vms) +
                              " VMs not listed exactly once on their host");
}

void check_migrations_settled(core::VBundleCloud& cloud, Report& rep) {
  rep.check(cloud.migrations().in_flight() == 0,
            "migrations: " + std::to_string(cloud.migrations().in_flight()) +
                " still in flight at the end");
  std::uint64_t migrating = 0;
  for (const host::Vm& vm : cloud.fleet().all_vms()) {
    if (vm.migrating) ++migrating;
  }
  rep.check(migrating == 0, "migrations: " + std::to_string(migrating) +
                                " VMs still flagged migrating");
}

void check_admission(const arena::AdmissionController& adm,
                     const host::Fleet& fleet, Report& rep) {
  const arena::AdmissionStats& s = adm.stats();
  rep.check(s.offered == s.accepted + s.rejected_capacity + s.rejected_cost,
            "admission: offered != accepted + rejected_capacity + "
            "rejected_cost");
  std::uint64_t unplaced = 0;
  for (const auto& [id, b] : adm.active()) {
    for (host::VmId v : b.outcome.vms) {
      if (fleet.vm(v).destroyed || fleet.vm(v).host < 0) ++unplaced;
    }
  }
  rep.check(unplaced == 0, "admission: " + std::to_string(unplaced) +
                               " VMs of live bundles are not placed");
}

/// Metrics every workload reports from the main cloud at the end of its
/// main phase: utilization spread, Pastry traffic, shuffler and migration
/// counters.
void add_cloud_metrics(core::VBundleCloud& cloud, Report& rep) {
  obs::MetricsRegistry reg;
  cloud.collect_metrics(reg);
  auto counter = [&](const std::string& n) -> double {
    const obs::Counter* c = reg.find_counter(n);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  auto gauge = [&](const std::string& n) -> double {
    const obs::Gauge* g = reg.find_gauge(n);
    return g != nullptr ? g->value() : 0.0;
  };
  double sim_h = cloud.now() / 3600.0;
  rep.add("util_sd", cloud.utilization_stddev(), "ratio");
  rep.add("ctrl_msgs_per_host_h",
          counter("pastry.msgs.total") / cloud.num_hosts() / sim_h,
          "msgs/host/sim-h");
  for (const char* cat :
       {"overlay", "scribe", "aggregation", "vbundle", "ack", "retransmit"}) {
    rep.add(std::string("pastry.msgs.") + cat,
            counter(std::string("pastry.msgs.") + cat), "count");
  }
  rep.add("pastry.bytes.total", counter("pastry.bytes.total"), "bytes");
  double sent = counter("vbundle.queries_sent");
  rep.add("vbundle.queries_sent", sent, "count");
  rep.add("vbundle.query_accept_ratio",
          sent > 0 ? counter("vbundle.queries_accepted") / sent : 0.0,
          "ratio");
  rep.add("vbundle.anycast_failures", counter("vbundle.anycast_failures"),
          "count");
  rep.add("vbundle.query_timeouts", counter("vbundle.query_timeouts"),
          "count");
  rep.add("migration.completed", counter("migration.completed"), "count");
  rep.add("migration.downtime_s", gauge("migration.total_downtime_s"), "s");
}

/// Host times a run collects, and the main-phase counts of its first
/// repetition.
struct PhaseTimes {
  std::vector<double> cloud_s;  ///< every cloud construction in the run
  std::vector<double> fleet_s;  ///< every population of a measured cloud
  double setup_rss_mb = 0.0;
  std::vector<double> save_s;
  std::vector<double> restore_s;
  std::uint64_t ckpt_bytes = 0;
  /// Host time of each segment of the main phase, per repetition.
  std::vector<std::vector<double>> segments;
  std::uint64_t main_events = 0;
  std::uint64_t main_msgs = 0;
};

std::uint64_t pastry_msgs(core::VBundleCloud& cloud) {
  obs::MetricsRegistry reg;
  cloud.pastry().export_metrics(reg);
  return reg.find_counter("pastry.msgs.total")->value();
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// The main phase's host time: per segment, the fastest repetition, summed
/// over segments.  Every repetition does identical, deterministic work
/// segment by segment, so what differs between them is interference from
/// outside the process, which only ever adds time (NOTES.md has the
/// figures that led to this estimator).
double main_phase_s(const PhaseTimes& t) {
  double total = 0.0;
  for (std::size_t k = 0; k < t.segments.front().size(); ++k) {
    double fastest = t.segments.front()[k];
    for (const std::vector<double>& r : t.segments) {
      fastest = std::min(fastest, r[k]);
    }
    total += fastest;
  }
  return total;
}

/// `traced`: the first repetition ran with spans on and the others without,
/// so their difference is the tracing overhead.
void add_phase_metrics(const PhaseTimes& t, bool traced, Report& rep) {
  double cloud_s = median(t.cloud_s);
  double fleet_s = median(t.fleet_s);
  std::vector<double> trips;
  for (std::size_t i = 0; i < t.save_s.size(); ++i) {
    trips.push_back(t.save_s[i] + t.restore_s[i]);
  }
  double save_s = median(t.save_s);
  std::vector<double> per_rep;
  for (const std::vector<double>& r : t.segments) per_rep.push_back(sum(r));
  std::fprintf(stderr, "vbbench: main phase, host s per repetition:");
  for (double m : per_rep) std::fprintf(stderr, " %.3f", m);
  std::fprintf(stderr, "\n");
  const double first_s = per_rep.front();
  rep.add("wall_s", main_phase_s(t), "s");
  rep.add("setup_s", cloud_s + fleet_s, "s");
  rep.add("ckpt_s", median(trips), "s");
  rep.add("setup.cloud_s", cloud_s, "s");
  rep.add("setup.fleet_s", fleet_s, "s");
  rep.add("setup.rss_mb", t.setup_rss_mb, "MB");
  rep.add("sim.events", static_cast<double>(t.main_events), "count");
  rep.add("sim.events_per_s", static_cast<double>(t.main_events) / first_s,
          "1/s");
  rep.add("pastry.msgs_per_s", static_cast<double>(t.main_msgs) / first_s,
          "1/s");
  rep.add("ckpt.save_s", save_s, "s");
  rep.add("ckpt.restore_s", median(t.restore_s), "s");
  rep.add("ckpt.bytes", static_cast<double>(t.ckpt_bytes), "bytes");
  rep.add("ckpt.save_mb_per_s",
          static_cast<double>(t.ckpt_bytes) / 1e6 / save_s, "MB/s");
  if (traced) {
    rep.add("trace.overhead_s",
            first_s - median(std::vector<double>(per_rep.begin() + 1,
                                                 per_rep.end())),
            "s");
  }
}

/// Saves the mid-run state kCkptRoundTrips times (saving never perturbs
/// the run); every image must be the same bytes.  Returns the image.
template <class Save>
std::vector<std::uint8_t> save_repeatedly(Save&& save, SpanRecorder& spans,
                                          PhaseTimes& t, Report& rep) {
  std::vector<std::uint8_t> image;
  for (int i = 0; i < kCkptRoundTrips; ++i) {
    std::vector<std::uint8_t> img;
    t.save_s.push_back(timed([&] {
      SpanRecorder::Scope span(spans, "ckpt.save");
      img = save();
    }));
    rep.check(i == 0 || img == image, "ckpt: repeated saves differ");
    image = std::move(img);
  }
  t.ckpt_bytes = image.size();
  return image;
}

/// Runs the main phase as segments ending at the simulated times in `grid`:
/// `step(k, until)` advances to grid[k] and is timed; `after(k)` runs
/// untimed between segments.  Returns the segment host times.
template <class Step, class After>
std::vector<double> run_segments(const std::vector<double>& grid, Step&& step,
                                 After&& after) {
  std::vector<double> seg;
  for (std::size_t k = 0; k < grid.size(); ++k) {
    seg.push_back(timed([&] { step(k, grid[k]); }));
    after(k);
  }
  return seg;
}

// Each run repeats its main phase on freshly built clouds until the
// repetitions add up to --seconds of main-phase host time, at least
// kMinRepeats times in all.  The first repetition is the instrumented one
// (checkpoints, checks, spans); every later one runs untraced, makes one
// checkpoint round trip between segments, and must end in the first one's
// state.
constexpr std::size_t kMinRepeats = 4;
constexpr std::size_t kMaxRepeats = 12;

/// `once` builds a fresh set-up, runs the main phase and returns its
/// segment host times and end-state fingerprint.
template <class F>
void repeat_main_phase(double seconds, std::uint64_t want, PhaseTimes& t,
                       Report& rep, F&& once) {
  double total = sum(t.segments.front());
  while (t.segments.size() < kMinRepeats ||
         (total < seconds && t.segments.size() < kMaxRepeats)) {
    auto [segments, fingerprint] = once();
    rep.check(fingerprint == want,
              "repeat " + std::to_string(t.segments.size()) +
                  " ended in another state than the first run");
    total += sum(segments);
    t.segments.push_back(std::move(segments));
  }
}

// ---------------------------------------------------------------------------
// Bundle boots through the v-Bundle placement protocol.

/// Forwards every call to the arena's own embedder, recording the
/// simulated time each embed takes (booting steps the simulator inline) and,
/// when tracing, a span around each embed and release.
class TimedEmbedder : public arena::Embedder {
 public:
  TimedEmbedder(arena::Embedder* inner, core::VBundleCloud* cloud,
                SpanRecorder* spans)
      : inner_(inner), cloud_(cloud), spans_(spans) {}

  const char* name() const override { return inner_->name(); }

  arena::EmbedOutcome embed(const arena::VcRequest& req,
                            host::CustomerId c) override {
    SpanRecorder::Scope span(*spans_, "arena.embed");
    double t0 = cloud_->now();
    arena::EmbedOutcome o = inner_->embed(req, c);
    boot_sim_ms_.push_back((cloud_->now() - t0) * 1e3);
    return o;
  }
  void release(const arena::EmbedOutcome& o) override {
    SpanRecorder::Scope span(*spans_, "arena.release");
    inner_->release(o);
  }
  void reacquire(const arena::EmbedOutcome& o) override {
    inner_->reacquire(o);
  }

  const std::vector<double>& boot_sim_ms() const { return boot_sim_ms_; }

 private:
  arena::Embedder* inner_;
  core::VBundleCloud* cloud_;
  SpanRecorder* spans_;
  std::vector<double> boot_sim_ms_;
};

// ---------------------------------------------------------------------------
// Workload configuration.

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool smoke = false;
  double seconds = 15.0;
  std::string trace_out;
};

net::TopologyConfig topology(int servers) {
  net::TopologyConfig t;
  // 25 hosts per rack, 10 racks per pod, as in arena_compare and perf_core.
  t.hosts_per_rack = 25;
  t.racks_per_pod = 10;
  t.num_pods = servers / 250;
  t.host_nic_mbps = 1000.0;
  t.tor_oversubscription = 8.0;
  return t;
}

core::CloudConfig cloud_config(int servers, std::uint64_t seed) {
  core::CloudConfig cfg;
  cfg.topology = topology(servers);
  cfg.seed = seed;
  cfg.vbundle.threshold = 0.183;
  return cfg;
}

// Equal spans of simulated time an arena campaign is timed in.
constexpr int kArenaSegments = 100;

// Bundles in the boot probe of the workloads whose main phase boots none
// through the overlay.
constexpr int kProbeBundles = 400;

/// Boots `bundles` bundles of the generator's sizes through the v-Bundle
/// placement protocol on `cloud` and returns the simulated milliseconds
/// each took.  Used where the main phase boots no bundle through the
/// overlay, so that boot_p99_sim_ms is measured on every workload.
std::vector<double> probe_boots(core::VBundleCloud& cloud, int bundles,
                                std::uint64_t seed, SpanRecorder& spans,
                                std::uint64_t* visits, std::uint64_t* vms) {
  SpanRecorder::Scope span(spans, "probe.boots");
  arena::GeneratorConfig g;
  g.seed = seed + kGeneratorSeedOffset;
  g.n_min = 2;
  g.n_max = 12;
  arena::OpenWorldGenerator gen(g);
  std::vector<double> out;
  for (int i = 0; i < bundles; ++i) {
    arena::VcRequest req = *gen.next();
    host::CustomerId c = cloud.add_customer("probe-" + std::to_string(i));
    double t0 = cloud.now();
    for (const core::VBundleCloud::BootResult& r :
         cloud.boot_vms(c, req.spec, req.n_vms)) {
      *visits += static_cast<std::uint64_t>(r.visits);
      if (r.ok) ++*vms;
    }
    out.push_back((cloud.now() - t0) * 1e3);
  }
  return out;
}

void add_boot_metrics(const std::vector<double>& boot_sim_ms,
                      std::uint64_t visits, std::uint64_t vms, Report& rep) {
  rep.add("boot_p99_sim_ms", percentile(boot_sim_ms, 0.99), "sim_ms");
  rep.add("arena.boot_p50_sim_ms", percentile(boot_sim_ms, 0.50), "sim_ms");
  rep.add("vbundle.visits_per_vm",
          vms > 0 ? static_cast<double>(visits) / static_cast<double>(vms)
                  : 0.0,
          "count");
}

// ---------------------------------------------------------------------------
// shuffle_16k

constexpr double kShuffleUpdateEnd = 1499.0;
constexpr double kShuffleCkptAt = 1503.0;  // inside the post-1500 burst
constexpr double kShuffleResumeTo = 1530.0;
constexpr double kShuffleEnd = 1800.0;

/// Segment ends of the epoch: update ticks in 25 s steps to t=1499, then
/// the rebalance round in 10 s steps, with the checkpoint and resume points
/// on the grid.
std::vector<double> shuffle_grid() {
  std::vector<double> g;
  for (double t = 25.0; t < kShuffleUpdateEnd; t += 25.0) g.push_back(t);
  g.push_back(kShuffleUpdateEnd);
  g.push_back(kShuffleCkptAt);
  for (double t = kShuffleResumeTo; t <= kShuffleEnd; t += 10.0) {
    g.push_back(t);
  }
  return g;
}

/// One segment of the epoch on `cloud`; the first starts the service and
/// the last stops it.
void shuffle_step(core::VBundleCloud& cloud, std::size_t k, std::size_t n,
                  double until) {
  if (k == 0) cloud.start_rebalancing(0.0, 1500.0);
  cloud.run_until(until);
  if (k + 1 == n) cloud.stop_rebalancing();
}

std::unique_ptr<core::VBundleCloud> build_cloud(const core::CloudConfig& cfg,
                                                SpanRecorder& spans,
                                                PhaseTimes& t) {
  std::unique_ptr<core::VBundleCloud> cloud;
  t.cloud_s.push_back(timed([&] {
    SpanRecorder::Scope span(spans, "setup.cloud");
    cloud = std::make_unique<core::VBundleCloud>(cfg);
  }));
  return cloud;
}

/// perf_core's shuffle_epoch fleet: 10 VMs per host, utilizations skewed
/// over [0.2, 0.95].  Returns how many of the VMs the fleet accepted.
std::uint64_t populate_shuffle(core::VBundleCloud& cloud, std::uint64_t seed,
                               SpanRecorder& spans, PhaseTimes& t) {
  std::uint64_t placed = 0;
  t.fleet_s.push_back(timed([&] {
    SpanRecorder::Scope span(spans, "setup.fleet");
    host::CustomerId c = cloud.add_customer("PerfCore");
    // 10 VMs per host at limit 100 Mbps lets a 1 Gbps host reach full
    // utilization, so the skew below produces shedders.
    const int servers = cloud.num_hosts();
    for (int i = 0; i < servers * 10; ++i) {
      host::VmId v = cloud.fleet().create_vm(c, {20.0, 100.0});
      if (cloud.fleet().place(v, i % servers)) ++placed;
    }
    Rng rng(seed);
    load::skew_host_utilizations(cloud.fleet(), 0.2, 0.95, rng);
  }));
  return placed;
}

/// Restores `image` into a freshly built cloud set up like the measured one.
std::unique_ptr<core::VBundleCloud> restore_shuffle(
    const core::CloudConfig& cfg, const std::vector<std::uint8_t>& image,
    SpanRecorder& spans, PhaseTimes& t) {
  std::unique_ptr<core::VBundleCloud> fresh = build_cloud(cfg, spans, t);
  fresh->add_customer("PerfCore");
  fresh->start_rebalancing(0.0, 1500.0);
  t.restore_s.push_back(timed([&] {
    SpanRecorder::Scope span(spans, "ckpt.restore");
    fresh->restore_checkpoint(image);
  }));
  return fresh;
}

Report run_shuffle(const Options& opt, SpanRecorder& spans) {
  const int servers = opt.smoke ? 500 : 16000;
  const core::CloudConfig cfg = cloud_config(servers, opt.seed);
  Report rep;
  PhaseTimes t;

  std::unique_ptr<core::VBundleCloud> cloud = build_cloud(cfg, spans, t);
  const std::uint64_t vms_placed = populate_shuffle(*cloud, opt.seed, spans, t);
  t.setup_rss_mb = peak_rss_mb();
  const double util_sd_before = cloud->utilization_stddev();

  const std::vector<double> grid = shuffle_grid();
  const std::uint64_t events0 = cloud->simulator().events_executed();
  const std::uint64_t msgs0 = pastry_msgs(*cloud);
  std::uint64_t update_events = 0;
  std::vector<std::uint8_t> image;
  std::uint64_t resumed_want = 0;
  auto after = [&](std::size_t k) {
    if (grid[k] == kShuffleUpdateEnd) {
      update_events = cloud->simulator().events_executed() - events0;
    } else if (grid[k] == kShuffleCkptAt) {
      image = save_repeatedly([&] { return cloud->save_checkpoint(); },
                              spans, t, rep);
    } else if (grid[k] == kShuffleResumeTo) {
      resumed_want = cloud_fingerprint(*cloud);
      for (int i = 0; i < kCkptRoundTrips; ++i) {
        std::unique_ptr<core::VBundleCloud> fresh =
            restore_shuffle(cfg, image, spans, t);
        if (i == 0) {
          fresh->run_until(kShuffleResumeTo);
          rep.check(cloud_fingerprint(*fresh) == resumed_want,
                    "ckpt: restored run diverged from the uninterrupted one");
        }
      }
    }
  };
  t.segments.push_back(run_segments(
      grid,
      [&](std::size_t k, double until) {
        SpanRecorder::Scope span(spans, until <= kShuffleUpdateEnd
                                            ? "shuffle.update"
                                            : "shuffle.rebalance");
        shuffle_step(*cloud, k, grid.size(), until);
      },
      after));
  t.main_events = cloud->simulator().events_executed() - events0;
  t.main_msgs = pastry_msgs(*cloud) - msgs0;
  const std::uint64_t want = cloud_fingerprint(*cloud);
  double update_s = 0.0;
  double rebalance_s = 0.0;
  for (std::size_t k = 0; k < grid.size(); ++k) {
    (grid[k] <= kShuffleUpdateEnd ? update_s : rebalance_s) +=
        t.segments[0][k];
  }

  add_cloud_metrics(*cloud, rep);
  rep.add("fleet.util_sd_before", util_sd_before, "ratio");
  rep.add("shuffle.update_s", update_s, "s");
  rep.add("shuffle.update_events", static_cast<double>(update_events),
          "count");
  rep.add("shuffle.rebalance_s", rebalance_s, "s");
  rep.add("shuffle.rebalance_events",
          static_cast<double>(t.main_events - update_events), "count");
  // The only admission this workload makes is its up-front population.
  const double placed_share =
      static_cast<double>(vms_placed) / (10.0 * servers);
  rep.add("acceptance_rate", placed_share, "ratio");
  rep.add("revenue_capture", placed_share, "ratio");
  for (const char* n : {"arena.offered", "arena.rejected_capacity",
                        "arena.rejected_cost"}) {
    rep.add(n, 0.0, "count");
  }
  rep.add("arena.decision_fingerprint", 0.0, "hash");

  check_migrations_settled(*cloud, rep);
  check_fleet(cloud->fleet(), rep);
  rep.attempted = cloud->migrations().started();
  rep.failed = cloud->migrations().started() - cloud->migrations().completed();

  std::uint64_t visits = 0;
  std::uint64_t vms = 0;
  std::vector<double> boots =
      probe_boots(*cloud, opt.smoke ? 50 : kProbeBundles, opt.seed, spans,
                  &visits, &vms);
  add_boot_metrics(boots, visits, vms, rep);
  cloud.reset();

  repeat_main_phase(opt.seconds, want, t, rep, [&] {
    SpanRecorder off(false);
    std::unique_ptr<core::VBundleCloud> c = build_cloud(cfg, off, t);
    populate_shuffle(*c, opt.seed, off, t);
    std::vector<double> seg = run_segments(
        grid,
        [&](std::size_t k, double until) {
          shuffle_step(*c, k, grid.size(), until);
        },
        [&](std::size_t k) {
          if (grid[k] != kShuffleCkptAt) return;
          std::vector<std::uint8_t> img;
          t.save_s.push_back(timed([&] { img = c->save_checkpoint(); }));
          restore_shuffle(cfg, img, off, t);
        });
    return std::make_pair(std::move(seg), cloud_fingerprint(*c));
  });
  add_phase_metrics(t, spans.enabled(), rep);
  return rep;
}

// ---------------------------------------------------------------------------
// arena_vbundle_3k / arena_tree_8k

arena::ArenaConfig arena_config(int servers, arena::EmbedderKind kind,
                                std::uint64_t seed) {
  arena::ArenaConfig cfg;
  cfg.embedder = kind;
  cfg.threads = 1;
  cfg.enable_rebalancing = kind == arena::EmbedderKind::kVBundle;
  cfg.demand_apply_interval_s = 60.0;
  cfg.generator.seed = seed + kGeneratorSeedOffset;
  cfg.generator.base_arrival_per_s = servers * 0.002;
  cfg.generator.mean_lifetime_s = 1200.0;
  cfg.generator.n_min = 2;
  cfg.generator.n_max = 12;
  cfg.max_requests = static_cast<std::uint64_t>(servers) * 7 / 5;
  cfg.horizon_s = static_cast<double>(cfg.max_requests) /
                      cfg.generator.base_arrival_per_s +
                  1200.0;
  cfg.sample_every_s = 60.0;
  return cfg;
}

/// An arena over a fresh cloud, with every embed and release going through
/// a TimedEmbedder.
struct ArenaSetup {
  std::unique_ptr<core::VBundleCloud> cloud;
  std::unique_ptr<arena::Arena> arena;
  std::unique_ptr<TimedEmbedder> embedder;
};

ArenaSetup build_arena(const core::CloudConfig& ccfg,
                       const arena::ArenaConfig& acfg, SpanRecorder& spans,
                       PhaseTimes& t) {
  ArenaSetup s;
  s.cloud = build_cloud(ccfg, spans, t);
  t.fleet_s.push_back(timed([&] {
    SpanRecorder::Scope span(spans, "setup.fleet");
    s.arena = std::make_unique<arena::Arena>(s.cloud.get(), acfg);
    s.embedder = std::make_unique<TimedEmbedder>(&s.arena->embedder(),
                                                 s.cloud.get(), &spans);
    s.arena->admission().set_embedder(s.embedder.get());
  }));
  return s;
}

/// Restores `image` into a freshly built arena.  Its embeds are not traced:
/// the arena.embed spans are the measured campaign's alone.
ArenaSetup restore_arena(const core::CloudConfig& ccfg,
                         const arena::ArenaConfig& acfg,
                         const std::vector<std::uint8_t>& image,
                         SpanRecorder& spans, PhaseTimes& t) {
  // Outlives the returned arena, whose embedder records into it.
  static SpanRecorder untraced(false);
  ArenaSetup s = build_arena(ccfg, acfg, untraced, t);
  t.restore_s.push_back(timed([&] {
    SpanRecorder::Scope span(spans, "ckpt.restore");
    s.arena->restore_checkpoint(image);
  }));
  return s;
}

Report run_arena(const Options& opt, SpanRecorder& spans, int servers,
                 arena::EmbedderKind kind) {
  const core::CloudConfig ccfg = cloud_config(servers, opt.seed);
  const arena::ArenaConfig acfg = arena_config(servers, kind, opt.seed);
  // The campaign runs in kArenaSegments equal spans of simulated time; the
  // checkpoint is taken at mid-horizon and resumed over one segment.
  std::vector<double> grid;
  for (int k = 1; k <= kArenaSegments; ++k) {
    grid.push_back(acfg.horizon_s * k / kArenaSegments);
  }
  const std::size_t mid_k = kArenaSegments / 2 - 1;
  const double resume_to = grid[mid_k + 1];
  Report rep;
  PhaseTimes t;

  ArenaSetup main = build_arena(ccfg, acfg, spans, t);
  core::VBundleCloud& cloud = *main.cloud;
  arena::Arena& a = *main.arena;
  t.setup_rss_mb = peak_rss_mb();
  const double util_sd_before = cloud.utilization_stddev();

  const std::uint64_t events0 = cloud.simulator().events_executed();
  const std::uint64_t msgs0 = pastry_msgs(cloud);
  std::vector<std::uint8_t> image;
  std::uint64_t resumed_want = 0;
  auto after = [&](std::size_t k) {
    if (k == mid_k) {
      image = save_repeatedly([&] { return a.save_checkpoint(); }, spans, t,
                              rep);
    } else if (k == mid_k + 1) {
      resumed_want = arena_fingerprint(a);
      for (int i = 0; i < kCkptRoundTrips; ++i) {
        ArenaSetup b = restore_arena(ccfg, acfg, image, spans, t);
        if (i == 0) {
          b.arena->run_until(resume_to);
          rep.check(
              arena_fingerprint(*b.arena) == resumed_want,
              "ckpt: restored campaign diverged from the uninterrupted one");
        }
      }
    }
  };
  t.segments.push_back(run_segments(
      grid,
      [&](std::size_t, double until) {
        SpanRecorder::Scope span(spans, "arena.campaign");
        a.run_until(until);
      },
      after));
  t.main_events = cloud.simulator().events_executed() - events0;
  t.main_msgs = pastry_msgs(cloud) - msgs0;
  const std::uint64_t want = arena_fingerprint(a);

  add_cloud_metrics(cloud, rep);
  rep.add("fleet.util_sd_before", util_sd_before, "ratio");
  for (const char* n : {"shuffle.update_s", "shuffle.rebalance_s"}) {
    rep.add(n, 0.0, "s");
  }
  for (const char* n : {"shuffle.update_events", "shuffle.rebalance_events"}) {
    rep.add(n, 0.0, "count");
  }
  const arena::AdmissionStats& s = a.admission().stats();
  rep.add("acceptance_rate", s.acceptance_rate(), "ratio");
  rep.add("revenue_capture", s.revenue / s.offered_revenue, "ratio");
  rep.add("arena.offered", static_cast<double>(s.offered), "count");
  rep.add("arena.rejected_capacity", static_cast<double>(s.rejected_capacity),
          "count");
  rep.add("arena.rejected_cost", static_cast<double>(s.rejected_cost),
          "count");
  // Folded to 52 bits so that the JSON number is exact as a double.
  rep.add("arena.decision_fingerprint",
          static_cast<double>((s.decision_fingerprint ^
                               (s.decision_fingerprint >> 52)) &
                              ((std::uint64_t{1} << 52) - 1)),
          "hash");
  check_admission(a.admission(), cloud.fleet(), rep);
  rep.attempted = s.offered;
  rep.failed = s.rejected_capacity + s.rejected_cost;

  // The campaign ends with the shuffler still running: stop it and let the
  // migrations in flight land before checking the fleet.
  cloud.stop_rebalancing();
  cloud.run_until(acfg.horizon_s + 600.0);
  check_migrations_settled(cloud, rep);
  check_fleet(cloud.fleet(), rep);

  std::vector<double> boots = main.embedder->boot_sim_ms();
  std::uint64_t visits = s.hosts_probed;
  std::uint64_t vms = s.vms_accepted;
  if (kind != arena::EmbedderKind::kVBundle) {
    visits = 0;
    vms = 0;
    boots = probe_boots(cloud, opt.smoke ? 50 : kProbeBundles, opt.seed, spans,
                        &visits, &vms);
  }
  add_boot_metrics(boots, visits, vms, rep);
  main.embedder.reset();
  main.arena.reset();
  main.cloud.reset();

  repeat_main_phase(opt.seconds, want, t, rep, [&] {
    SpanRecorder off(false);
    ArenaSetup r = build_arena(ccfg, acfg, off, t);
    std::vector<double> seg = run_segments(
        grid, [&](std::size_t, double until) { r.arena->run_until(until); },
        [&](std::size_t k) {
          if (k != mid_k) return;
          std::vector<std::uint8_t> img;
          t.save_s.push_back(timed([&] { img = r.arena->save_checkpoint(); }));
          restore_arena(ccfg, acfg, img, off, t);
        });
    return std::make_pair(std::move(seg), arena_fingerprint(*r.arena));
  });
  add_phase_metrics(t, spans.enabled(), rep);
  return rep;
}

// ---------------------------------------------------------------------------

void add_span_metrics(const SpanRecorder& spans, Report& rep) {
  std::map<std::string, SpanRecorder::Totals> tot = spans.totals();
  std::vector<double> embeds = spans.durations("arena.embed");
  for (double& d : embeds) d *= 1e3;
  rep.add("arena.embed_s", tot["arena.embed"].total_s, "s");
  rep.add("arena.embed_n", static_cast<double>(embeds.size()), "count");
  rep.add("arena.embed_p50_ms", percentile(embeds, 0.50), "ms");
  rep.add("arena.embed_p99_ms", percentile(embeds, 0.99), "ms");
  rep.add("arena.other_s", tot["arena.campaign"].self_s, "s");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_report(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              rep.violations.empty() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  std::printf("\"violations\": [");
  for (std::size_t i = 0; i < rep.violations.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(rep.violations[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    Flags flags = Flags::parse(argc - 1, argv + 1);
    opt.workload = flags.get_string("workload", "");
    opt.seed = std::stoull(flags.get_string("seed", "42"));
    opt.smoke = flags.get_bool("smoke", false);
    opt.seconds = flags.get_double("seconds", opt.seconds);
    opt.trace_out = flags.get_string("trace-out", "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbbench: %s\n", e.what());
    return 2;
  }

  SpanRecorder spans(!opt.trace_out.empty());
  Report rep;
  try {
    if (opt.workload == "shuffle_16k") {
      rep = run_shuffle(opt, spans);
    } else if (opt.workload == "arena_vbundle_3k") {
      rep = run_arena(opt, spans, opt.smoke ? 250 : 3000,
                      arena::EmbedderKind::kVBundle);
    } else if (opt.workload == "arena_tree_8k") {
      rep = run_arena(opt, spans, opt.smoke ? 250 : 8000,
                      arena::EmbedderKind::kGreedyTree);
    } else {
      std::fprintf(stderr,
                   "vbbench: --workload must be shuffle_16k, "
                   "arena_vbundle_3k or arena_tree_8k\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (spans.enabled()) {
    add_span_metrics(spans, rep);
    if (!spans.write_chrome(opt.trace_out)) {
      std::fprintf(stderr, "vbbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }
  print_report(rep);
  for (const std::string& v : rep.violations) {
    std::fprintf(stderr, "vbbench: CHECK FAILED: %s\n", v.c_str());
  }
  return rep.violations.empty() ? 0 : 1;
}
