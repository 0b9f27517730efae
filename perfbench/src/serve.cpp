// The serve workloads, both against a real axc_serve daemon:
//
//   serve-hit   closed loop of one connection over a store holding
//               fronts and tables for many specs; Zipf-skewed keys, some
//               budget-filtered gets and `table` requests.  Net, server
//               and store reads do all the work; no search runs.
//   serve-miss  a seeded stream of fresh small sweeps (get ->
//               miss-enqueued -> wait -> front), a share requested twice
//               at once so coalescing runs, beside light hit traffic.
//               Store writes, worker spawns and per-worker cache builds
//               dominate.  Not in BENCHMARK.json: its figures follow the
//               host's fsync latency too closely to gate on (README.md).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <cmath>
#include <map>
#include <thread>

#include <sched.h>

#include "bench.h"
#include "core/result_store.h"
#include "layers.h"
#include "support/net.h"

namespace perfbench {

namespace core = axc::core;
namespace net = axc::support::net;

namespace {

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// The serving traffic.  The repository has no observed traffic, so every
// number below is chosen, not measured, and none claims to be
// representative.  Each fills in a word of the benchmark's specification
// (perfbench/README.md):
//   "keys are Zipf-skewed over more keys than any small cache would hold":
//       Zipf exponent 1 over 1024 stored fronts (kHitKeys);
//   "some requests carry a budget filter or use the table verb":
//       one request in 16 for each (kSidePathShare);
//   "beside hit traffic" (serve-miss): one connection pausing 2 ms between
//       requests, so the hits stay light next to the misses (kHitPause);
//   "a seeded share of misses is requested twice at once": a quarter
//       (kTwinShare).
// The component and width of a spec follow its popularity rank through
// the fixed rotation kHitShapes (bench.h).
constexpr std::size_t kHitKeys = 1024;
constexpr double kSidePathShare = 1.0 / 16.0;
constexpr auto kHitPause = std::chrono::milliseconds(2);
constexpr double kTwinShare = 0.25;
/// Misses between two restores of serve-miss's store.  A multiple of
/// std::size(kMissShapes), so every rotation serves the same shape mix
/// over a store of the same size.
constexpr std::size_t kMissesPerRotation = 24;
/// Set-up samples taken at each pause in the load (between serve-hit's
/// rounds, between serve-miss's rotations).  A daemon start takes either
/// ~5 ms or ~9 ms on the shared development host, so the median needs
/// many samples.
constexpr int kSetupSamplesPerPause = 3;

/// serve-hit's load is one closed-loop connection, and while it runs the
/// benchmark and its daemon share one CPU.  A request then hands off
/// between client and daemon by same-CPU wake-ups; nothing is lost, since
/// one side always waits for the other.  With nproc connections, or with
/// the two sides on different CPUs, a request's time followed the shared
/// host's scheduling, not the program (README.md, "One connection on one
/// CPU").
class single_cpu_scope {
 public:
  single_cpu_scope() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
  ~single_cpu_scope() { restore(); }
  single_cpu_scope(const single_cpu_scope&) = delete;
  single_cpu_scope& operator=(const single_cpu_scope&) = delete;
  /// Gives the calling thread its earlier CPUs back; processes and threads
  /// started while pinned stay pinned.
  void restore() {
    if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
    pinned_ = false;
  }

 private:
  cpu_set_t saved_{};
  bool pinned_{false};
};

/// The populated store's contents and what every request must return.
struct catalog {
  std::vector<core::sweep_spec> specs;
  std::vector<std::string> fronts;  ///< stored front bytes per spec
  std::vector<double> budgets;      ///< budget used for filtered gets
  std::vector<std::string> filtered;  ///< expected budget-filtered payload
  std::vector<std::size_t> table_specs;  ///< specs with a stored table
  std::map<std::size_t, std::string> tables;  ///< spec index -> table bytes
  std::vector<double> zipf_cdf;  ///< popularity; spec index = rank
};

/// Specs of 4..8 bits, mult (signed/unsigned) and adder, in popularity
/// order with shapes from kHitShapes; tables for the hottest specs of
/// <= 6 bits.
catalog make_catalog(const options& opt, std::size_t keys,
                     std::size_t tables) {
  catalog c;
  axc::rng gen = seeded_rng(opt.seed, 0xca7a1);
  for (std::size_t i = 0; i < keys; ++i) {
    c.specs.push_back(small_spec(gen, kHitShapes[i % std::size(kHitShapes)],
                                 pick(gen, 200, 2000),
                                 mix64(opt.seed ^ (i + 1))));
    c.fronts.push_back(synthetic_front(gen));
    const auto points = core::parse_front(c.fronts.back());
    const double budget = (*points)[points->size() / 2].x;
    std::vector<core::pareto_point> kept;
    for (const auto& p : *points) {
      if (p.x <= budget) kept.push_back(p);
    }
    c.budgets.push_back(budget);
    c.filtered.push_back(core::serialize_front(kept));
  }
  for (std::size_t i = 0; i < keys && c.table_specs.size() < tables; ++i) {
    if (c.specs[i].options.width > 6) continue;
    const core::component_handle handle = c.specs[i].make_component();
    c.tables[i] = core::serialize_table(handle.width(),
                                        handle.characterize(c.specs[i].seed));
    c.table_specs.push_back(i);
  }
  // Zipf(1) popularity by rank.
  double total = 0.0;
  for (std::size_t r = 0; r < keys; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    c.zipf_cdf.push_back(total);
  }
  for (double& v : c.zipf_cdf) v /= total;
  return c;
}

std::size_t zipf_pick(const catalog& c, axc::rng& gen) {
  const double u = gen.uniform01();
  const auto it = std::lower_bound(c.zipf_cdf.begin(), c.zipf_cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - c.zipf_cdf.begin()),
                  c.zipf_cdf.size() - 1);
}

/// Writes the catalog into a fresh store at `dir`; false on any failure.
bool populate(const catalog& c, const std::string& dir) {
  remove_tree(dir);
  auto store = core::result_store::open(dir);
  if (!store) return false;
  for (std::size_t i = 0; i < c.specs.size(); ++i) {
    if (!store->put("front",
                    core::result_store::format_key(c.specs[i].store_key()),
                    c.fronts[i])) {
      return false;
    }
  }
  for (const auto& [i, table] : c.tables) {
    const std::string key = core::result_store::format_key(
        c.specs[i].make_component().fingerprint());
    if (!store->put("table", key, table)) return false;
  }
  return true;
}

/// The serve workloads' set-up: population of a fresh store (timed into
/// `populate_s`), a snapshot of it, and the daemon the load runs against.
/// Set-up samples start daemons over the snapshot (sample_setup) or over a
/// fresh copy of it (serve-miss's restarts) while the run proceeds, so the
/// store they open never grows.
struct serve_setup {
  std::string store;
  std::string snapshot;
  std::string first_request;
  bool with_worker{false};
  double populate_s{0.0};
  std::vector<double> setup_s;
  std::optional<daemon_process> daemon;
};

serve_setup set_up(const options& opt, const catalog& c, bool with_worker,
                   outcome& out) {
  serve_setup s;
  s.store = opt.run_dir + "/store";
  s.snapshot = opt.run_dir + "/store-snapshot";
  s.first_request = encode("get", c.specs.front());
  s.with_worker = with_worker;
  const auto t0 = bench_clock::now();
  const bool populated = populate(c, s.store);
  s.populate_s = seconds_between(t0, bench_clock::now());
  out.count(populated, "store population failed");
  std::error_code ec;
  std::filesystem::copy(s.store, s.snapshot,
                        std::filesystem::copy_options::recursive, ec);
  out.count(!ec, "store snapshot failed");
  double ready_s = 0.0;
  s.daemon = start_serve_daemon(opt, s.store, opt.run_dir + "/d", with_worker,
                                nproc(), s.first_request, ready_s);
  out.count(s.daemon.has_value(), "axc_serve did not start");
  if (s.daemon) s.setup_s.push_back(ready_s);
  return s;
}

/// One set-up sample: exec axc_serve over the snapshot, time it to its
/// first reply, stop it.  On the shared host the same start alternates
/// between ~4.5 ms and ~8.5 ms phases lasting seconds, so the workloads
/// take these samples spread over the whole run rather than back to back.
void sample_setup(const options& opt, serve_setup& s, outcome& out) {
  const std::string root = opt.run_dir + "/setup";
  remove_tree(root);
  double ready_s = 0.0;
  auto daemon = start_serve_daemon(opt, s.snapshot, root, s.with_worker,
                                   nproc(), s.first_request, ready_s);
  out.count(daemon.has_value(), "set-up sample: axc_serve did not start");
  if (!daemon) return;
  s.setup_s.push_back(ready_s);
  out.count(daemon->stop(std::chrono::seconds(10)),
            "set-up sample: axc_serve did not drain cleanly");
}

/// One verified hit request: get (optionally budget-filtered) or table.
struct hit_result {
  bool ok{false};
  double seconds{0.0};
};

hit_result one_hit(const catalog& c, net::unix_stream& stream, axc::rng& gen,
                   tracer& trace, std::uint64_t request) {
  const double u = gen.uniform01();
  const bool table = u < kSidePathShare && !c.table_specs.empty();
  const bool budgeted = !table && u >= kSidePathShare &&
                        u < 2.0 * kSidePathShare;
  std::size_t i = 0;
  if (table) {
    i = c.table_specs[gen.below(c.table_specs.size())];
  } else {
    i = zipf_pick(c, gen);
  }
  scoped_span span(trace, "workload.hit", request);
  const auto t0 = bench_clock::now();
  const std::string text =
      table ? encode("table", c.specs[i])
            : encode("get", c.specs[i],
                     budgeted ? std::optional<double>(c.budgets[i])
                              : std::nullopt);
  const auto reply = ask(stream, text);
  hit_result r;
  r.seconds = seconds_between(t0, bench_clock::now());
  const std::string& expected =
      table ? c.tables.at(i) : budgeted ? c.filtered[i] : c.fronts[i];
  r.ok = reply && reply->status == "hit" && reply->payload == expected;
  return r;
}

layer_inputs probe_inputs(const options& opt, const catalog& c) {
  layer_inputs in;
  in.shards = nproc();
  in.store_dir = opt.run_dir + "/store";
  in.stored_specs = c.specs;
  // The hottest spec the incremental search path handles (>= 6 bits).
  in.probe_spec = *std::find_if(
      c.specs.begin(), c.specs.end(),
      [](const core::sweep_spec& s) { return s.options.width >= 6; });
  return in;
}

}  // namespace

void run_serve_hit_workload(const options& opt, tracer& trace,
                            outcome& out) {
  const catalog c = make_catalog(opt, opt.smoke ? 24 : kHitKeys,
                                 opt.smoke ? 2 : 12);
  single_cpu_scope pin;
  serve_setup setup = set_up(opt, c, /*with_worker=*/false, out);
  if (!setup.daemon) return;
  daemon_process& daemon = *setup.daemon;

  // The load runs in one-second rounds; after each round the client waits
  // while set-up samples are taken, so samples span the run without
  // competing with the load.
  const auto rounds = static_cast<std::size_t>(std::max(1.0, opt.seconds));
  const auto round_length = std::chrono::duration_cast<bench_clock::duration>(
      std::chrono::duration<double>(opt.seconds / static_cast<double>(rounds)));
  std::vector<double> all;
  // Throughput is the median over the rounds, so a short stall of the
  // shared host moves one round, not the run's figure.
  std::vector<double> per_second;
  std::uint64_t failures = 0;
  double window = 0.0;
  double setup_cpu = 0.0;
  auto stream = connect_daemon(opt.run_dir + "/d");
  out.count(stream.has_value(), "client could not connect");
  axc::rng gen = seeded_rng(opt.seed, 0x4170);
  std::uint64_t request = 1;
  rss_sampler rss(daemon.pid(), /*include_root=*/true);
  const double self0 = cpu_seconds_self_and_children();
  const double daemon0 = daemon.cpu_seconds();
  for (std::size_t r = 0; stream && r < rounds; ++r) {
    const auto round_start = bench_clock::now();
    const auto round_end = round_start + round_length;
    std::size_t done = 0;
    while (bench_clock::now() < round_end) {
      const hit_result h = one_hit(c, *stream, gen, trace, request++);
      all.push_back(h.seconds);
      ++done;
      if (!h.ok) ++failures;
    }
    const double round_s = seconds_between(round_start, bench_clock::now());
    window += round_s;
    per_second.push_back(static_cast<double>(done) / std::max(round_s, 1e-9));
    const double cpu0 = cpu_seconds_self_and_children();
    for (int k = 0; k < kSetupSamplesPerPause; ++k) {
      sample_setup(opt, setup, out);
    }
    setup_cpu += cpu_seconds_self_and_children() - cpu0;
  }
  const double cpu = cpu_seconds_self_and_children() - self0 - setup_cpu +
                     daemon.cpu_seconds() - daemon0;
  const double peak = rss.peak_mb();
  stream.reset();
  out.count(daemon.stop(std::chrono::seconds(30)),
            "axc_serve did not drain cleanly");
  out.attempted += all.size();
  for (std::uint64_t f = 0; f < failures; ++f) {
    out.fail("hit reply missing or differs from the stored bytes");
  }
  const auto ops = static_cast<double>(all.size());
  out.e2e("setup_s", median(setup.setup_s), "s");
  out.e2e("latency_ms_p50", 1e3 * median(all), "ms");
  out.note("latency_ms_p90", 1e3 * quantile(all, 0.9), "ms");
  out.e2e("ops_per_s", median(per_second), "1/s");
  out.e2e("cpu_ms_per_op", 1e3 * cpu / std::max(1.0, ops), "ms");
  out.e2e("peak_rss_mb", peak, "MiB");

  out.note("populate_s", setup.populate_s, "s");
  out.note("requests", ops, "count");
  out.note("hit_ms_p50", 1e3 * median(all), "ms");
  out.note("hit_ms_p99", 1e3 * quantile(all, 0.99), "ms");
  out.note("hits_per_s", ops / window, "1/s");
  out.note("cpu_s", cpu, "s");

  if (!opt.trace) return;
  pin.restore();
  layer_inputs in = probe_inputs(opt, c);
  run_layer_probes(opt, trace, in, out);
}

void run_serve_miss_workload(const options& opt, tracer& trace,
                             outcome& out) {
  const catalog c = make_catalog(opt, opt.smoke ? 16 : 256,
                                 opt.smoke ? 1 : 4);
  serve_setup setup = set_up(opt, c, /*with_worker=*/true, out);
  if (!setup.daemon) return;

  struct served_miss {
    core::sweep_spec spec;
    std::string payload;
  };
  std::vector<served_miss> served;
  std::vector<double> miss_s, enqueue_s, hit_s;
  std::size_t coalesced = 0;
  std::size_t rejected = 0;
  std::uint64_t hit_failures = 0;
  double window = 0.0;
  double cpu = 0.0;
  // Per rotation, so that a stall of the shared host (an fsync burst)
  // moves one rotation's figures, not the run's medians.
  std::vector<double> rotation_ops_per_s, rotation_cpu_per_op;

  // Every miss adds a front to the store the daemon serves.  The run goes
  // in rotations of kMissesPerRotation misses; between rotations, outside
  // the measured window, the daemon is stopped, the store restored from
  // its snapshot and the daemon started again (a set-up sample).  So each
  // rotation serves the same store sizes, however many fit in the run.
  const std::size_t per_rotation =
      opt.smoke ? std::size(kMissShapes) : kMissesPerRotation;
  rss_sampler rss(::getpid(), /*include_root=*/false);
  axc::rng gen = seeded_rng(opt.seed, 0x3155);
  axc::rng hit_gen = seeded_rng(opt.seed, 0x41770);
  std::uint64_t hit_request = std::uint64_t{1} << 48;
  std::uint64_t i = 0;
  const auto start = bench_clock::now();
  for (;;) {
    daemon_process& daemon = *setup.daemon;
    const std::string root = opt.run_dir + "/d";
    const double self0 = cpu_seconds_self_and_children();
    const double daemon0 = daemon.cpu_seconds();
    const auto rotation_start = bench_clock::now();
    const std::size_t misses_before = miss_s.size();
    std::atomic<bool> stop_hits{false};
    std::thread hitter([&] {
      auto stream = connect_daemon(root);
      if (!stream) {
        ++hit_failures;
        return;
      }
      while (!stop_hits.load()) {
        const hit_result r = one_hit(c, *stream, hit_gen, trace, hit_request++);
        hit_s.push_back(r.seconds);
        if (!r.ok) ++hit_failures;
        std::this_thread::sleep_for(kHitPause);
      }
    });

    auto stream = connect_daemon(root);
    auto twin = connect_daemon(root);
    out.count(stream.has_value() && twin.has_value(),
              "miss clients could not connect");
    for (std::size_t k = 0; stream && twin && k < per_rotation; ++k, ++i) {
      const core::sweep_spec spec =
          small_spec(gen, kMissShapes[i % std::size(kMissShapes)],
                     opt.smoke ? 60 : 250, mix64(opt.seed ^ 0x3155) + i);
      const bool twice = gen.chance(kTwinShare);
      scoped_span span(trace, "workload.miss", i);
      const auto t0 = bench_clock::now();
      const auto first = ask(*stream, encode("get", spec));
      enqueue_s.push_back(seconds_between(t0, bench_clock::now()));
      if (first && first->status == "miss-rejected") ++rejected;
      std::optional<core::serve_reply> twin_reply;
      std::thread twin_wait;
      if (twice) {
        const auto again = ask(*twin, encode("get", spec));
        if (again &&
            (again->status == "queued" || again->status == "running")) {
          ++coalesced;
        }
        if (again && again->status == "miss-rejected") ++rejected;
        twin_wait = std::thread([&] {
          twin_reply = ask(*twin, encode("wait", spec, {}, 120000));
        });
      }
      const auto done = ask(*stream, encode("wait", spec, {}, 120000));
      miss_s.push_back(seconds_between(t0, bench_clock::now()));
      if (twin_wait.joinable()) twin_wait.join();
      const bool ok = first && first->status == "miss-enqueued" && done &&
                      done->status == "hit" && done->payload &&
                      (!twice || (twin_reply && twin_reply->status == "hit" &&
                                  twin_reply->payload == done->payload));
      out.count(ok, "miss did not turn into a front");
      if (ok) served.push_back({spec, *done->payload});
    }
    const double rotation_s = seconds_between(rotation_start, bench_clock::now());
    window += rotation_s;
    stop_hits = true;
    hitter.join();
    stream.reset();
    twin.reset();
    const double rotation_cpu = cpu_seconds_self_and_children() - self0 +
                                daemon.cpu_seconds() - daemon0;
    cpu += rotation_cpu;
    const auto misses = static_cast<double>(miss_s.size() - misses_before);
    rotation_ops_per_s.push_back(misses / std::max(rotation_s, 1e-9));
    rotation_cpu_per_op.push_back(rotation_cpu / std::max(1.0, misses));
    out.count(daemon.stop(std::chrono::seconds(30)),
              "axc_serve did not drain cleanly");
    setup.daemon.reset();
    if (seconds_between(start, bench_clock::now()) >= opt.seconds) break;

    // Restore the store and start the next rotation's daemon over it.
    remove_tree(root);
    remove_tree(setup.store);
    std::error_code ec;
    std::filesystem::copy(setup.snapshot, setup.store,
                          std::filesystem::copy_options::recursive, ec);
    out.count(!ec, "store restore failed");
    double ready_s = 0.0;
    setup.daemon = start_serve_daemon(opt, setup.store, root,
                                      /*with_worker=*/true, nproc(),
                                      setup.first_request, ready_s);
    out.count(setup.daemon.has_value(), "axc_serve did not restart");
    if (!setup.daemon) break;
    setup.setup_s.push_back(ready_s);
    for (int k = 1; k < kSetupSamplesPerPause; ++k) {
      sample_setup(opt, setup, out);
    }
  }
  const double peak = rss.peak_mb();
  out.attempted += hit_s.size();
  for (std::uint64_t f = 0; f < hit_failures; ++f) {
    out.fail("hit beside misses failed");
  }

  // Untimed: every served miss front equals its in-process reference.
  {
    std::atomic<std::size_t> next{0};
    std::vector<char> matches(served.size(), 0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < nproc(); ++t) {
      pool.emplace_back([&] {
        for (std::size_t k = next++; k < served.size(); k = next++) {
          const core::sweep_result ref =
              core::run_sweep_inprocess(served[k].spec);
          matches[k] = ref.complete && core::serialize_front(ref.front) ==
                                           served[k].payload;
        }
      });
    }
    for (auto& th : pool) th.join();
    for (const char match : matches) {
      out.count(match != 0, "served miss front differs from reference");
    }
  }

  const auto ops = static_cast<double>(miss_s.size());
  out.e2e("setup_s", median(setup.setup_s), "s");
  out.e2e("latency_ms_p50", 1e3 * median(miss_s), "ms");
  out.note("latency_ms_p90", 1e3 * quantile(miss_s, 0.9), "ms");
  out.e2e("ops_per_s", median(rotation_ops_per_s), "1/s");
  out.e2e("cpu_ms_per_op", 1e3 * median(rotation_cpu_per_op), "ms");
  out.e2e("peak_rss_mb", peak, "MiB");

  out.note("populate_s", setup.populate_s, "s");
  out.note("misses", ops, "count");
  out.note("miss_s_p50", median(miss_s), "s");
  out.note("miss_s_p90", quantile(miss_s, 0.9), "s");
  out.note("enqueue_ms_p50", 1e3 * median(enqueue_s), "ms");
  out.note("coalesced", static_cast<double>(coalesced), "count");
  out.note("rejected", static_cast<double>(rejected), "count");
  out.note("hit_ms_p50", 1e3 * median(hit_s), "ms");
  out.note("hit_ms_p99", 1e3 * quantile(hit_s, 0.99), "ms");
  out.note("hits_per_s", static_cast<double>(hit_s.size()) / window, "1/s");
  out.note("cpu_s", cpu, "s");

  if (!opt.trace) return;
  layer_inputs in = probe_inputs(opt, c);
  run_layer_probes(opt, trace, in, out);
}

}  // namespace perfbench
