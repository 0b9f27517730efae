// The sweep workloads: `sweep-mult8` (a paper-scale sharded sweep whose
// time is almost all CGP search) and `recover` (the same sweep with every
// shard's first worker crashing mid-run, so session resume/salvage and
// shard retry are on the measured path).
#include <algorithm>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "core/result_store.h"
#include "core/search_session.h"
#include "layers.h"

namespace perfbench {

namespace core = axc::core;

void run_sweep_workload(const options& opt, tracer& trace, outcome& out,
                        bool crash_recover) {
  const std::size_t shards =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // A run rotates over several search seeds of the same sweep shape, so
  // its figures average over search trajectories (whose cost differs by
  // ~10%) rather than follow the one a seed happens to draw.  The recover
  // sweeps are long (most of their time is the retry wait), so fewer.
  const std::size_t variants = opt.smoke ? 1 : crash_recover ? 2 : 8;
  std::vector<core::sweep_spec> specs;
  for (std::size_t v = 0; v < variants; ++v) {
    specs.push_back(mult8_sweep_spec(opt, v));
  }

  // Untimed references: the in-process runs every sharded sweep must match.
  core::session_config reference_options;
  reference_options.job_threads = shards;
  std::vector<std::string> reference_fronts;
  for (const core::sweep_spec& spec : specs) {
    const core::sweep_result reference =
        core::run_sweep_inprocess(spec, reference_options);
    out.count(reference.complete, "in-process reference incomplete");
    reference_fronts.push_back(core::serialize_front(reference.front));
  }

  std::vector<sweep_timeline> timelines;
  std::size_t evaluations = 0;
  const auto one_sweep = [&](std::size_t rep, bool crash) {
    const std::size_t v = rep % variants;
    const core::sweep_spec& spec = specs[v];
    core::shard_runner_config config;
    config.shards = shards;
    config.worker_binary = opt.worker_binary();
    config.work_dir = opt.run_dir + "/sweep";
    config.store_dir = opt.run_dir + "/store";
    remove_tree(config.work_dir);
    remove_tree(config.store_dir);
    if (crash) arm_first_attempt_crashes(spec, config);
    sweep_timeline timeline;
    const auto t0 = bench_clock::now();
    const core::sweep_result result =
        timed_run_sweep(spec, config, trace, timeline, rep);
    const double seconds = seconds_between(t0, bench_clock::now());

    const std::string& reference_front = reference_fronts[v];
    bool ok = result.complete &&
              core::serialize_front(result.front) == reference_front;
    const auto store = core::result_store::open(config.store_dir);
    const std::string key = core::result_store::format_key(spec.store_key());
    ok = ok && store && store->get("front", key) == reference_front;
    if (crash) {
      // Without a retry the workload would silently measure a clean sweep.
      for (const core::shard_outcome& s : result.shards) {
        ok = ok && s.attempts >= 2;
      }
    }
    out.count(ok, crash ? "recovered sweep wrong or crash not fired"
                        : "sharded sweep differs from reference");
    for (const core::evolved_design& d : result.designs) {
      evaluations += d.evaluations;
    }
    timelines.push_back(std::move(timeline));
    remove_tree(config.work_dir);
    remove_tree(config.store_dir);
    return seconds;
  };

  // One clean sweep warms the page cache and binaries; checked, not timed.
  (void)one_sweep(0, /*crash=*/false);
  timelines.clear();
  evaluations = 0;

  // Set-up is the evaluator cache build every worker pays, each sample in
  // a freshly exec'd process as in a worker.  Builds follow each measured
  // sweep, so the samples span the run: on a shared host the
  // same build can run through slow phases lasting seconds, which samples
  // taken back to back would catch whole or miss.  Their CPU time stays
  // out of cpu_ms_per_op.
  out.count(typed_config_matches(specs[0]),
            "typed cache-build config differs from the workers' component");
  cache_build_sampler sampler(specs[0], opt.run_dir + "/cache-build");
  // The same build takes ~1.8 ms in some processes and ~3 ms in others,
  // so the median needs many samples; recover runs few sweeps, so more
  // samples follow each of them.
  const int setup_samples = crash_recover ? 25 : 5;
  std::vector<double> setups;
  double setup_cpu = 0.0;

  std::vector<double> sweep_s;
  rss_sampler rss(::getpid(), /*include_root=*/false);
  const double cpu0 = cpu_seconds_self_and_children();
  const auto start = bench_clock::now();
  // Whole rotations only, so every variant weighs the same.
  while (sweep_s.size() < 2 || sweep_s.size() % variants != 0 ||
         seconds_between(start, bench_clock::now()) < opt.seconds) {
    sweep_s.push_back(one_sweep(sweep_s.size(), crash_recover));
    const double setup_cpu0 = cpu_seconds_self_and_children();
    for (int i = 0; i < setup_samples; ++i) {
      const std::optional<double> seconds = sampler.sample();
      out.count(seconds.has_value(), "cache build process failed");
      if (seconds) setups.push_back(*seconds);
    }
    setup_cpu += cpu_seconds_self_and_children() - setup_cpu0;
  }
  const double cpu = cpu_seconds_self_and_children() - cpu0 - setup_cpu;
  double busy = 0.0;
  for (const double s : sweep_s) busy += s;
  const auto ops = static_cast<double>(sweep_s.size());

  out.e2e("setup_s", median(setups), "s");
  out.e2e("latency_ms_p50", 1e3 * median(sweep_s), "ms");
  out.note("latency_ms_p90", 1e3 * quantile(sweep_s, 0.9), "ms");
  out.e2e("ops_per_s", ops / busy, "1/s");
  out.e2e("cpu_ms_per_op", 1e3 * cpu / ops, "ms");
  out.e2e("peak_rss_mb", rss.peak_mb(), "MiB");

  out.note("sweeps", ops, "count");
  out.note("sweep_s", median(sweep_s), "s");
  out.note("evals_per_s", static_cast<double>(evaluations) / busy, "1/s");
  out.note("cpu_s", cpu, "s");

  if (!opt.trace) return;
  layer_inputs in;
  in.probe_spec = specs[0];
  in.shards = shards;
  (crash_recover ? in.crashed : in.clean) = std::move(timelines);
  run_layer_probes(opt, trace, in, out);
}

}  // namespace perfbench
