// Per-layer measurements for the traced run.
//
// Each function times calls into one layer's public API from benchmark
// code, records a span per call, and turns the spans into the per-layer
// metrics of BENCHMARK.json.  They run on the workload's own specs, so a
// layer metric moves with the workload that exercises it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/result_server.h"
#include "core/shard_runner.h"
#include "core/wmed_approximator.h"
#include "metrics/adder_metrics.h"
#include "metrics/mult_spec.h"

namespace perfbench {

/// The supervision stream of one run_sweep call, timestamped as the
/// benchmark's on_event callback saw it.
struct sweep_timeline {
  struct event {
    axc::core::shard_event_kind kind;
    std::size_t shard;
    std::size_t attempt;
    std::int64_t t_ns;
  };
  std::int64_t call_ns{0};
  std::int64_t return_ns{0};
  double children_cpu_s{0.0};
  std::size_t shards{0};
  std::size_t attempts{0};
  std::vector<event> events;
};

/// run_sweep with the timeline recorded (events appended to `timeline`)
/// and a "core.shard_runner.run_sweep" span around the call.
[[nodiscard]] axc::core::sweep_result timed_run_sweep(
    const axc::core::sweep_spec& spec, axc::core::shard_runner_config config,
    tracer& trace, sweep_timeline& timeline, std::uint64_t request = 0);

/// The typed search config a sweep_spec's component options describe
/// (execution knobs left at their defaults).  Only the probes that need a
/// typed approximator use it; typed_config_matches checks it against the
/// component the workers build.
template <typename Spec>
[[nodiscard]] axc::core::basic_approximation_config<Spec> typed_config(
    const axc::core::sweep_spec& spec, Spec typed) {
  axc::core::basic_approximation_config<Spec> config;
  config.spec = typed;
  config.distribution = spec.options.distribution;
  config.iterations = spec.options.iterations;
  config.runs_per_target = spec.options.runs_per_target;
  config.extra_columns = spec.options.extra_columns;
  config.max_mutations = spec.options.max_mutations;
  config.lambda = spec.options.lambda;
  config.error_tiebreak = spec.options.error_tiebreak;
  config.rng_seed = spec.options.rng_seed;
  config.library = spec.options.library;
  return config;
}

/// True when typed_config(spec) describes the same search as
/// spec.make_component(), the component every worker runs (equal
/// fingerprints).
[[nodiscard]] bool typed_config_matches(const axc::core::sweep_spec& spec);

/// Seconds to build the spec's evaluator cache (one wmed_approximator
/// construction) in this process.
[[nodiscard]] double cache_build_seconds(const axc::core::sweep_spec& spec);

/// `perfbench --cache-build SPEC_FILE OUT_FILE`: one cache build of the
/// spec in SPEC_FILE, its seconds written to OUT_FILE.  Exit code 0 on
/// success.
int cache_build_main(const std::string& spec_path, const std::string& out_path);

/// Cache builds of one spec, each in a freshly exec'd process with the
/// default allocator: the set-up every axc_worker pays once, cold.
class cache_build_sampler {
 public:
  /// Writes the spec to `dir`/cache-build.spec.
  cache_build_sampler(const axc::core::sweep_spec& spec, std::string dir);
  /// Seconds of one build as the child measured it; nullopt on failure.
  [[nodiscard]] std::optional<double> sample();

 private:
  std::string dir_;
  bool spec_written_{false};
};

// ---- Serving plumbing shared by the serve workloads and the probes --------

/// Starts `axc_serve` over `store_dir` with its socket at `root`/sock and
/// returns once a connection has been answered: `first_request` is sent
/// (retrying until the socket accepts) and `ready_s` receives the time
/// from exec to that reply.  With `with_worker` the daemon can sweep
/// misses on `shards` worker processes.
[[nodiscard]] std::optional<daemon_process> start_serve_daemon(
    const options& opt, const std::string& store_dir, const std::string& root,
    bool with_worker, std::size_t shards, const std::string& first_request,
    double& ready_s);

/// Connects to the daemon socket of `root`.
[[nodiscard]] std::optional<axc::support::net::unix_stream> connect_daemon(
    const std::string& root);

/// One request over a connected stream; nullopt on any transport or
/// parse failure.  `reply_bytes` receives the reply frame payload size.
[[nodiscard]] std::optional<axc::core::serve_reply> ask(
    axc::support::net::unix_stream& stream, const std::string& request_text,
    std::size_t* reply_bytes = nullptr);

[[nodiscard]] std::string encode(const std::string& verb,
                                 const axc::core::sweep_spec& spec,
                                 std::optional<double> budget = {},
                                 std::int64_t timeout_ms = 30000);

/// A seeded synthetic Pareto front in the store's "axc-front v1" text.
[[nodiscard]] std::string synthetic_front(axc::rng& gen);

/// Inputs of the per-layer probe suite.
struct layer_inputs {
  /// The spec the search, shard-runner and session probes run (the
  /// workload's own spec, or the serve workloads' hottest spec of >= 6
  /// bits).
  axc::core::sweep_spec probe_spec;
  std::size_t shards{1};
  /// Timelines the workload loop already recorded; when empty the suite
  /// runs one probe sweep of that shape itself.
  std::vector<sweep_timeline> clean;
  std::vector<sweep_timeline> crashed;
  /// A populated result store and the specs whose fronts it holds (the
  /// serve workloads' store).  Empty: the suite builds a small one.
  std::string store_dir;
  std::vector<axc::core::sweep_spec> stored_specs;
};

/// Runs every layer probe and appends the per-layer metrics to `out`.
void run_layer_probes(const options& opt, tracer& trace, layer_inputs& in,
                      outcome& out);

/// The shard_env arming every shard's first attempt to crash mid-shard,
/// with the autosave cadence the recover shape uses.
void arm_first_attempt_crashes(const axc::core::sweep_spec& spec,
                               axc::core::shard_runner_config& config);

}  // namespace perfbench
