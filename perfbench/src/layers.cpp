#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "core/component_handle.h"
#include "core/result_store.h"
#include "core/search_session.h"
#include "support/net.h"
#include "support/subprocess.h"

namespace perfbench {

namespace core = axc::core;
namespace net = axc::support::net;

namespace {

double ns_to_ms(double ns) { return ns / 1e6; }
double ns_to_us(double ns) { return ns / 1e3; }

/// Times `fn` under a span named `name`; returns the wall time in ns.
template <typename Fn>
double timed(tracer& trace, const char* name, Fn&& fn,
             std::uint64_t request = 0) {
  const auto t0 = bench_clock::now();
  {
    scoped_span span(trace, name, request);
    fn();
  }
  return std::chrono::duration<double, std::nano>(bench_clock::now() - t0)
      .count();
}

}  // namespace

// ---- sweeps ----------------------------------------------------------------

core::sweep_result timed_run_sweep(const core::sweep_spec& spec,
                                   core::shard_runner_config config,
                                   tracer& trace, sweep_timeline& timeline,
                                   std::uint64_t request) {
  config.on_event = [&timeline](const core::shard_event& e) {
    timeline.events.push_back({e.kind, e.shard, e.attempt, tracer::now_ns()});
  };
  const double cpu0 = children_cpu_seconds();
  timeline.call_ns = tracer::now_ns();
  core::sweep_result result;
  {
    scoped_span span(trace, "core.shard_runner.run_sweep", request);
    result = core::run_sweep(spec, config);
  }
  timeline.return_ns = tracer::now_ns();
  timeline.children_cpu_s = children_cpu_seconds() - cpu0;
  timeline.shards = result.shards.size();
  timeline.attempts = 0;
  for (const core::shard_outcome& s : result.shards) {
    timeline.attempts += s.attempts;
  }
  return result;
}

void arm_first_attempt_crashes(const core::sweep_spec& spec,
                               core::shard_runner_config& config) {
  const std::size_t g = spec.options.iterations;
  const auto parts = core::split_plan(spec.plan, config.shards);
  config.shard_env.assign(parts.size(), {});
  for (std::size_t i = 0; i < parts.size(); ++i) {
    // Crash halfway through each shard's second job, after the first job's
    // checkpoint: resume has saved and lost work, and the shards crash
    // close together, so the node-health path they trigger is the same
    // on every sweep.
    const std::size_t saved = parts[i].plan.job_count() > 1 ? 1 : 0;
    const std::size_t at = saved * g + g / 2 + 1;
    config.shard_env[i] = {"AXC_FAULT=worker-crash-generation@" +
                           std::to_string(at)};
  }
  config.worker_autosave_generations = std::max<std::size_t>(1, g / 4);
}

double cache_build_seconds(const core::sweep_spec& spec) {
  const auto t0 = bench_clock::now();
  if (spec.component == "adder") {
    const core::adder_wmed_approximator a(
        typed_config(spec, axc::metrics::adder_spec{spec.options.width}));
    (void)a.shared_cache();
  } else {
    const core::wmed_approximator a(typed_config(
        spec,
        axc::metrics::mult_spec{spec.options.width, spec.options.is_signed}));
    (void)a.shared_cache();
  }
  return seconds_between(t0, bench_clock::now());
}

bool typed_config_matches(const core::sweep_spec& spec) {
  const core::component_handle workers = spec.make_component();
  if (!workers) return false;
  const core::component_handle typed =
      spec.component == "adder"
          ? core::make_component(typed_config(
                spec, axc::metrics::adder_spec{spec.options.width}))
          : core::make_component(typed_config(
                spec, axc::metrics::mult_spec{spec.options.width,
                                              spec.options.is_signed}));
  return typed.fingerprint() == workers.fingerprint();
}

int cache_build_main(const std::string& spec_path,
                     const std::string& out_path) {
  const auto spec = core::sweep_spec::read_file(spec_path);
  if (!spec) return 2;
  const double seconds = cache_build_seconds(*spec);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) return 1;
  const bool written = std::fprintf(f, "%.9g\n", seconds) > 0;
  return std::fclose(f) == 0 && written ? 0 : 1;
}

cache_build_sampler::cache_build_sampler(const core::sweep_spec& spec,
                                         std::string dir)
    : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  spec_written_ = spec.write_file(dir_ + "/cache-build.spec");
}

std::optional<double> cache_build_sampler::sample() {
  if (!spec_written_) return std::nullopt;
  std::error_code ec;
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe", ec).string();
  if (ec) return std::nullopt;
  const std::string out = dir_ + "/cache-build.out";
  std::filesystem::remove(out, ec);
  auto child = daemon_process::spawn(
      {self, "--cache-build", dir_ + "/cache-build.spec", out});
  if (!child || !child->wait()) return std::nullopt;
  std::FILE* f = std::fopen(out.c_str(), "r");
  if (f == nullptr) return std::nullopt;
  double seconds = 0.0;
  const bool read = std::fscanf(f, "%lf", &seconds) == 1;
  std::fclose(f);
  if (!read || !(seconds > 0.0)) return std::nullopt;
  return seconds;
}

// ---- serving plumbing -------------------------------------------------------

std::optional<net::unix_stream> connect_daemon(const std::string& root) {
  return net::unix_stream::connect(root + "/sock");
}

std::optional<core::serve_reply> ask(net::unix_stream& stream,
                                     const std::string& request_text,
                                     std::size_t* reply_bytes) {
  if (!stream.send(request_text)) return std::nullopt;
  const auto frame = stream.receive(std::size_t{64} << 20);
  if (!frame) return std::nullopt;
  if (reply_bytes) *reply_bytes = frame->size();
  return core::parse_reply(*frame);
}

std::string encode(const std::string& verb, const core::sweep_spec& spec,
                   std::optional<double> budget, std::int64_t timeout_ms) {
  core::serve_request request;
  request.verb = verb;
  request.budget = budget;
  request.timeout_ms = timeout_ms;
  request.spec = spec;
  return core::encode_request(request);
}

std::optional<daemon_process> start_serve_daemon(
    const options& opt, const std::string& store_dir, const std::string& root,
    bool with_worker, std::size_t shards, const std::string& first_request,
    double& ready_s) {
  std::vector<std::string> argv = {
      opt.serve_binary(), "--store",  store_dir, "--socket",
      root + "/sock",     "--work-dir", root + "/work",  "--shards",
      std::to_string(shards)};
  if (with_worker) argv.insert(argv.end(), {"--worker", opt.worker_binary()});
  const auto t0 = bench_clock::now();
  auto proc = daemon_process::spawn(argv);
  if (!proc) return std::nullopt;
  const auto deadline = t0 + std::chrono::seconds(30);
  while (bench_clock::now() < deadline) {
    if (auto stream = connect_daemon(root)) {
      if (ask(*stream, first_request)) {
        ready_s = seconds_between(t0, bench_clock::now());
        return proc;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return std::nullopt;
}

std::string synthetic_front(axc::rng& gen) {
  std::vector<core::pareto_point> points;
  const std::size_t n = pick(gen, 4, 16);
  double x = gen.uniform(1e-6, 1e-4);
  double y = gen.uniform(200.0, 400.0);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({x, y, i});
    x *= gen.uniform(1.3, 3.0);
    y *= gen.uniform(0.5, 0.95);
  }
  return core::serialize_front(points);
}

// ---- per-layer probes --------------------------------------------------------

namespace {

struct shard_numbers {
  double spawn_ms{0}, shard_s_max{0}, imbalance{0}, cpu_util{0},
      merge_ms{0}, attempts{0}, retry_gap_ms{0};
};

shard_numbers summarize(const sweep_timeline& t) {
  using kind = core::shard_event_kind;
  shard_numbers n;
  std::vector<std::int64_t> first_spawn(t.shards, -1);
  std::vector<std::int64_t> done(t.shards, -1);
  std::int64_t last_spawn = t.call_ns;
  std::int64_t last_done = t.call_ns;
  std::vector<double> gaps;
  std::vector<std::int64_t> exited_at(t.shards, -1);
  for (const auto& e : t.events) {
    if (e.shard >= t.shards) continue;
    if (e.kind == kind::spawned) {
      if (e.attempt == 1) {
        first_spawn[e.shard] = e.t_ns;
        last_spawn = std::max(last_spawn, e.t_ns);
      }
      if (exited_at[e.shard] >= 0) {
        gaps.push_back(static_cast<double>(e.t_ns - exited_at[e.shard]));
        exited_at[e.shard] = -1;
      }
    } else if (e.kind == kind::exited) {
      exited_at[e.shard] = e.t_ns;
    } else if (e.kind == kind::completed) {
      done[e.shard] = e.t_ns;
      last_done = std::max(last_done, e.t_ns);
    }
  }
  std::vector<double> shard_s;
  for (std::size_t s = 0; s < t.shards; ++s) {
    if (first_spawn[s] >= 0 && done[s] >= first_spawn[s]) {
      shard_s.push_back(static_cast<double>(done[s] - first_spawn[s]) / 1e9);
    }
  }
  const double sweep_s = static_cast<double>(t.return_ns - t.call_ns) / 1e9;
  n.spawn_ms = ns_to_ms(static_cast<double>(last_spawn - t.call_ns));
  n.shard_s_max = shard_s.empty()
                      ? 0.0
                      : *std::max_element(shard_s.begin(), shard_s.end());
  n.imbalance = shard_s.empty() ? 0.0 : n.shard_s_max / mean(shard_s);
  n.cpu_util = sweep_s > 0 && t.shards > 0
                   ? t.children_cpu_s /
                         (sweep_s * static_cast<double>(t.shards))
                   : 0.0;
  n.merge_ms = ns_to_ms(static_cast<double>(t.return_ns - last_done));
  n.attempts = static_cast<double>(t.attempts);
  n.retry_gap_ms = ns_to_ms(mean(gaps));
  return n;
}

/// Field-wise median over several sweeps.
shard_numbers summarize(const std::vector<sweep_timeline>& timelines) {
  std::vector<shard_numbers> all;
  for (const auto& t : timelines) all.push_back(summarize(t));
  const auto field = [&all](double shard_numbers::*m) {
    std::vector<double> v;
    for (const auto& n : all) v.push_back(n.*m);
    return median(v);
  };
  shard_numbers n;
  n.spawn_ms = field(&shard_numbers::spawn_ms);
  n.shard_s_max = field(&shard_numbers::shard_s_max);
  n.imbalance = field(&shard_numbers::imbalance);
  n.cpu_util = field(&shard_numbers::cpu_util);
  n.merge_ms = field(&shard_numbers::merge_ms);
  n.attempts = field(&shard_numbers::attempts);
  n.retry_gap_ms = field(&shard_numbers::retry_gap_ms);
  return n;
}

struct search_numbers {
  double mutate_ns{0}, eval_child_ns{0}, bind_us{0}, accept_ratio{0},
      feasible_ratio{0}, evaluations{0}, cache_build_ms{0}, job_s_p50{0},
      job_s_max{0}, ns_per_eval{0};
};

/// A benchmark-owned (1+lambda) loop over the incremental evaluator,
/// shaped like the search (same grid, mutation strength and selection
/// rule), plus a serial replay of the spec's jobs through the component
/// handle.
template <typename Spec>
search_numbers search_probe(const options& opt, const core::sweep_spec& spec,
                            Spec typed, tracer& trace, std::size_t max_jobs,
                            outcome& out) {
  search_numbers n;
  out.count(typed_config_matches(spec),
            "typed probe config differs from the workers' component");
  const auto config = typed_config(spec, typed);
  // The cache build as a worker pays it, in fresh processes; the span
  // covers the whole child process, the metric the build alone.
  cache_build_sampler sampler(spec, opt.run_dir + "/probe-cache-build");
  std::vector<double> builds;
  for (int i = 0; i < 9; ++i) {
    std::optional<double> seconds;
    timed(trace, "metrics.cache_build", [&] { seconds = sampler.sample(); });
    out.count(seconds.has_value(), "cache build process failed");
    if (seconds) builds.push_back(*seconds * 1e3);
  }
  n.cache_build_ms = median(builds);
  const core::basic_wmed_approximator<Spec> approximator(config);

  axc::cgp::parameters params;
  params.num_inputs = spec.seed.num_inputs();
  params.num_outputs = spec.seed.num_outputs();
  params.columns = spec.seed.num_gates() + config.extra_columns;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set = approximator.config().function_set;
  params.max_mutations = config.max_mutations;
  params.lambda = config.lambda;

  std::size_t evaluations = 0;
  std::size_t accepted = 0;
  std::size_t generations = 0;
  std::size_t feasible = 0;
  std::size_t children_scored = 0;
  const std::size_t lambda = params.lambda;
  const auto strictly_better = [](const axc::cgp::evaluation& a,
                                  const axc::cgp::evaluation& b) {
    return axc::cgp::better(a, b) ||
           (!axc::cgp::better(b, a) && a.error < b.error);
  };
  // One probe run per job of the spec (same targets and budget as the
  // replay below, so the derived evolver self time compares like with
  // like).
  const std::vector<core::sweep_job> jobs = spec.plan.jobs();
  for (std::size_t j = 0; j < jobs.size() && j < max_jobs; ++j) {
    axc::rng gen(mix64(spec.options.rng_seed ^ (0x9806e + j)));
    axc::cgp::genotype parent =
        axc::cgp::genotype::from_netlist(params, spec.seed, gen);
    auto evaluator = core::make_incremental_wmed_evaluator<Spec>(
        approximator.shared_cache(), *config.library, jobs[j].target);
    axc::cgp::evaluation parent_eval;
    timed(trace, "metrics.evaluate_and_bind",
          [&] { parent_eval = evaluator->evaluate_and_bind(parent); });
    ++evaluations;
    std::vector<axc::cgp::genotype> children(lambda, parent);
    std::vector<std::vector<std::uint32_t>> dirty(lambda);
    std::vector<axc::cgp::evaluation> evals(lambda);
    for (std::size_t g = 0; g < config.iterations; ++g) {
      for (std::size_t k = 0; k < lambda; ++k) {
        children[k] = parent;
        dirty[k].clear();
        timed(trace, "cgp.mutate",
              [&] { children[k].mutate(gen, dirty[k]); });
        timed(trace, "metrics.evaluate_child", [&] {
          evals[k] = evaluator->evaluate_child(parent, children[k], dirty[k]);
        });
        ++evaluations;
        ++children_scored;
        if (evals[k].feasible) ++feasible;
      }
      std::size_t best = 0;
      for (std::size_t k = 1; k < lambda; ++k) {
        if (strictly_better(evals[k], evals[best])) best = k;
      }
      ++generations;
      const bool accept =
          axc::cgp::better(evals[best], parent_eval) ||
          (axc::cgp::not_worse(evals[best], parent_eval) &&
           evals[best].error <= parent_eval.error);
      if (accept) {
        ++accepted;
        std::swap(parent, children[best]);
        parent_eval = evals[best];
        timed(trace, "metrics.rebind",
              [&] { evaluator->rebind(parent, parent_eval); });
      }
    }
  }
  n.mutate_ns = mean(trace.durations_ns("cgp.mutate"));
  n.eval_child_ns = mean(trace.durations_ns("metrics.evaluate_child"));
  std::vector<double> binds = trace.durations_ns("metrics.evaluate_and_bind");
  const std::vector<double> rebinds = trace.durations_ns("metrics.rebind");
  binds.insert(binds.end(), rebinds.begin(), rebinds.end());
  n.bind_us = ns_to_us(mean(binds));
  n.accept_ratio = static_cast<double>(accepted) /
                   static_cast<double>(std::max<std::size_t>(1, generations));
  n.feasible_ratio = static_cast<double>(feasible) /
                     static_cast<double>(std::max<std::size_t>(
                         1, children_scored));
  n.evaluations = static_cast<double>(evaluations);

  // Serial replay of the spec's own jobs through the component the workers
  // build.  A job cancelled at once makes it build its cache untimed, as a
  // worker's first job does.
  const core::component_handle handle = spec.make_component();
  if (!jobs.empty()) {
    core::search_hooks cancel;
    cancel.should_stop = [] { return true; };
    (void)handle.run_job(spec.seed, jobs.front().target, 0, cancel);
  }
  std::vector<double> job_s;
  double total_ns = 0.0;
  std::size_t job_evaluations = 0;
  for (const core::sweep_job& job : jobs) {
    if (job_s.size() >= max_jobs) break;
    std::optional<core::evolved_design> design;
    const double ns = timed(trace, "core.search.run_job", [&] {
      design = handle.run_job(spec.seed, job.target, job.run_index);
    });
    job_s.push_back(ns / 1e9);
    total_ns += ns;
    if (design) job_evaluations += design->evaluations;
  }
  n.job_s_p50 = median(job_s);
  n.job_s_max = job_s.empty() ? 0.0 : *std::max_element(job_s.begin(),
                                                         job_s.end());
  n.ns_per_eval =
      total_ns / static_cast<double>(std::max<std::size_t>(1, job_evaluations));
  return n;
}

struct session_numbers {
  double save_ms{0}, resume_ms{0}, jobs_lost{0}, checkpoint_kb{0};
};

/// Crashes one worker on the spec's first shard (the recover workload's
/// fault), then times resuming and re-saving its checkpoint.
session_numbers session_probe(const options& opt, const core::sweep_spec& spec,
                              std::size_t shards, tracer& trace,
                              outcome& out) {
  session_numbers n;
  const std::string dir = opt.run_dir + "/probe-session";
  fresh_dir(dir);
  core::sweep_spec shard = spec;
  shard.plan = core::split_plan(spec.plan, shards).front().plan;
  core::shard_runner_config arm;
  arm.shards = 1;
  arm_first_attempt_crashes(shard, arm);
  const std::string spec_path = dir + "/shard.spec";
  const std::string checkpoint = dir + "/shard.axs";
  if (!shard.write_file(spec_path)) {
    out.fail("session probe: cannot write spec");
    return n;
  }
  auto worker = axc::support::subprocess::spawn(
      {opt.worker_binary(), "--spec", spec_path, "--checkpoint", checkpoint,
       "--autosave-generations",
       std::to_string(arm.worker_autosave_generations)},
      arm.shard_env.front());
  const auto status = worker ? worker->wait() : std::nullopt;
  out.count(status && status->code == 42,
            "session probe: injected worker crash did not fire");

  const core::component_handle component = shard.make_component();
  std::vector<double> resume_ns;
  std::optional<core::search_session> session;
  core::resume_report report;
  for (int i = 0; i < 5; ++i) {
    resume_ns.push_back(timed(trace, "core.session.resume_file", [&] {
      session = core::search_session::resume_file(checkpoint, component, {},
                                                  &report);
    }));
  }
  out.count(session.has_value(), "session probe: checkpoint did not resume");
  if (!session) return n;
  n.resume_ms = ns_to_ms(median(resume_ns));
  n.jobs_lost = static_cast<double>(shard.plan.job_count() -
                                    report.jobs_recovered);
  std::vector<double> save_ns;
  const std::string saved = dir + "/saved.axs";
  bool saved_ok = true;
  for (int i = 0; i < 5; ++i) {
    save_ns.push_back(timed(trace, "core.session.save_file",
                            [&] { saved_ok &= session->save_file(saved); }));
  }
  out.count(saved_ok, "session probe: save_file failed");
  n.save_ms = ns_to_ms(median(save_ns));
  std::error_code ec;
  n.checkpoint_kb =
      static_cast<double>(std::filesystem::file_size(saved, ec)) / 1024.0;
  remove_tree(dir);
  return n;
}

}  // namespace

void run_layer_probes(const options& opt, tracer& trace, layer_inputs& in,
                      outcome& out) {
  const core::sweep_spec& spec = in.probe_spec;

  // cgp + metrics + core.search.
  const std::size_t max_jobs = opt.smoke ? 2 : 16;
  const search_numbers s =
      spec.component == "adder"
          ? search_probe(opt, spec,
                         axc::metrics::adder_spec{spec.options.width}, trace,
                         max_jobs, out)
          : search_probe(opt, spec,
                         axc::metrics::mult_spec{spec.options.width,
                                                 spec.options.is_signed},
                         trace, max_jobs, out);
  out.layer("cgp.mutate_ns", s.mutate_ns, "ns");
  out.layer("cgp.accept_ratio", s.accept_ratio, "ratio");
  out.layer("cgp.evaluations", s.evaluations, "count");
  out.layer("metrics.eval_child_ns", s.eval_child_ns, "ns");
  out.layer("metrics.bind_us", s.bind_us, "us");
  out.layer("metrics.feasible_ratio", s.feasible_ratio, "ratio");
  out.layer("metrics.cache_build_ms", s.cache_build_ms, "ms");
  out.layer("core.search.job_s_p50", s.job_s_p50, "s");
  out.layer("core.search.job_s_max", s.job_s_max, "s");
  out.layer("core.search.ns_per_eval", s.ns_per_eval, "ns");
  out.layer("core.search.evolver_self_ns",
          s.ns_per_eval - s.mutate_ns - s.eval_child_ns, "ns");

  // core.shard_runner: a clean and a crash-armed sweep of the spec.
  const auto probe_sweep = [&](bool crash) {
    core::shard_runner_config config;
    config.shards = in.shards;
    config.worker_binary = opt.worker_binary();
    config.work_dir = opt.run_dir + "/probe-sweep";
    config.store_dir = opt.run_dir + "/probe-sweep-store";
    remove_tree(config.work_dir);
    remove_tree(config.store_dir);
    if (crash) arm_first_attempt_crashes(spec, config);
    sweep_timeline timeline;
    const core::sweep_result result =
        timed_run_sweep(spec, config, trace, timeline);
    out.count(result.complete, "probe sweep incomplete");
    remove_tree(config.work_dir);
    remove_tree(config.store_dir);
    return timeline;
  };
  if (in.clean.empty()) in.clean.push_back(probe_sweep(false));
  if (in.crashed.empty()) in.crashed.push_back(probe_sweep(true));
  const shard_numbers clean = summarize(in.clean);
  const shard_numbers crashed = summarize(in.crashed);
  out.layer("core.shard_runner.spawn_ms", clean.spawn_ms, "ms");
  out.layer("core.shard_runner.shard_s_max", clean.shard_s_max, "s");
  out.layer("core.shard_runner.imbalance", clean.imbalance, "ratio");
  out.layer("core.shard_runner.cpu_util", clean.cpu_util, "ratio");
  out.layer("core.shard_runner.merge_ms", clean.merge_ms, "ms");
  out.layer("core.shard_runner.attempts", crashed.attempts, "count");
  out.layer("core.shard_runner.retry_gap_ms", crashed.retry_gap_ms, "ms");

  // core.session.
  const session_numbers sess =
      session_probe(opt, spec, in.shards, trace, out);
  out.layer("core.session.save_ms", sess.save_ms, "ms");
  out.layer("core.session.resume_ms", sess.resume_ms, "ms");
  out.layer("core.session.jobs_lost", sess.jobs_lost, "count");
  out.layer("core.session.checkpoint_kb", sess.checkpoint_kb, "KiB");

  // core.result_store: puts into a fresh store; gets from the workload's
  // populated store (or a small one built here).
  const std::string probe_root = opt.run_dir + "/probe-serve";
  fresh_dir(probe_root);
  axc::rng gen = seeded_rng(opt.seed, 0x5707e);
  std::vector<double> put_ns;
  {
    auto store = core::result_store::open(probe_root + "/puts");
    out.count(store.has_value(), "probe store did not open");
    for (int i = 0; store && i < (opt.smoke ? 3 : 20); ++i) {
      const std::string payload = synthetic_front(gen);
      const std::string key = core::result_store::format_key(gen());
      bool ok = false;
      put_ns.push_back(timed(trace, "core.result_store.put", [&] {
        ok = store->put("front", key, payload).has_value();
      }));
      out.count(ok, "probe store put failed");
    }
  }
  if (in.store_dir.empty()) {
    in.store_dir = probe_root + "/store";
    auto store = core::result_store::open(in.store_dir);
    for (std::size_t i = 0; store && i < 32; ++i) {
      core::sweep_spec stored = small_spec(
          gen, kHitShapes[i % std::size(kHitShapes)], 400, 0x51000 + i);
      (void)store->put("front",
                       core::result_store::format_key(stored.store_key()),
                       synthetic_front(gen));
      in.stored_specs.push_back(std::move(stored));
    }
  }
  std::vector<std::string> keys;
  std::vector<std::string> requests;
  for (const core::sweep_spec& stored : in.stored_specs) {
    keys.push_back(core::result_store::format_key(stored.store_key()));
    requests.push_back(encode("get", stored));
  }
  const std::size_t rounds = opt.smoke ? 20 : 400;
  std::vector<double> get_ns;
  {
    auto store = core::result_store::open(in.store_dir);
    out.count(store.has_value(), "populated store did not open");
    for (std::size_t i = 0; store && i < rounds; ++i) {
      bool ok = false;
      get_ns.push_back(timed(trace, "core.result_store.get", [&] {
        ok = store->get("front", keys[i % keys.size()]).has_value();
      }));
      out.count(ok, "probe store get missed");
    }
  }
  out.layer("core.result_store.get_us", ns_to_us(median(get_ns)), "us");
  out.layer("core.result_store.put_ms", ns_to_ms(median(put_ns)), "ms");

  // core.result_server in process, on the warm populated store.
  std::vector<double> handle_ns, parse_ns, key_ns, encode_ns;
  {
    core::server_config config;
    config.store_dir = in.store_dir;
    config.work_dir = probe_root + "/inproc-work";
    core::result_server server(config);
    out.count(server.start(), "in-process server did not start");
    for (std::size_t i = 0; i < rounds; ++i) {
      const std::size_t k = i % requests.size();
      std::optional<core::serve_request> parsed;
      parse_ns.push_back(timed(trace, "core.result_server.parse_request",
                               [&] { parsed = core::parse_request(requests[k]); }));
      std::uint64_t key = 0;
      if (parsed) {
        key_ns.push_back(timed(trace, "core.result_server.store_key",
                               [&] { key = parsed->spec.store_key(); }));
      }
      std::string reply;
      handle_ns.push_back(timed(trace, "core.result_server.handle_request",
                                [&] { reply = server.handle_request(requests[k]); }));
      const auto parsed_reply = core::parse_reply(reply);
      out.count(parsed && key != 0 && parsed_reply &&
                    parsed_reply->status == "hit",
                "in-process hit failed");
      encode_ns.push_back(timed(trace, "support.net.encode", [&] {
        const std::string text = encode("get", in.stored_specs[k]);
        const std::string frame = net::encode_frame(text);
        if (frame.size() < net::kFrameHeaderBytes) out.fail("empty frame");
      }));
    }
  }
  out.layer("core.result_server.handle_us", ns_to_us(median(handle_ns)), "us");
  out.layer("core.result_server.parse_us", ns_to_us(median(parse_ns)), "us");
  out.layer("core.result_server.store_key_us", ns_to_us(median(key_ns)), "us");

  // support.net and the miss path of a real daemon over the same store.
  std::vector<double> rtt_ns, enqueue_ns;
  double reply_bytes_total = 0.0;
  std::size_t coalesced = 0;
  std::size_t rejected = 0;
  {
    double ready_s = 0.0;
    auto daemon = start_serve_daemon(opt, in.store_dir, probe_root + "/d",
                                     true, in.shards, requests.front(),
                                     ready_s);
    out.count(daemon.has_value(), "probe daemon did not start");
    auto stream = daemon ? connect_daemon(probe_root + "/d") : std::nullopt;
    auto twin = daemon ? connect_daemon(probe_root + "/d") : std::nullopt;
    for (std::size_t i = 0; stream && i < rounds; ++i) {
      std::optional<core::serve_reply> reply;
      std::size_t bytes = 0;
      rtt_ns.push_back(timed(trace, "support.net.round_trip", [&] {
        reply = ask(*stream, requests[i % requests.size()], &bytes);
      }));
      reply_bytes_total += static_cast<double>(bytes);
      out.count(reply && reply->status == "hit", "probe hit failed");
    }
    for (std::size_t i = 0; stream && twin && i < 3; ++i) {
      axc::rng miss_gen = seeded_rng(opt.seed, 0xe9c0 + i);
      const core::sweep_spec miss =
          small_spec(miss_gen, kMissShapes[0], 100, mix64(opt.seed ^ (0xe9c0 + i)));
      std::optional<core::serve_reply> first;
      enqueue_ns.push_back(timed(trace, "core.result_server.enqueue", [&] {
        first = ask(*stream, encode("get", miss));
      }));
      const auto second = ask(*twin, encode("get", miss));
      if (second && (second->status == "queued" ||
                     second->status == "running")) {
        ++coalesced;
      }
      if (first && first->status == "miss-rejected") ++rejected;
      if (second && second->status == "miss-rejected") ++rejected;
      const auto done = ask(*stream, encode("wait", miss, {}, 60000));
      const auto done_twin = ask(*twin, encode("wait", miss, {}, 60000));
      out.count(first && first->status == "miss-enqueued" && done &&
                    done->status == "hit" && done_twin &&
                    done_twin->status == "hit" &&
                    done->payload == done_twin->payload,
                "probe miss did not complete");
    }
    stream.reset();
    twin.reset();
    if (daemon) daemon->stop(std::chrono::seconds(30));
  }
  out.layer("core.result_server.enqueue_ms", ns_to_ms(median(enqueue_ns)),
          "ms");
  out.layer("core.result_server.coalesced", static_cast<double>(coalesced),
          "count");
  out.layer("core.result_server.rejected", static_cast<double>(rejected),
          "count");
  out.layer("support.net.encode_us", ns_to_us(median(encode_ns)), "us");
  out.layer("support.net.wire_us",
          ns_to_us(median(rtt_ns) - median(handle_ns)), "us");
  out.layer("support.net.reply_kb",
          reply_bytes_total /
              static_cast<double>(std::max<std::size_t>(1, rtt_ns.size())) /
              1024.0,
          "KiB");
  remove_tree(probe_root);
}

}  // namespace perfbench
