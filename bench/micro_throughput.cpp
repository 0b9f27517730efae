// Micro-benchmarks (google-benchmark): throughput of the primitives the
// reproduction's wall-clock behaviour depends on — bit-parallel simulation,
// exhaustive evaluation, WMED scoring, CGP mutation/decoding, LUT-based
// quantized inference and the Gaussian filter.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>

#include "cgp/cone_program.h"
#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "circuit/activity.h"
#include "circuit/simulator.h"
#include "core/result_server.h"
#include "core/result_store.h"
#include "core/search_session.h"
#include "core/wmed_approximator.h"
#include "data/digits.h"
#include "dist/pmf.h"
#include "imgproc/gaussian_filter.h"
#include "metrics/adder_metrics.h"
#include "metrics/compiled_table.h"
#include "metrics/wmed_evaluator.h"
#include "mult/adders.h"
#include "mult/approx_adders.h"
#include "mult/lut.h"
#include "mult/multipliers.h"
#include "nn/models.h"
#include "nn/quantize.h"
#include "nn/trainer.h"
#include "support/rng.h"
#include "support/simd.h"
#include "tech/analysis.h"
#include "tech/cell_library.h"

namespace {

using namespace axc;

/// Worker/connection counts for the _mt benches: always 2 (the stable
/// point the regression gate watches) plus the machine's concurrency or
/// the AXC_BENCH_THREADS override (bench/run_micro.sh --threads N).
std::size_t bench_threads() {
  if (const char* env = std::getenv("AXC_BENCH_THREADS")) {
    const long v = std::atol(env);
    if (v > 1) return static_cast<std::size_t>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 2 ? hc : 2;
}

void mt_args(benchmark::internal::Benchmark* b) {
  b->Arg(2);
  const auto t = static_cast<int>(bench_threads());
  if (t != 2) b->Arg(t);
}

void bm_simulate_block(benchmark::State& state) {
  const circuit::netlist nl = mult::unsigned_multiplier(8);
  std::vector<std::uint64_t> in(16), out(16), scratch(nl.num_signals());
  for (std::size_t i = 0; i < 16; ++i) {
    in[i] = circuit::exhaustive_input_word(i, 3);
  }
  for (auto _ : state) {
    circuit::simulate_block(nl, in, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(bm_simulate_block);

void bm_sim_program_8lanes(benchmark::State& state) {
  // Same circuit as bm_simulate_block, but through the compiled wide-lane
  // path: one run() covers 8 blocks (512 assignments).
  const circuit::netlist nl = mult::unsigned_multiplier(8);
  circuit::sim_program<8> program(nl);
  std::vector<std::uint64_t> in(16 * 8), out(16 * 8);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t l = 0; l < 8; ++l) {
      in[i * 8 + l] = circuit::exhaustive_input_word(i, l);
    }
  }
  for (auto _ : state) {
    program.run(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          8);
}
BENCHMARK(bm_sim_program_8lanes);

void bm_sim_program_rebuild(benchmark::State& state) {
  // Per-candidate compile cost (cone marking + remap), amortized over the
  // 2^16/64 blocks of one WMED sweep.
  const circuit::netlist nl = mult::unsigned_multiplier(8);
  circuit::sim_program<8> program;
  for (auto _ : state) {
    program.rebuild(nl);
    benchmark::DoNotOptimize(program.active_gates());
  }
}
BENCHMARK(bm_sim_program_rebuild);

void bm_evaluate_exhaustive_8bit(benchmark::State& state) {
  const circuit::netlist nl = mult::unsigned_multiplier(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::evaluate_exhaustive(nl));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(bm_evaluate_exhaustive_8bit);

void bm_wmed_evaluate(benchmark::State& state) {
  // Batched sweep under the best runtime-dispatched backend (AXC_SIMD
  // overrides; see metrics/scan_kernels.h).
  const metrics::mult_spec spec{8, false};
  metrics::wmed_evaluator evaluator(spec, dist::pmf::half_normal(256, 64.0));
  const circuit::netlist nl = mult::truncated_multiplier(8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(nl));
  }
}
BENCHMARK(bm_wmed_evaluate);

void bm_wmed_evaluate_scalar(benchmark::State& state) {
  // Same sweep forced onto the scalar batched kernels — the portable
  // floor, which must stay no slower than the pre-batch (pr4) sweep.
  const metrics::mult_spec spec{8, false};
  metrics::wmed_evaluator evaluator(spec, dist::pmf::half_normal(256, 64.0),
                                    simd::level::scalar);
  const circuit::netlist nl = mult::truncated_multiplier(8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(nl));
  }
}
BENCHMARK(bm_wmed_evaluate_scalar);

void bm_wmed_evaluate_reference(benchmark::State& state) {
  // The pre-refactor sweep (simulate_block + per-assignment gather) on the
  // same candidate — the baseline bm_wmed_evaluate is measured against.
  const metrics::mult_spec spec{8, false};
  metrics::wmed_evaluator evaluator(spec, dist::pmf::half_normal(256, 64.0));
  const circuit::netlist nl = mult::truncated_multiplier(8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_reference(nl));
  }
}
BENCHMARK(bm_wmed_evaluate_reference);

void bm_wmed_evaluate_with_abort(benchmark::State& state) {
  const metrics::mult_spec spec{8, false};
  metrics::wmed_evaluator evaluator(spec, dist::pmf::half_normal(256, 64.0));
  const circuit::netlist nl = mult::truncated_multiplier(8, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(nl, 1e-5));
  }
}
BENCHMARK(bm_wmed_evaluate_with_abort);

void bm_wmed_evaluate_reference_with_abort(benchmark::State& state) {
  const metrics::mult_spec spec{8, false};
  metrics::wmed_evaluator evaluator(spec, dist::pmf::half_normal(256, 64.0));
  const circuit::netlist nl = mult::truncated_multiplier(8, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_reference(nl, 1e-5));
  }
}
BENCHMARK(bm_wmed_evaluate_reference_with_abort);

/// A realistic CGP search candidate: the exact multiplier seeded into a
/// 460-column genotype (mostly inactive padding) and mutated — what the
/// evolver actually scores, and where cone restriction pays.
cgp::genotype search_candidate() {
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  cgp::parameters params;
  params.num_inputs = 16;
  params.num_outputs = 16;
  params.columns = seed.num_gates() + 64;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  rng gen(17);
  cgp::genotype g = cgp::genotype::from_netlist(params, seed, gen);
  for (int m = 0; m < 10; ++m) g.mutate(gen);
  return g;
}

void bm_wmed_evaluate_cgp_candidate(benchmark::State& state) {
  const metrics::mult_spec spec{8, false};
  metrics::wmed_evaluator evaluator(spec, dist::pmf::half_normal(256, 64.0));
  const cgp::genotype g = search_candidate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(g.decode_cone()));
  }
}
BENCHMARK(bm_wmed_evaluate_cgp_candidate);

void bm_wmed_evaluate_cgp_candidate_reference(benchmark::State& state) {
  // Pre-refactor inner loop: full decode (padding included) + naive sweep.
  const metrics::mult_spec spec{8, false};
  metrics::wmed_evaluator evaluator(spec, dist::pmf::half_normal(256, 64.0));
  const cgp::genotype g = search_candidate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_reference(g.decode()));
  }
}
BENCHMARK(bm_wmed_evaluate_cgp_candidate_reference);

void bm_cgp_mutate_decode(benchmark::State& state) {
  cgp::parameters params;
  params.num_inputs = 16;
  params.num_outputs = 16;
  params.columns = 400;
  params.rows = 1;
  params.levels_back = 400;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  rng gen(1);
  cgp::genotype g = cgp::genotype::random(params, gen);
  for (auto _ : state) {
    g.mutate(gen);
    benchmark::DoNotOptimize(g.decode());
  }
}
BENCHMARK(bm_cgp_mutate_decode);

void bm_cgp_mutate_decode_cone(benchmark::State& state) {
  cgp::parameters params;
  params.num_inputs = 16;
  params.num_outputs = 16;
  params.columns = 400;
  params.rows = 1;
  params.levels_back = 400;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  rng gen(1);
  cgp::genotype g = cgp::genotype::random(params, gen);
  for (auto _ : state) {
    g.mutate(gen);
    benchmark::DoNotOptimize(g.decode_cone());
  }
}
BENCHMARK(bm_cgp_mutate_decode_cone);

/// Shared body of the per-offspring generation benches: one (1+lambda)
/// generation through evaluate_child() — the per-candidate pipeline
/// evolver::run_incremental drives — with manual timing divided by lambda,
/// so the reported number stays *per offspring* and comparable across the
/// whole trajectory.
void run_generation_bench(benchmark::State& state,
                          cgp::incremental_evaluator& evaluator,
                          const cgp::genotype& parent, std::uint64_t seed) {
  evaluator.evaluate_and_bind(parent);
  rng gen(seed);
  constexpr std::size_t kLambda = 4;
  std::vector<cgp::genotype> children(kLambda, parent);
  std::vector<std::vector<std::uint32_t>> dirty(kLambda);
  std::vector<cgp::evaluation> evals(kLambda);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kLambda; ++i) {
      // O(dirty) resync, as run_incremental does: the slot still differs
      // from the (never-replaced) parent by its previous mutation only.
      children[i].copy_genes_from(parent, dirty[i]);
      dirty[i].clear();
      children[i].mutate(gen, dirty[i]);
    }
    for (std::size_t i = 0; i < kLambda; ++i) {
      evals[i] = evaluator.evaluate_child(parent, children[i], dirty[i]);
    }
    benchmark::DoNotOptimize(evals.data());
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count() /
                           static_cast<double>(kLambda));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_evolver_generation(benchmark::State& state) {
  // One offspring of one (1+lambda) WMED search generation, through the
  // genotype-native incremental pipeline: record dirty genes, patch the
  // parent's compiled schedule O(dirty), sweep with early abort, restore.
  // No netlist, no recompile, no allocation.
  const metrics::mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 64.0);
  const auto& lib = tech::cell_library::nangate45_like();
  const auto evaluator =
      core::make_incremental_wmed_evaluator(spec, d, lib, 1e-4);
  run_generation_bench(state, *evaluator, search_candidate(), 3);
}
BENCHMARK(bm_evolver_generation)->UseManualTime();

void bm_evolver_generation_scalar(benchmark::State& state) {
  // The same offspring loop with the whole sweep (step executor + scan
  // kernel) forced onto the scalar backends.
  const metrics::mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 64.0);
  const auto& lib = tech::cell_library::nangate45_like();
  const auto evaluator = core::make_incremental_wmed_evaluator(
      spec, d, lib, 1e-4, simd::level::scalar);
  run_generation_bench(state, *evaluator, search_candidate(), 3);
}
BENCHMARK(bm_evolver_generation_scalar)->UseManualTime();

void bm_evolver_generation_mt(benchmark::State& state) {
  // A short incremental search driven end to end through
  // evolver::run_incremental with N worker threads (one evaluator per
  // lambda slot) — per-offspring wall time, the multi-core scaling
  // trajectory of the search inner loop.  On a single-core box this records
  // the synchronization overhead floor, not a speedup.
  const metrics::mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 64.0);
  const auto& lib = tech::cell_library::nangate45_like();
  const auto cache = metrics::wmed_evaluator::make_shared_state(spec, d);
  const cgp::genotype start = search_candidate();
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  cgp::evolver::options opts;
  opts.iterations = 64;
  const cgp::evolver::incremental_factory factory =
      [&cache, &lib]() -> std::unique_ptr<cgp::incremental_evaluator> {
    return core::make_incremental_wmed_evaluator<metrics::mult_spec>(
        cache, lib, 1e-4);
  };
  for (auto _ : state) {
    rng gen(3);
    const auto t0 = std::chrono::steady_clock::now();
    const cgp::evolver::run_result run =
        cgp::evolver::run_incremental(start, factory, opts, threads, gen);
    benchmark::DoNotOptimize(run.evaluations);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count() /
                           static_cast<double>(run.evaluations));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_evolver_generation_mt)->Apply(mt_args)->UseManualTime();

void bm_evolver_generation_roundtrip(benchmark::State& state) {
  // The pre-incremental inner loop (PR 1's bm_evolver_generation): mutate,
  // decode_cone() to a fresh netlist, recompile the sim program, score with
  // early abort — the baseline bm_evolver_generation is measured against.
  const metrics::mult_spec spec{8, false};
  metrics::wmed_evaluator evaluator(spec, dist::pmf::half_normal(256, 64.0));
  cgp::genotype g = search_candidate();
  rng gen(3);
  const double target = 1e-4;
  for (auto _ : state) {
    cgp::genotype child = g;
    child.mutate(gen);
    benchmark::DoNotOptimize(evaluator.evaluate(child.decode_cone(), target));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_evolver_generation_roundtrip);

void bm_cone_bind(benchmark::State& state) {
  // Full genotype-native compile (mark cone + emit schedule) — the cost an
  // accepted parent or a topology-shifting mutant pays, replacing
  // decode_cone() + sim_program::rebuild() + netlist (de)allocation.
  const cgp::genotype g = search_candidate();
  cgp::cone_program cone;
  for (auto _ : state) {
    cone.bind(g);
    benchmark::DoNotOptimize(cone.active_nodes());
  }
}
BENCHMARK(bm_cone_bind);

/// An adder search candidate: the exact ripple adder seeded into a padded
/// genotype and drifted, mirroring search_candidate() for the second
/// component class.
cgp::genotype adder_search_candidate() {
  const circuit::netlist seed = mult::ripple_adder(8);
  cgp::parameters params;
  params.num_inputs = 16;
  params.num_outputs = 9;
  params.columns = seed.num_gates() + 32;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  rng gen(23);
  cgp::genotype g = cgp::genotype::from_netlist(params, seed, gen);
  for (int m = 0; m < 10; ++m) g.mutate(gen);
  return g;
}

void bm_adder_wmed_evaluate(benchmark::State& state) {
  // Full adder WMED sweep on the bit-plane fast path (no tables).
  const metrics::adder_spec spec{8};
  metrics::adder_wmed_evaluator evaluator(spec,
                                          dist::pmf::half_normal(256, 48.0));
  const circuit::netlist nl = mult::lower_or_adder(8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(nl));
  }
}
BENCHMARK(bm_adder_wmed_evaluate);

void bm_adder_wmed_table(benchmark::State& state) {
  // The retired search-loop path: allocate + fill a 2^16 sum table per
  // candidate, then reduce it — kept as the parity/benchmark baseline.
  const metrics::adder_spec spec{8};
  const dist::pmf d = dist::pmf::half_normal(256, 48.0);
  const auto exact = metrics::exact_sum_table(spec);
  const circuit::netlist nl = mult::lower_or_adder(8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::adder_wmed(exact, metrics::sum_table(nl, spec), spec, d));
  }
}
BENCHMARK(bm_adder_wmed_table);

void bm_evolver_generation_adder(benchmark::State& state) {
  // One adder-search offspring through the incremental pipeline — the
  // second component class on the same fast path as the multipliers.
  const metrics::adder_spec spec{8};
  const dist::pmf d = dist::pmf::half_normal(256, 48.0);
  const auto& lib = tech::cell_library::nangate45_like();
  const auto evaluator =
      core::make_incremental_wmed_evaluator(spec, d, lib, 1e-3);
  run_generation_bench(state, *evaluator, adder_search_candidate(), 7);
}
BENCHMARK(bm_evolver_generation_adder)->UseManualTime();

void bm_evolver_generation_adder_table(benchmark::State& state) {
  // The pre-port adder inner loop: decode + exhaustive sum table +
  // table-based WMED per mutant (what bench/adder_study.cpp used to run).
  const metrics::adder_spec spec{8};
  const dist::pmf d = dist::pmf::half_normal(256, 48.0);
  const auto exact = metrics::exact_sum_table(spec);
  cgp::genotype g = adder_search_candidate();
  rng gen(7);
  for (auto _ : state) {
    cgp::genotype child = g;
    child.mutate(gen);
    const circuit::netlist nl = child.decode_cone();
    benchmark::DoNotOptimize(
        metrics::adder_wmed(exact, metrics::sum_table(nl, spec), spec, d));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_evolver_generation_adder_table);

/// A small 8-bit session sweep (4 jobs x 24 generations) — the
/// orchestration overhead benchmark.  The searches themselves are tiny, so
/// what dominates is exactly what the session layer is supposed to
/// amortize: building the evaluator's 2^16 exact table + bit planes.
core::approximation_config sweep_session_config() {
  core::approximation_config config;
  config.spec = metrics::mult_spec{8, false};
  config.distribution = dist::pmf::half_normal(256, 64.0);
  config.iterations = 24;
  config.runs_per_target = 2;
  config.rng_seed = 17;
  return config;
}

void bm_sweep_session(benchmark::State& state) {
  // Shared-cache path: the handle builds the exact planes once per session
  // and every job attaches to them.
  const core::approximation_config config = sweep_session_config();
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  core::sweep_plan plan;
  plan.targets = {1e-4, 1e-2};
  plan.runs_per_target = config.runs_per_target;
  for (auto _ : state) {
    core::search_session session(core::make_component(config), seed, plan);
    session.run();
    benchmark::DoNotOptimize(session.front().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(bm_sweep_session);

void bm_sweep_session_mt(benchmark::State& state) {
  // The session sweep with each job's lambda evaluation spread over N
  // worker threads (approximation_config::threads) — the orchestration
  // layer's multi-core trajectory, complementing the per-offspring view of
  // bm_evolver_generation_mt.
  core::approximation_config config = sweep_session_config();
  config.threads = static_cast<std::size_t>(state.range(0));
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  core::sweep_plan plan;
  plan.targets = {1e-4, 1e-2};
  plan.runs_per_target = config.runs_per_target;
  for (auto _ : state) {
    core::search_session session(core::make_component(config), seed, plan);
    session.run();
    benchmark::DoNotOptimize(session.front().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(bm_sweep_session_mt)->Apply(mt_args);

void bm_sweep_session_cold_cache(benchmark::State& state) {
  // The pre-session behaviour: every job rebuilds the evaluator tables
  // from scratch (a fresh handle per job) — the baseline bm_sweep_session
  // is measured against.
  const core::approximation_config config = sweep_session_config();
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  core::sweep_plan plan;
  plan.targets = {1e-4, 1e-2};
  plan.runs_per_target = config.runs_per_target;
  for (auto _ : state) {
    std::size_t designs = 0;
    for (const core::sweep_job& job : plan.jobs()) {
      const auto design = core::make_component(config).run_job(
          seed, job.target, job.run_index);
      designs += design.has_value();
    }
    benchmark::DoNotOptimize(designs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(bm_sweep_session_cold_cache);

/// The finished 4-job session the checkpoint benches serialize/parse —
/// built once (the searches are not what is being measured).
const core::search_session& checkpoint_bench_session() {
  static const core::search_session session = [] {
    const core::approximation_config config = sweep_session_config();
    core::sweep_plan plan;
    plan.targets = {1e-4, 1e-2};
    plan.runs_per_target = config.runs_per_target;
    core::search_session s(core::make_component(config),
                           mult::unsigned_multiplier(8), plan);
    s.run();
    return s;
  }();
  return session;
}

void bm_checkpoint_save(benchmark::State& state) {
  // v2 serialization cost: netlist formatting + a CRC32 pass over every
  // section.  Pure in-memory (the durable-write syscalls are measured by
  // bm_checkpoint_save_durable).
  const core::search_session& session = checkpoint_bench_session();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    session.save(os);
    bytes = os.str().size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(bm_checkpoint_save);

void bm_checkpoint_save_durable(benchmark::State& state) {
  // Full atomic save_file: temp write + flush + fsync + rename.  The
  // autosave cadence a session can afford is bounded by this number.
  const core::search_session& session = checkpoint_bench_session();
  const std::string path =
      (std::filesystem::temp_directory_path() / "axc-bench-ckpt.axc")
          .string();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.save_file(path));
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(bm_checkpoint_save_durable);

void bm_checkpoint_resume(benchmark::State& state) {
  // v2 parse + salvage scan + CRC verification + session rebuild.
  const core::approximation_config config = sweep_session_config();
  std::ostringstream os;
  checkpoint_bench_session().save(os);
  const std::string text = os.str();
  for (auto _ : state) {
    std::istringstream is(text);
    auto resumed =
        core::search_session::resume(is, core::make_component(config));
    benchmark::DoNotOptimize(resumed->completed_jobs());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(bm_checkpoint_resume);

void bm_store_put(benchmark::State& state) {
  // Result-store publish cost for a checkpoint-sized payload: content
  // hash (FNV-1a) + CRC32 framing + durable object write (tmp + fsync +
  // rename + dir fsync) + index append with its own fsync.  Dominated by
  // the syscalls; this is what bounds the coordinator's publish phase.
  std::ostringstream os;
  checkpoint_bench_session().save(os);
  const std::string payload = os.str();
  const std::string root =
      (std::filesystem::temp_directory_path() / "axc-bench-store-put")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  auto store = core::result_store::open(root);
  std::uint64_t key = 0;
  for (auto _ : state) {
    // A fresh key each iteration: the idempotent same-content fast path
    // would otherwise skip the object write being measured.
    benchmark::DoNotOptimize(store->put(
        "session", core::result_store::format_key(++key), payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  std::filesystem::remove_all(root, ec);
}
BENCHMARK(bm_store_put);

void bm_store_get(benchmark::State& state) {
  // Lookup + read + full CRC verification of header and payload — the
  // serving path a cached front answer pays before trusting stored bytes.
  std::ostringstream os;
  checkpoint_bench_session().save(os);
  const std::string payload = os.str();
  const std::string root =
      (std::filesystem::temp_directory_path() / "axc-bench-store-get")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  auto store = core::result_store::open(root);
  const std::string key = core::result_store::format_key(42);
  benchmark::DoNotOptimize(store->put("session", key, payload));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->get("session", key)->size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  std::filesystem::remove_all(root, ec);
}
BENCHMARK(bm_store_get);

/// The spec whose front the serving benches request — small but real, so
/// store_key() and the request text have production shape.
core::sweep_spec server_bench_spec() {
  core::sweep_spec spec;
  spec.component = "mult";
  spec.options.width = 8;
  spec.options.distribution = dist::pmf::half_normal(256, 64.0);
  spec.options.iterations = 100;
  spec.options.rng_seed = 5;
  spec.plan.targets = {1e-4, 1e-2};
  spec.plan.runs_per_target = 2;
  spec.options.runs_per_target = 2;
  spec.seed = mult::unsigned_multiplier(8);
  return spec;
}

void bm_server_hit(benchmark::State& state) {
  // One full served hit: connect to the daemon's socket, send the framed
  // request, receive the framed front — the latency an axc_client `get`
  // pays against a warm store.  The server runs in-process on a real
  // Unix-domain socket with a 32-point front pre-published under the
  // spec's key.
  const std::string root =
      (std::filesystem::temp_directory_path() / "axc-bench-server").string();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  const core::sweep_spec spec = server_bench_spec();
  std::vector<core::pareto_point> points;
  for (std::size_t i = 0; i < 32; ++i) {
    points.push_back({1e-4 * static_cast<double>(i + 1),
                      900.0 - 25.0 * static_cast<double>(i), i});
  }
  {
    auto store = core::result_store::open(root + "/store");
    benchmark::DoNotOptimize(
        store->put("front", core::result_store::format_key(spec.store_key()),
                   core::serialize_front(points)));
  }
  core::server_config config;
  config.store_dir = root + "/store";
  config.work_dir = root + "/work";
  config.socket_path = root + "/sock";
  core::result_server server(config);
  if (!server.start()) {
    state.SkipWithError("cannot start result_server");
    return;
  }
  std::thread accept_thread([&server] { server.serve(); });
  core::serve_request request;
  request.spec = spec;
  const std::string request_text = core::encode_request(request);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto stream = support::net::unix_stream::connect(config.socket_path);
    if (!stream || !stream->send(request_text)) {
      state.SkipWithError("request failed");
      break;
    }
    const auto reply = stream->receive(1u << 20);
    if (!reply) {
      state.SkipWithError("no reply");
      break;
    }
    bytes = reply->size();
    benchmark::DoNotOptimize(bytes);
  }
  server.request_stop();
  accept_thread.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(root, ec);
}
BENCHMARK(bm_server_hit);

void bm_server_hit_mc(benchmark::State& state) {
  // bm_server_hit under concurrency: N client threads issue one framed
  // request each per iteration against the same daemon (its accept loop
  // serves connections sequentially, so this measures queueing + serve
  // latency under contention, per request).  Measurement only — not part
  // of the regression gate.
  const std::string root =
      (std::filesystem::temp_directory_path() / "axc-bench-server-mc")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  const core::sweep_spec spec = server_bench_spec();
  std::vector<core::pareto_point> points;
  for (std::size_t i = 0; i < 32; ++i) {
    points.push_back({1e-4 * static_cast<double>(i + 1),
                      900.0 - 25.0 * static_cast<double>(i), i});
  }
  {
    auto store = core::result_store::open(root + "/store");
    benchmark::DoNotOptimize(
        store->put("front", core::result_store::format_key(spec.store_key()),
                   core::serialize_front(points)));
  }
  core::server_config config;
  config.store_dir = root + "/store";
  config.work_dir = root + "/work";
  config.socket_path = root + "/sock";
  core::result_server server(config);
  if (!server.start()) {
    state.SkipWithError("cannot start result_server");
    return;
  }
  std::thread accept_thread([&server] { server.serve(); });
  core::serve_request request;
  request.spec = spec;
  const std::string request_text = core::encode_request(request);
  const std::size_t conns = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::atomic<std::size_t> ok{0};
    std::vector<std::thread> clients;
    clients.reserve(conns);
    for (std::size_t c = 0; c < conns; ++c) {
      clients.emplace_back([&config, &request_text, &ok] {
        auto stream = support::net::unix_stream::connect(config.socket_path);
        if (!stream || !stream->send(request_text)) return;
        const auto reply = stream->receive(1u << 20);
        if (reply) ok.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : clients) t.join();
    if (ok.load() != conns) {
      state.SkipWithError("request failed");
      break;
    }
  }
  server.request_stop();
  accept_thread.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(conns));
  std::filesystem::remove_all(root, ec);
}
BENCHMARK(bm_server_hit_mc)->Apply(mt_args);

void bm_server_encode(benchmark::State& state) {
  // Pure protocol cost: request text serialization + CRC frame encode —
  // the CPU floor under bm_server_hit once the syscalls are taken out.
  core::serve_request request;
  request.spec = server_bench_spec();
  request.budget = 1e-3;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string frame =
        support::net::encode_frame(core::encode_request(request));
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(bm_server_encode);

void bm_compiled_table_fill(benchmark::State& state) {
  // Exhaustive characterization through the wide-lane batch path (what the
  // compiled_table constructor runs when the deployment pipeline compiles a
  // front member): cone-restricted sim_program<8>, 512 assignments/pass.
  const circuit::netlist nl = mult::unsigned_multiplier(8);
  const metrics::mult_spec spec{8, false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::result_table_wide(nl, spec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(bm_compiled_table_fill);

void bm_compiled_table_fill_scalar(benchmark::State& state) {
  // The pre-PR-4 product_lut path: per-entry scalar simulation
  // (simulate_block, 64 assignments/pass) — the baseline
  // bm_compiled_table_fill is measured against.
  const circuit::netlist nl = mult::unsigned_multiplier(8);
  const metrics::mult_spec spec{8, false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::result_table(nl, spec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(bm_compiled_table_fill_scalar);

void bm_lut_multiply(benchmark::State& state) {
  const mult::product_lut lut =
      mult::product_lut::exact(metrics::mult_spec{8, true});
  rng gen(2);
  std::int64_t acc = 0;
  for (auto _ : state) {
    acc += lut.multiply(static_cast<std::int32_t>(gen.below(256)) - 128,
                        static_cast<std::int32_t>(gen.below(256)) - 128);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(bm_lut_multiply);

void bm_quantized_mlp_inference(benchmark::State& state) {
  const auto ds = data::make_mnist_like(64, 5);
  const auto x = data::to_tensors(ds);
  nn::network mlp = nn::make_mlp(3, 28 * 28, 64);
  nn::quantized_network qnet(mlp, std::span<const nn::tensor>(x).subspan(0, 8));
  const auto lut = mult::product_lut::exact(metrics::mult_spec{8, true});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qnet.predict_class(x[i++ % x.size()], lut));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_quantized_mlp_inference);

void bm_gaussian_filter_approx(benchmark::State& state) {
  const imgproc::image img = imgproc::make_test_scene(64, 64, 1);
  const mult::product_lut lut(mult::truncated_multiplier(8, 4),
                              metrics::mult_spec{8, false});
  for (auto _ : state) {
    benchmark::DoNotOptimize(imgproc::gaussian_filter_approx(img, lut));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64 * 64);
}
BENCHMARK(bm_gaussian_filter_approx);

void bm_activity_profile(benchmark::State& state) {
  const circuit::netlist nl = mult::signed_multiplier(8);
  rng gen(3);
  std::vector<std::uint64_t> stream(2048);
  for (auto& v : stream) v = gen.below(1u << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::profile_activity(nl, stream));
  }
}
BENCHMARK(bm_activity_profile);

}  // namespace

BENCHMARK_MAIN();
