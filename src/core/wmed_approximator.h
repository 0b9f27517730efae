// The paper's automated approximation method (Sec. III), generalized over
// component classes.
//
// Given an exact seed circuit, a data distribution D and a list of target
// error levels E_i, the approximator runs one CGP search per (target, run)
// pair, each minimizing circuit area under the constraint WMED_D <= E_i
// (Eq. 1), and returns the evolved designs.  Assembling a Pareto front from
// several targets reproduces the paper's design-space exploration
// methodology ("the design process is repeated for several target
// approximation errors Ei in order to construct the Pareto front").
//
// Orchestration note: approximate() and sweep() are thin wrappers over the
// session layer (core::run_search_job / core::search_session) — one job
// per (target, run) pair, all jobs sharing this approximator's immutable
// evaluator cache.  search_session.h adds job parallelism, progress
// events, cancellation and checkpoint/resume on the same primitives.
//
// The search is parameterized by a metrics::component_spec, so multipliers
// (mult_spec) and adders (adder_spec) share one implementation — both run
// the bit-plane WMED sweep; no per-candidate 2^(2w) tables anywhere in the
// inner loop.  For fast-path widths (>= 6) candidates are evaluated through
// the genotype-native incremental pipeline (cgp::cone_program +
// evolver::run_incremental): mutants never materialize netlists, the
// parent's compiled schedule is patched per mutant, and phenotype-identical
// mutants reuse the parent's score.  The incremental path is bit-identical
// to full per-mutant recompilation (`incremental` toggles it for parity
// testing).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "circuit/netlist.h"
#include "dist/pmf.h"
#include "metrics/adder_metrics.h"
#include "metrics/component_spec.h"
#include "metrics/mult_spec.h"
#include "metrics/wmed_evaluator.h"
#include "support/simd.h"
#include "tech/cell_library.h"

namespace axc::core {

template <metrics::component_spec Spec>
struct basic_approximation_config {
  Spec spec{};
  /// Distribution of operand A.  Leave empty (the default) to get the
  /// uniform distribution over the spec's 2^width operand patterns; a
  /// non-empty pmf must have exactly 2^width entries (checked with a clear
  /// error), so non-8-bit widths can never be silently mis-weighted.
  dist::pmf distribution{};
  /// CGP budget per run (generations of the (1+lambda) loop).
  std::size_t iterations{20000};
  /// Independent repetitions per target (paper: 10 resp. 25).
  std::size_t runs_per_target{1};
  /// Grid slack: columns = seed gate count + extra_columns (gives the
  /// paper's "c = 320 ... 490 depending on the initial multiplier").
  std::size_t extra_columns{64};
  unsigned max_mutations{5};  ///< h
  std::size_t lambda{4};
  /// Worker threads for evaluating the lambda mutants of each generation
  /// (1 = serial).  Results are bit-identical across thread counts: each
  /// offspring slot owns its own evaluator and the reduction is ordered.
  std::size_t threads{1};
  /// Bias neutral drift toward lower WMED at equal area (see
  /// cgp::evolver::options::error_tiebreak).  On by default: at practical
  /// search budgets it steers the error budget into many small deviations,
  /// which application-level quality rewards.
  bool error_tiebreak{true};
  /// Evaluate mutants through the genotype-native incremental pipeline
  /// (fast-path widths only; smaller widths always use the netlist path).
  /// Bit-identical either way — off is only useful for parity tests.
  bool incremental{true};
  /// Scan kernel backend for the WMED sweep (metrics/scan_kernels.h).
  /// `automatic` resolves to the strongest compiled-in backend the CPU
  /// supports (AXC_SIMD environment override honoured); every level is
  /// bit-identical, so like `threads`/`incremental` this knob never changes
  /// results and stays out of the checkpoint fingerprint.
  simd::level simd{simd::level::automatic};
  std::vector<circuit::gate_fn> function_set{
      circuit::default_function_set().begin(),
      circuit::default_function_set().end()};
  const tech::cell_library* library{&tech::cell_library::nangate45_like()};
  std::uint64_t rng_seed{1};
};

using approximation_config = basic_approximation_config<metrics::mult_spec>;
using adder_approximation_config =
    basic_approximation_config<metrics::adder_spec>;

/// Finalizes a config in place: an unset distribution becomes uniform over
/// the spec's operand count, a set one must match it (aborts with a clear
/// error otherwise), and the library/function-set invariants are checked.
/// Every entry point that accepts a config (approximator, component_handle)
/// funnels through this.
template <metrics::component_spec Spec>
void finalize_config(basic_approximation_config<Spec>& config);

extern template void finalize_config<metrics::mult_spec>(
    basic_approximation_config<metrics::mult_spec>&);
extern template void finalize_config<metrics::adder_spec>(
    basic_approximation_config<metrics::adder_spec>&);

/// One evolved approximate circuit.
struct evolved_design {
  circuit::netlist netlist;  ///< compacted (inactive gates removed)
  double wmed{0.0};          ///< measured WMED_D, fraction in [0,1]
  double area_um2{0.0};
  double target{0.0};        ///< the E_i this run was constrained to
  std::size_t run_index{0};
  std::size_t evaluations{0};
  std::size_t improvements{0};
};

/// Observation and cancellation hooks threaded through one search job (one
/// CGP run).  All optional; semantics follow cgp::evolver::options.
struct search_hooks {
  cgp::evolver::progress_fn on_improvement{};
  cgp::evolver::generation_fn on_generation{};
  cgp::evolver::stop_fn should_stop{};
};

/// The per-(spec, distribution) immutable evaluator tables a sweep shares
/// across runs (exact-result table / bit planes / block order).
template <metrics::component_spec Spec>
using wmed_shared_state =
    typename metrics::basic_wmed_evaluator<Spec>::shared_state;
template <metrics::component_spec Spec>
using wmed_shared_cache = std::shared_ptr<const wmed_shared_state<Spec>>;

/// One CGP run at one (target, run_index) against a pre-built shared cache
/// — the unit of work a search_session schedules.  The RNG stream is a pure
/// function of (config.rng_seed, target, run_index), so jobs are
/// order-independent and job-parallel sweeps are bit-identical to serial
/// ones.  Returns nullopt iff hooks.should_stop ended the run early (a
/// cancelled job must be re-run from scratch; see evolver::options).
/// `config` must already be finalized (finalize_config).
template <metrics::component_spec Spec>
[[nodiscard]] std::optional<evolved_design> run_search_job(
    const basic_approximation_config<Spec>& config,
    const wmed_shared_cache<Spec>& cache, const circuit::netlist& seed,
    double target, std::size_t run_index, const search_hooks& hooks = {});

extern template std::optional<evolved_design>
run_search_job<metrics::mult_spec>(
    const basic_approximation_config<metrics::mult_spec>&,
    const wmed_shared_cache<metrics::mult_spec>&, const circuit::netlist&,
    double, std::size_t, const search_hooks&);
extern template std::optional<evolved_design>
run_search_job<metrics::adder_spec>(
    const basic_approximation_config<metrics::adder_spec>&,
    const wmed_shared_cache<metrics::adder_spec>&, const circuit::netlist&,
    double, std::size_t, const search_hooks&);

template <metrics::component_spec Spec>
class basic_wmed_approximator {
 public:
  explicit basic_wmed_approximator(basic_approximation_config<Spec> config);

  /// One CGP run at one target.  `run_index` only decorrelates the RNG.
  [[nodiscard]] evolved_design approximate(const circuit::netlist& seed,
                                           double target,
                                           std::size_t run_index = 0) const;

  /// Full sweep: every target x runs_per_target.  `on_design` (optional)
  /// observes designs as they complete.  Thin wrapper over a single-plan
  /// core::search_session (serial job order, shared evaluator cache); use a
  /// session directly for job parallelism, progress events, cancellation
  /// and checkpointing.
  [[nodiscard]] std::vector<evolved_design> sweep(
      const circuit::netlist& seed, std::span<const double> targets,
      const std::function<void(const evolved_design&)>& on_design = {}) const;

  [[nodiscard]] const basic_approximation_config<Spec>& config() const {
    return config_;
  }

  /// The per-(spec, distribution) evaluator tables, built once at
  /// construction and reused by every approximate()/sweep() call.
  [[nodiscard]] const wmed_shared_cache<Spec>& shared_cache() const {
    return cache_;
  }

 private:
  basic_approximation_config<Spec> config_;
  wmed_shared_cache<Spec> cache_;
};

extern template class basic_wmed_approximator<metrics::mult_spec>;
extern template class basic_wmed_approximator<metrics::adder_spec>;

using wmed_approximator = basic_wmed_approximator<metrics::mult_spec>;
using adder_wmed_approximator = basic_wmed_approximator<metrics::adder_spec>;

/// The incremental (genotype-native) evaluator the search uses when
/// `incremental` is on: cone_program compile/patch + bit-plane sweep with
/// early abort at `target` + netlist-free area estimation.  Exposed for
/// benches and parity tests.  `simd` picks the scan kernel backend
/// (bit-identical at every level; see approximation_config::simd).
template <metrics::component_spec Spec>
std::unique_ptr<cgp::incremental_evaluator> make_incremental_wmed_evaluator(
    const Spec& spec, const dist::pmf& d, const tech::cell_library& lib,
    double target, simd::level simd = simd::level::automatic);

/// Same, attaching to a pre-built shared cache instead of rebuilding the
/// exact planes — what run_search_job hands each lambda slot.
template <metrics::component_spec Spec>
std::unique_ptr<cgp::incremental_evaluator> make_incremental_wmed_evaluator(
    wmed_shared_cache<Spec> cache, const tech::cell_library& lib,
    double target, simd::level simd = simd::level::automatic);

extern template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::mult_spec>(
    wmed_shared_cache<metrics::mult_spec>, const tech::cell_library&, double,
    simd::level);
extern template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::adder_spec>(
    wmed_shared_cache<metrics::adder_spec>, const tech::cell_library&, double,
    simd::level);

extern template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::mult_spec>(const metrics::mult_spec&,
                                                    const dist::pmf&,
                                                    const tech::cell_library&,
                                                    double, simd::level);
extern template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::adder_spec>(
    const metrics::adder_spec&, const dist::pmf&, const tech::cell_library&,
    double, simd::level);

/// The 14 log-spaced WMED targets (as fractions) used for case study 1,
/// spanning the paper's 0.0001 % .. 10 % axis.
std::vector<double> default_wmed_targets();

}  // namespace axc::core
