#include "core/wmed_approximator.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "cgp/cone_program.h"
#include "core/component_handle.h"
#include "core/search_session.h"
#include "metrics/wmed_evaluator.h"
#include "support/assert.h"
#include "tech/analysis.h"

namespace axc::core {

namespace {

/// cgp::incremental_evaluator over the genotype-native pipeline: compile or
/// patch the parent's cone schedule, run the bit-plane sweep with early
/// abort at the target, estimate area straight from the active gate
/// functions.  Every path is bit-identical to scoring decode_cone() through
/// the netlist-based evaluator (parity-tested in
/// tests/test_incremental_eval.cpp).
template <metrics::component_spec Spec>
class incremental_wmed final : public cgp::incremental_evaluator {
 public:
  incremental_wmed(wmed_shared_cache<Spec> cache,
                   const tech::cell_library& lib, double target,
                   simd::level simd)
      : evaluator_(std::move(cache), simd), lib_(&lib), target_(target) {}

  cgp::evaluation evaluate_and_bind(const cgp::genotype& parent) override {
    cone_.bind(parent);
    parent_eval_ = score();
    return parent_eval_;
  }

  void rebind(const cgp::genotype& parent,
              const cgp::evaluation& eval) override {
    cone_.bind(parent);
    parent_eval_ = eval;  // the known evaluation spares the parent sweep
  }

  cgp::evaluation evaluate_child(
      const cgp::genotype& parent, const cgp::genotype& child,
      std::span<const std::uint32_t> dirty) override {
    const cgp::cone_program::delta d = cone_.apply(parent, child, dirty);
    // Phenotype-identical mutants (every mutated gene landed on its old
    // value or in the inactive padding) score exactly like the parent.
    if (d == cgp::cone_program::delta::identical) return parent_eval_;
    const cgp::evaluation eval = score();
    cone_.release_child(parent);
    return eval;
  }

 private:
  cgp::evaluation score() {
    cgp::evaluation eval;
    // Eq. 1: abort the error sweep once the candidate is proven infeasible;
    // area is only ranked among feasible candidates.
    eval.error = evaluator_.evaluate_program(cone_.program(), target_);
    eval.feasible = eval.error <= target_;
    eval.area =
        eval.feasible ? tech::estimate_area(cone_.step_fns(), *lib_) : 0.0;
    return eval;
  }

  metrics::basic_wmed_evaluator<Spec> evaluator_;
  cgp::cone_program cone_;
  const tech::cell_library* lib_;
  double target_;
  cgp::evaluation parent_eval_{};
};

}  // namespace

template <metrics::component_spec Spec>
void finalize_config(basic_approximation_config<Spec>& config) {
  // An unset distribution derives its size from the spec; a set one must
  // match it — fail loudly instead of silently mis-weighting WMED.
  if (config.distribution.empty()) {
    config.distribution = dist::pmf::uniform(config.spec.operand_count());
  } else if (config.distribution.size() != config.spec.operand_count()) {
    std::fprintf(stderr,
                 "axc: approximation_config.distribution has %zu entries but "
                 "spec width %u requires %zu\n",
                 config.distribution.size(), config.spec.width,
                 config.spec.operand_count());
    std::abort();
  }
  AXC_EXPECTS(config.library != nullptr);
  AXC_EXPECTS(!config.function_set.empty());
}

template <metrics::component_spec Spec>
std::unique_ptr<cgp::incremental_evaluator> make_incremental_wmed_evaluator(
    wmed_shared_cache<Spec> cache, const tech::cell_library& lib,
    double target, simd::level simd) {
  return std::make_unique<incremental_wmed<Spec>>(std::move(cache), lib,
                                                  target, simd);
}

template <metrics::component_spec Spec>
std::unique_ptr<cgp::incremental_evaluator> make_incremental_wmed_evaluator(
    const Spec& spec, const dist::pmf& d, const tech::cell_library& lib,
    double target, simd::level simd) {
  return make_incremental_wmed_evaluator<Spec>(
      metrics::basic_wmed_evaluator<Spec>::make_shared_state(spec, d), lib,
      target, simd);
}

template <metrics::component_spec Spec>
std::optional<evolved_design> run_search_job(
    const basic_approximation_config<Spec>& config,
    const wmed_shared_cache<Spec>& cache, const circuit::netlist& seed,
    double target, std::size_t run_index, const search_hooks& hooks) {
  AXC_EXPECTS(cache != nullptr);
  AXC_EXPECTS(cache->spec == config.spec);
  AXC_EXPECTS(target >= 0.0 && target <= 1.0);
  AXC_EXPECTS(seed.num_inputs() == 2 * config.spec.width);
  AXC_EXPECTS(seed.num_outputs() == config.spec.result_bits());

  cgp::parameters params;
  params.num_inputs = seed.num_inputs();
  params.num_outputs = seed.num_outputs();
  params.columns = seed.num_gates() + config.extra_columns;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set = config.function_set;
  params.max_mutations = config.max_mutations;
  params.lambda = config.lambda;

  // Decorrelate runs/targets deterministically from the base seed; the
  // stream depends only on (rng_seed, target, run_index), never on job
  // scheduling, so sessions can run jobs in any order on any thread.
  std::uint64_t mix = config.rng_seed;
  mix ^= 0x9e3779b97f4a7c15ULL * (run_index + 1);
  mix ^= static_cast<std::uint64_t>(target * 1e12) * 0xd1342543de82ef95ULL;
  rng gen(splitmix64(mix));

  const cgp::genotype start =
      cgp::genotype::from_netlist(params, seed, gen);

  metrics::basic_wmed_evaluator<Spec> wmed(cache, config.simd);
  const tech::cell_library* lib = config.library;

  cgp::evolver::options opts;
  opts.iterations = config.iterations;
  opts.error_tiebreak = config.error_tiebreak;
  opts.on_improvement = hooks.on_improvement;
  opts.on_generation = hooks.on_generation;
  opts.should_stop = hooks.should_stop;

  cgp::evolver::run_result run = [&] {
    if (config.incremental && config.spec.width >= 6) {
      // Genotype-native pipeline: mutants never round-trip through a
      // netlist; the parent's compiled schedule is shared and patched.
      const cgp::evolver::incremental_factory factory = [&cache, lib, target,
                                                         &config] {
        return make_incremental_wmed_evaluator<Spec>(cache, *lib, target,
                                                     config.simd);
      };
      return cgp::evolver::run_incremental(start, factory, opts,
                                           config.threads, gen);
    }

    // Netlist-based fallback (small widths and parity testing).  Eq. 1
    // scoring as above, with the sweep aborting at the target.
    const auto score = [lib, target](
                           metrics::basic_wmed_evaluator<Spec>& evaluator,
                           const circuit::netlist& nl) {
      const double error = evaluator.evaluate(nl, target);
      cgp::evaluation eval;
      eval.error = error;
      eval.feasible = error <= target;
      eval.area = eval.feasible ? tech::estimate_area(nl, *lib) : 0.0;
      return eval;
    };
    if (config.threads > 1) {
      // Parallel lambda-evaluation gives every offspring slot a private
      // evaluator (they carry per-candidate scratch and sim programs).
      const cgp::evolver::evaluator_factory factory =
          [&cache, score, &config]() -> cgp::evolver::evaluate_fn {
        auto evaluator =
            std::make_shared<metrics::basic_wmed_evaluator<Spec>>(cache,
                                                                  config.simd);
        return [evaluator, score](const circuit::netlist& nl) {
          return score(*evaluator, nl);
        };
      };
      return cgp::evolver::run_parallel(start, factory, opts,
                                        config.threads, gen);
    }
    return cgp::evolver::run(
        start,
        [&wmed, score](const circuit::netlist& nl) {
          return score(wmed, nl);
        },
        opts, gen);
  }();

  if (run.stopped) return std::nullopt;

  evolved_design design{run.best.decode_cone(), 0.0, 0.0, target,
                        run_index, run.evaluations, run.improvements};
  design.wmed = wmed.evaluate(design.netlist);
  design.area_um2 = tech::estimate_area(design.netlist, *lib);
  return design;
}

template <metrics::component_spec Spec>
basic_wmed_approximator<Spec>::basic_wmed_approximator(
    basic_approximation_config<Spec> config)
    : config_(std::move(config)) {
  finalize_config(config_);
  cache_ = metrics::basic_wmed_evaluator<Spec>::make_shared_state(
      config_.spec, config_.distribution);
}

template <metrics::component_spec Spec>
evolved_design basic_wmed_approximator<Spec>::approximate(
    const circuit::netlist& seed, double target,
    std::size_t run_index) const {
  // No stop hook, so the job always completes.
  return *run_search_job(config_, cache_, seed, target, run_index);
}

template <metrics::component_spec Spec>
std::vector<evolved_design> basic_wmed_approximator<Spec>::sweep(
    const circuit::netlist& seed, std::span<const double> targets,
    const std::function<void(const evolved_design&)>& on_design) const {
  // One single-plan serial session: same job order and RNG streams as the
  // historic nested target/run loop, with the evaluator cache shared
  // across all jobs.
  sweep_plan plan;
  plan.targets.assign(targets.begin(), targets.end());
  plan.runs_per_target = config_.runs_per_target;

  session_config options;
  options.on_design = on_design;

  search_session session(make_component(config_, cache_), seed,
                         std::move(plan), std::move(options));
  session.run();
  return session.designs();
}

template class basic_wmed_approximator<metrics::mult_spec>;
template class basic_wmed_approximator<metrics::adder_spec>;

template void finalize_config<metrics::mult_spec>(
    basic_approximation_config<metrics::mult_spec>&);
template void finalize_config<metrics::adder_spec>(
    basic_approximation_config<metrics::adder_spec>&);

template std::optional<evolved_design> run_search_job<metrics::mult_spec>(
    const basic_approximation_config<metrics::mult_spec>&,
    const wmed_shared_cache<metrics::mult_spec>&, const circuit::netlist&,
    double, std::size_t, const search_hooks&);
template std::optional<evolved_design> run_search_job<metrics::adder_spec>(
    const basic_approximation_config<metrics::adder_spec>&,
    const wmed_shared_cache<metrics::adder_spec>&, const circuit::netlist&,
    double, std::size_t, const search_hooks&);

template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::mult_spec>(const metrics::mult_spec&,
                                                    const dist::pmf&,
                                                    const tech::cell_library&,
                                                    double, simd::level);
template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::adder_spec>(
    const metrics::adder_spec&, const dist::pmf&, const tech::cell_library&,
    double, simd::level);
template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::mult_spec>(
    wmed_shared_cache<metrics::mult_spec>, const tech::cell_library&, double,
    simd::level);
template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::adder_spec>(
    wmed_shared_cache<metrics::adder_spec>, const tech::cell_library&, double,
    simd::level);

std::vector<double> default_wmed_targets() {
  // 14 log-spaced levels spanning the paper's WMED axis (0.0001 % .. 10 %),
  // expressed as fractions.
  std::vector<double> targets;
  targets.reserve(14);
  for (int k = 0; k < 14; ++k) {
    const double exponent = -6.0 + 5.0 * static_cast<double>(k) / 13.0;
    targets.push_back(std::pow(10.0, exponent));
  }
  return targets;
}

}  // namespace axc::core
