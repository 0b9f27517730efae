// The incremental search's area-first acceptance screen: while the parent
// is feasible, evolver::run_incremental caps each child's evaluation at the
// parent's area, and the WMED evaluator skips the error sweep of a child
// priced above the cap.  Three properties keep that a pure optimization:
//
//  * the price (cone_program::cone_sum over cell areas) is exactly the
//    decoded cone's tech::estimate_area, on every schedule path;
//  * per candidate, a capped evaluate_child() returns either exactly the
//    uncapped evaluation or cgp::screened_evaluation, and the latter only
//    for a child whose decoded cone is larger than the cap;
//  * per search, the screened pipeline reproduces the never-screened
//    netlist path (evolver::run) bit for bit — best genotype, best
//    evaluation and every counter — under every acceptance mode.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cgp/cone_program.h"
#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "core/wmed_approximator.h"
#include "dist/pmf.h"
#include "metrics/adder_metrics.h"
#include "metrics/mult_spec.h"
#include "metrics/wmed_evaluator.h"
#include "mult/adders.h"
#include "mult/multipliers.h"
#include "support/rng.h"
#include "tech/analysis.h"

namespace axc {
namespace {

cgp::parameters grid_params(const circuit::netlist& seed,
                            std::size_t extra_columns) {
  cgp::parameters p;
  p.num_inputs = seed.num_inputs();
  p.num_outputs = seed.num_outputs();
  p.columns = seed.num_gates() + extra_columns;
  p.rows = 1;
  p.levels_back = p.columns;
  p.function_set.assign(circuit::default_function_set().begin(),
                        circuit::default_function_set().end());
  return p;
}

bool same(const cgp::evaluation& a, const cgp::evaluation& b) {
  return a.error == b.error && a.area == b.area && a.feasible == b.feasible;
}

bool screened(const cgp::evaluation& e) {
  return same(e, cgp::screened_evaluation);
}

/// Eq. 1 scoring of a decoded netlist, as the netlist search path does it.
template <metrics::component_spec Spec>
cgp::evaluation netlist_score(metrics::basic_wmed_evaluator<Spec>& evaluator,
                              const circuit::netlist& nl, double target) {
  cgp::evaluation e;
  e.error = evaluator.evaluate(nl, target);
  e.feasible = e.error <= target;
  e.area = e.feasible
               ? tech::estimate_area(nl, tech::cell_library::nangate45_like())
               : 0.0;
  return e;
}

struct screen_counts {
  std::size_t scored{0};
  std::size_t screened{0};
};

/// Drives one capped incremental evaluator through a seeded mutation
/// stream from the exact `seed` circuit (a feasible parent), checking each
/// child against from-scratch netlist scoring and the screen's contract.
template <metrics::component_spec Spec>
screen_counts check_cap_contract(const Spec& spec, const dist::pmf& d,
                                 const circuit::netlist& seed, double target,
                                 std::uint64_t stream) {
  const auto& lib = tech::cell_library::nangate45_like();
  metrics::basic_wmed_evaluator<Spec> reference(spec, d);
  rng gen(stream);
  cgp::genotype parent =
      cgp::genotype::from_netlist(grid_params(seed, 40), seed, gen);

  auto capped = core::make_incremental_wmed_evaluator(spec, d, lib, target);
  cgp::evaluation parent_eval = capped->evaluate_and_bind(parent);
  EXPECT_TRUE(parent_eval.feasible);

  screen_counts counts;
  std::vector<std::uint32_t> dirty;
  for (int step = 0; step < 400; ++step) {
    cgp::genotype child = parent;
    dirty.clear();
    child.mutate(gen, dirty);

    const double cap = parent_eval.area;
    const cgp::evaluation got =
        capped->evaluate_child(parent, child, dirty, cap);
    const circuit::netlist cone = child.decode_cone();
    const cgp::evaluation want = netlist_score(reference, cone, target);
    if (same(got, want)) {
      ++counts.scored;
    } else {
      ++counts.screened;
      EXPECT_TRUE(screened(got)) << "step " << step;
      EXPECT_GT(tech::estimate_area(cone, lib), cap) << "step " << step;
    }

    // Accept feasible children that are no larger, so the stream walks
    // across parents and the cap moves (down on improvements, sideways on
    // neutral moves).
    if (want.feasible && want.area <= cap && step % 5 == 2) {
      parent = child;
      parent_eval = want;
      capped->rebind(parent, parent_eval);
    }
  }
  return counts;
}

TEST(area_screen, cone_sum_prices_every_mutant_exactly) {
  // The screen decides on area alone, so cone_program::cone_sum over cell
  // areas must equal estimate_area of the decoded cone bit for bit on
  // every apply() path — including superset execution, where the schedule
  // still runs the parent's list and the child's cone is derived from the
  // reference counts — and again for the parent once the child is gone.
  const auto& lib = tech::cell_library::nangate45_like();
  std::array<double, circuit::gate_fn_count> cell_area{};
  for (std::size_t f = 0; f < circuit::gate_fn_count; ++f) {
    cell_area[f] = lib.cell(static_cast<circuit::gate_fn>(f)).area_um2;
  }
  std::size_t superset = 0;
  for (const std::uint64_t stream : {3ull, 8ull, 13ull}) {
    const circuit::netlist seed = stream == 8 ? mult::ripple_adder(8)
                                              : mult::unsigned_multiplier(8);
    rng gen(stream);
    cgp::genotype parent =
        cgp::genotype::from_netlist(grid_params(seed, 40), seed, gen);
    cgp::cone_program cone;
    cone.bind(parent);
    double parent_area = tech::estimate_area(parent.decode_cone(), lib);
    ASSERT_EQ(cone.cone_sum(cell_area), parent_area);

    std::vector<std::uint32_t> dirty;
    for (int step = 0; step < 400; ++step) {
      cgp::genotype child = parent;
      dirty.clear();
      child.mutate(gen, dirty);
      const cgp::cone_program::delta d = cone.apply(parent, child, dirty);
      const circuit::netlist nl = child.decode_cone();
      const double want = tech::estimate_area(nl, lib);
      ASSERT_EQ(cone.cone_sum(cell_area), want) << "step " << step;
      ASSERT_EQ(cone.cone_sum(cell_area), want) << "repeat, step " << step;
      if (cone.active_nodes() > nl.num_gates()) ++superset;
      if (d != cgp::cone_program::delta::identical) cone.release_child(parent);
      ASSERT_EQ(cone.cone_sum(cell_area), parent_area) << "step " << step;
      if (step % 9 == 4) {
        parent = child;
        parent_area = want;
        cone.bind(parent);
      }
    }
  }
  EXPECT_GT(superset, 0u);  // the superset path was exercised
}

TEST(area_screen, capped_evaluate_child_is_exact_or_screened_above_cap) {
  screen_counts total;
  const auto add = [&total](const screen_counts& c, const std::string& name) {
    // Every stream must score some children and screen others, or the
    // contract check would pass vacuously.
    EXPECT_GT(c.scored, 0u) << name;
    EXPECT_GT(c.screened, 0u) << name;
    total.scored += c.scored;
    total.screened += c.screened;
  };
  for (const std::uint64_t stream : {5ull, 41ull}) {
    add(check_cap_contract(metrics::mult_spec{8, false},
                           dist::pmf::half_normal(256, 64.0),
                           mult::unsigned_multiplier(8), 1e-3, stream),
        "mult8 unsigned");
    add(check_cap_contract(metrics::mult_spec{7, true},
                           dist::pmf::signed_normal(128, 0.0, 16.0),
                           mult::signed_multiplier(7), 2e-3, stream),
        "mult7 signed");
    add(check_cap_contract(metrics::adder_spec{8},
                           dist::pmf::half_normal(256, 48.0),
                           mult::ripple_adder(8), 1e-3, stream),
        "adder8");
    add(check_cap_contract(metrics::mult_spec{6, false},
                           dist::pmf::uniform(64),
                           mult::unsigned_multiplier(6), 4e-3, stream),
        "mult6 unsigned");
  }
  EXPECT_GT(total.screened, 0u);
}

TEST(area_screen, uncapped_calls_score_larger_children_exactly) {
  // +inf is the uncapped contract: exact scoring for every child, even one
  // far larger than the parent.
  const metrics::mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 64.0);
  const auto& lib = tech::cell_library::nangate45_like();
  const double target = 1e-3;
  metrics::wmed_evaluator reference(spec, d);
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  rng gen(9);
  const cgp::genotype parent =
      cgp::genotype::from_netlist(grid_params(seed, 40), seed, gen);
  auto evaluator = core::make_incremental_wmed_evaluator(spec, d, lib, target);
  evaluator->evaluate_and_bind(parent);
  std::vector<std::uint32_t> dirty;
  for (int step = 0; step < 200; ++step) {
    cgp::genotype child = parent;
    dirty.clear();
    child.mutate(gen, dirty);
    const cgp::evaluation got = evaluator->evaluate_child(
        parent, child, dirty, std::numeric_limits<double>::infinity());
    const cgp::evaluation want =
        netlist_score(reference, child.decode_cone(), target);
    ASSERT_TRUE(same(got, want)) << "step " << step;
  }
}

/// Forwards to a real incremental evaluator, counting screened results so
/// the search oracle below can prove the screen actually fired.
class counting_evaluator final : public cgp::incremental_evaluator {
 public:
  counting_evaluator(std::unique_ptr<cgp::incremental_evaluator> inner,
                     std::size_t& screened_count)
      : inner_(std::move(inner)), screened_(&screened_count) {}

  cgp::evaluation evaluate_and_bind(const cgp::genotype& parent) override {
    return inner_->evaluate_and_bind(parent);
  }
  void rebind(const cgp::genotype& parent,
              const cgp::evaluation& eval) override {
    inner_->rebind(parent, eval);
  }
  cgp::evaluation evaluate_child(const cgp::genotype& parent,
                                 const cgp::genotype& child,
                                 std::span<const std::uint32_t> dirty,
                                 double area_cap) override {
    const cgp::evaluation e =
        inner_->evaluate_child(parent, child, dirty, area_cap);
    if (screened(e)) ++*screened_;
    return e;
  }

 private:
  std::unique_ptr<cgp::incremental_evaluator> inner_;
  std::size_t* screened_;
};

/// Random PMF over `n` operand patterns: log-uniform weights, so some
/// patterns dominate and others barely count.
dist::pmf random_pmf(std::size_t n, rng& gen) {
  std::vector<double> w(n);
  for (double& x : w) x = std::exp(gen.uniform(-6.0, 0.0));
  return dist::pmf::from_weights(w);
}

template <metrics::component_spec Spec>
void check_search_oracle(const Spec& spec, const circuit::netlist& exact,
                         const std::string& name, rng& meta,
                         std::size_t& screened_count) {
  const auto& lib = tech::cell_library::nangate45_like();
  const dist::pmf d = random_pmf(spec.operand_count(), meta);
  // Log-uniform target over the paper's WMED axis.
  const double target = std::pow(10.0, meta.uniform(-5.0, -1.3));
  const std::uint64_t search_seed = meta();
  // One search in four starts from a random genotype (an infeasible parent:
  // uncapped until the search first turns feasible).
  const bool random_start = meta.below(4) == 0;
  const auto cache = metrics::basic_wmed_evaluator<Spec>::make_shared_state(
      spec, d);
  const std::size_t lambda = 4;

  for (const bool drift : {true, false}) {
    for (const bool tiebreak : {true, false}) {
      cgp::evolver::options opts;
      opts.iterations = 160;
      opts.neutral_drift = drift;
      opts.error_tiebreak = tiebreak;
      const std::string where = name + " target " + std::to_string(target) +
                                " drift " + std::to_string(drift) +
                                " tiebreak " + std::to_string(tiebreak);

      const auto start = [&](rng& gen) {
        cgp::parameters p = grid_params(exact, 24);
        p.lambda = lambda;
        return random_start ? cgp::genotype::random(p, gen)
                            : cgp::genotype::from_netlist(p, exact, gen);
      };

      metrics::basic_wmed_evaluator<Spec> netlist_eval(cache);
      rng gen_ref(search_seed);
      const cgp::genotype seed_ref = start(gen_ref);
      const cgp::evolver::run_result ref = cgp::evolver::run(
          seed_ref,
          [&](const circuit::netlist& nl) {
            return netlist_score(netlist_eval, nl, target);
          },
          opts, gen_ref);

      rng gen(search_seed);
      const cgp::genotype seed_inc = start(gen);
      counting_evaluator evaluator(
          core::make_incremental_wmed_evaluator<Spec>(cache, lib, target),
          screened_count);
      const cgp::evolver::run_result got =
          cgp::evolver::run_incremental(seed_inc, evaluator, opts, gen);
      EXPECT_EQ(got.best, ref.best) << where;
      EXPECT_TRUE(same(got.best_eval, ref.best_eval)) << where;
      EXPECT_EQ(got.iterations, ref.iterations) << where;
      EXPECT_EQ(got.evaluations, ref.evaluations) << where;
      EXPECT_EQ(got.improvements, ref.improvements) << where;
      EXPECT_EQ(got.neutral_moves, ref.neutral_moves) << where;
    }
  }
}

TEST(area_screen, screened_search_matches_unscreened_netlist_search) {
  // Seeded property test over components, signedness, widths 6-8, random
  // PMFs and targets and every acceptance mode.  evolver::run never screens, so any decision the screen
  // changed would show up as a diverging trajectory.
  rng meta(2024);
  std::size_t screened_count = 0;
  for (unsigned width = 6; width <= 8; ++width) {
    check_search_oracle(metrics::mult_spec{width, false},
                        mult::unsigned_multiplier(width),
                        "mult" + std::to_string(width) + "u", meta,
                        screened_count);
    check_search_oracle(metrics::mult_spec{width, true},
                        mult::signed_multiplier(width),
                        "mult" + std::to_string(width) + "s", meta,
                        screened_count);
    check_search_oracle(metrics::adder_spec{width}, mult::ripple_adder(width),
                        "adder" + std::to_string(width), meta,
                        screened_count);
  }
  EXPECT_GT(screened_count, 0u);
}

}  // namespace
}  // namespace axc
