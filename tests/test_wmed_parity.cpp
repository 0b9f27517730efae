// Parity of the rebuilt WMED fast path (operand-major bit-plane sweep,
// cone-restricted wide-lane simulation, distribution-ordered blocks)
// against the straightforward reference implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "cgp/genotype.h"
#include "dist/pmf.h"
#include "metrics/error_metrics.h"
#include "metrics/wmed_evaluator.h"
#include "mult/multipliers.h"
#include "support/rng.h"

namespace axc::metrics {
namespace {

std::vector<dist::pmf> test_distributions(std::size_t n) {
  rng gen(13);
  std::vector<double> ragged(n);
  for (auto& w : ragged) w = gen.uniform01() * gen.uniform01();
  return {dist::pmf::uniform(n), dist::pmf::half_normal(n, n / 4.0),
          dist::pmf::normal(n, n / 2.0, n / 8.0),
          dist::pmf::signed_normal(n, 0.0, n / 6.0),
          dist::pmf::from_weights(ragged)};
}

TEST(wmed_fast_path, matches_reference_path_across_distributions) {
  for (const bool is_signed : {false, true}) {
    const mult_spec spec{8, is_signed};
    const circuit::netlist nl = mult::broken_array_multiplier(8, 2, 3,
                                                              is_signed);
    for (const dist::pmf& d : test_distributions(256)) {
      wmed_evaluator evaluator(spec, d);
      const double fast = evaluator.evaluate(nl);
      const double reference = evaluator.evaluate_reference(nl);
      EXPECT_NEAR(fast, reference, 1e-13) << "signed=" << is_signed;
    }
  }
}

TEST(wmed_fast_path, matches_table_based_wmed_on_mutated_candidates) {
  const mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 40.0);
  wmed_evaluator evaluator(spec, d);
  const auto exact = exact_product_table(spec);

  cgp::parameters params;
  params.num_inputs = 16;
  params.num_outputs = 16;
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  params.columns = seed.num_gates() + 40;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  rng gen(7);
  cgp::genotype g = cgp::genotype::from_netlist(params, seed, gen);

  for (int step = 0; step < 6; ++step) {
    const circuit::netlist nl = g.decode_cone();
    const auto table = product_table(nl, spec);
    const double reference = wmed(exact, table, spec, d);
    EXPECT_NEAR(evaluator.evaluate(nl), reference, 1e-12) << "step " << step;
    for (int m = 0; m < 5; ++m) g.mutate(gen);
  }
}

TEST(wmed_fast_path, reordered_sweep_value_is_visit_order_independent) {
  // The completed sweep reduces exact per-operand integer error totals in
  // fixed operand order, so two distributions inducing *different* block
  // orders must score a candidate identically up to their weights — checked
  // here by comparing against the order-free table-based reference, and by
  // exact reproducibility across interleaved evaluations.
  const mult_spec spec{8, false};
  const circuit::netlist nl = mult::truncated_multiplier(8, 5);

  wmed_evaluator skewed(spec, dist::pmf::half_normal(256, 20.0));
  const double first = skewed.evaluate(nl);
  // Interleave other candidates to perturb any reused internal state.
  (void)skewed.evaluate(mult::truncated_multiplier(8, 2));
  (void)skewed.evaluate(mult::unsigned_multiplier(8));
  EXPECT_EQ(skewed.evaluate(nl), first);  // bit-identical, not just close

  // Same candidate under uniform weights (natural visit order) agrees with
  // the table-based definition, as does the skewed evaluator.
  const auto exact = exact_product_table(spec);
  const auto table = product_table(nl, spec);
  EXPECT_NEAR(first,
              wmed(exact, table, spec, dist::pmf::half_normal(256, 20.0)),
              1e-12);
  wmed_evaluator uniform_eval(spec, dist::pmf::uniform(256));
  EXPECT_NEAR(uniform_eval.evaluate(nl),
              wmed(exact, table, spec, dist::pmf::uniform(256)), 1e-12);
}

TEST(wmed_fast_path, abort_classification_agrees_with_reference) {
  const mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 64.0);
  wmed_evaluator evaluator(spec, d);

  for (unsigned dropped : {2u, 5u, 8u, 11u}) {
    const circuit::netlist nl = mult::truncated_multiplier(8, dropped);
    const double full = evaluator.evaluate(nl);
    for (const double bound : {full * 0.01, full * 0.5, full * 2.0 + 1e-9}) {
      const double fast = evaluator.evaluate(nl, bound);
      const double reference = evaluator.evaluate_reference(nl, bound);
      // Both paths must classify feasibility identically...
      EXPECT_EQ(fast > bound, reference > bound)
          << "dropped=" << dropped << " bound=" << bound;
      // ...and any partial value stays a lower bound of the true error.
      EXPECT_LE(fast, full + 1e-12);
    }
  }
}

TEST(wmed_fast_path, distribution_order_visits_heavy_mass_first) {
  // An evaluator weighted towards large operands must abort a candidate
  // that is only broken for large operands sooner than the natural-order
  // reference path classifies it — observable through identical decisions
  // here, and through the recorded perf trajectory (BENCH_micro.json).
  const mult_spec spec{8, false};
  std::vector<double> top_heavy(256, 1e-6);
  for (std::size_t a = 192; a < 256; ++a) top_heavy[a] = 1.0;
  wmed_evaluator evaluator(spec, dist::pmf::from_weights(top_heavy));

  const circuit::netlist bam = mult::broken_array_multiplier(8, 3, 0);
  const double full = evaluator.evaluate(bam);
  const double aborted = evaluator.evaluate(bam, full / 1000.0);
  EXPECT_GT(aborted, full / 1000.0);
  EXPECT_LE(aborted, full + 1e-12);
}

TEST(wmed_fast_path, small_widths_share_the_reference_path) {
  // Widths below the in-word operand threshold fall back to the reference
  // sweep; both entry points must agree exactly.
  for (const unsigned width : {3u, 4u, 5u}) {
    const mult_spec spec{width, false};
    const dist::pmf d =
        dist::pmf::half_normal(spec.operand_count(), spec.operand_count() / 3.0);
    wmed_evaluator evaluator(spec, d);
    const circuit::netlist nl = mult::truncated_multiplier(width, width / 2);
    EXPECT_DOUBLE_EQ(evaluator.evaluate(nl), evaluator.evaluate_reference(nl));
  }
}

/// The sweep tables built the straightforward way: exact result planes
/// staged block-major one bit per read-modify-write, then re-laid into the
/// distribution-ordered, lane-major sweep layout.  The oracle for the
/// transpose-based make_shared_state.
template <component_spec Spec>
struct plane_oracle {
  std::vector<double> weight;
  std::vector<std::uint32_t> block_order;
  std::vector<std::uint64_t> exact_planes;
  std::vector<std::uint64_t> input_planes;
};

template <component_spec Spec>
plane_oracle<Spec> build_plane_oracle(const Spec& spec, const dist::pmf& d) {
  constexpr std::size_t lanes = basic_wmed_evaluator<Spec>::lanes;
  const unsigned w = spec.width;
  const std::size_t operands = spec.operand_count();
  const std::size_t bhi_count = std::size_t{1} << (w - 6);
  const std::size_t planes = spec.result_bits() + 2;
  const std::size_t blocks = std::size_t{1} << (2 * w - 6);
  const std::vector<std::int64_t> exact = exact_result_table(spec);

  plane_oracle<Spec> o;
  const double denom = static_cast<double>(operands) * spec.output_scale();
  for (std::size_t a = 0; a < operands; ++a) o.weight.push_back(d[a] / denom);

  std::vector<std::uint64_t> block_planes(blocks * planes, 0);
  for (std::size_t a = 0; a < operands; ++a) {
    for (std::size_t bhi = 0; bhi < bhi_count; ++bhi) {
      std::uint64_t* const pl = &block_planes[((a << (w - 6)) | bhi) * planes];
      for (std::size_t t = 0; t < 64; ++t) {
        const auto bits =
            static_cast<std::uint64_t>(exact[(((bhi << 6) | t) << w) | a]);
        for (std::size_t p = 0; p < planes; ++p) {
          pl[p] |= ((bits >> p) & 1) << t;
        }
      }
    }
  }

  std::vector<std::uint32_t> a_order(operands);
  std::iota(a_order.begin(), a_order.end(), 0u);
  std::stable_sort(a_order.begin(), a_order.end(),
                   [&o](std::uint32_t x, std::uint32_t y) {
                     return o.weight[x] > o.weight[y];
                   });
  for (const std::uint32_t a : a_order) {
    for (std::size_t bhi = 0; bhi < bhi_count; ++bhi) {
      o.block_order.push_back(
          static_cast<std::uint32_t>((std::size_t{a} << (w - 6)) | bhi));
    }
  }

  o.exact_planes.assign(blocks * planes, 0);
  o.input_planes.assign(blocks * 2 * w, 0);
  for (std::size_t pos = 0; pos < blocks; ++pos) {
    const std::uint32_t block = o.block_order[pos];
    const std::size_t pass = pos / lanes;
    const std::size_t lane = pos % lanes;
    for (std::size_t p = 0; p < planes; ++p) {
      o.exact_planes[(pass * planes + p) * lanes + lane] =
          block_planes[block * planes + p];
    }
    const std::size_t a = block >> (w - 6);
    const std::size_t bhi = block & (bhi_count - 1);
    for (unsigned i = 0; i < w; ++i) {
      o.input_planes[(pass * 2 * w + i) * lanes + lane] =
          (a >> i) & 1 ? ~std::uint64_t{0} : 0;
    }
    for (unsigned j = 0; j < 6; ++j) {
      o.input_planes[(pass * 2 * w + w + j) * lanes + lane] =
          circuit::exhaustive_input_word(j, 0);
    }
    for (unsigned j = 6; j < w; ++j) {
      o.input_planes[(pass * 2 * w + w + j) * lanes + lane] =
          (bhi >> (j - 6)) & 1 ? ~std::uint64_t{0} : 0;
    }
  }
  return o;
}

/// Random PMFs over n operands: small integer counts (many ties and zero
/// masses), sparse real weights (zeros plus distinct masses), a single
/// point mass, and the uniform distribution (all ties).
std::vector<dist::pmf> random_pmfs(std::size_t n, rng& gen) {
  std::vector<std::uint64_t> counts(n);
  for (auto& c : counts) c = gen.below(4);
  counts[gen.below(n)] += 1;  // never all zero
  std::vector<double> sparse(n, 0.0);
  for (auto& m : sparse) {
    if (gen.below(3) == 0) m = gen.uniform01();
  }
  sparse[gen.below(n)] = 1.0;
  std::vector<std::uint64_t> point(n, 0);
  point[gen.below(n)] = 1;
  return {dist::pmf::from_counts(counts), dist::pmf::from_weights(sparse),
          dist::pmf::from_counts(point), dist::pmf::uniform(n)};
}

template <component_spec Spec>
void expect_tables_match_oracle(const Spec& spec, const dist::pmf& d,
                                const std::string& label) {
  const auto state = basic_wmed_evaluator<Spec>::make_shared_state(spec, d);
  const plane_oracle<Spec> o = build_plane_oracle(spec, d);
  EXPECT_EQ(state->planes, spec.result_bits() + 2) << label;
  EXPECT_EQ(state->block_count, o.block_order.size()) << label;
  EXPECT_EQ(state->weight, o.weight) << label;
  EXPECT_EQ(state->block_order, o.block_order) << label;
  EXPECT_EQ(state->exact_planes, o.exact_planes) << label;
  EXPECT_EQ(state->input_planes, o.input_planes) << label;
}

TEST(wmed_shared_state, plane_tables_equal_the_bit_at_a_time_oracle) {
  rng gen(0x5eed13);
  for (const unsigned width : {6u, 7u, 8u}) {
    for (const dist::pmf& d : random_pmfs(std::size_t{1} << width, gen)) {
      for (const bool is_signed : {false, true}) {
        expect_tables_match_oracle(mult_spec{width, is_signed}, d,
                                   "mult w=" + std::to_string(width) +
                                       " signed=" + std::to_string(is_signed));
      }
      expect_tables_match_oracle(adder_spec{width}, d,
                                 "adder w=" + std::to_string(width));
    }
  }
}

}  // namespace
}  // namespace axc::metrics
