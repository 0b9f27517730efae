#include "metrics/wmed_evaluator.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "support/assert.h"

namespace axc::metrics {

template <component_spec Spec>
std::shared_ptr<const typename basic_wmed_evaluator<Spec>::shared_state>
basic_wmed_evaluator<Spec>::make_shared_state(const Spec& spec,
                                              const dist::pmf& d) {
  AXC_EXPECTS(d.size() == spec.operand_count());
  AXC_EXPECTS(2 * spec.width >= 6);  // at least one full 64-wide block

  auto state = std::make_shared<shared_state>();
  state->spec = spec;
  state->exact = exact_result_table(spec);
  const double denom =
      static_cast<double>(spec.operand_count()) * spec.output_scale();
  state->weight.resize(d.size());
  for (std::size_t a = 0; a < d.size(); ++a) state->weight[a] = d[a] / denom;

  if (spec.width < 6) return state;  // small widths use the reference sweep

  // --- operand-major exact result planes --------------------------------
  // Block index: (a << (w-6)) | bhi with bhi = operand B >> 6; the 64
  // in-word slots enumerate B's low six bits, so operand A is constant per
  // block.
  const unsigned w = spec.width;
  const std::size_t bhi_count = std::size_t{1} << (w - 6);
  state->planes = spec.result_bits() + 2;  // signed diff without wraparound
  state->block_count = std::size_t{1} << (2 * w - 6);
  // block_count is a power of two >= 64, so passes of kLanes blocks tile it
  // exactly — the sweep has no tail pass.
  static_assert((std::size_t{1} << 6) % kLanes == 0);
  state->pass_count = state->block_count / kLanes;
  AXC_EXPECTS(state->planes <= kMaxScanPlanes);

  // Block-major staging layout first; re-laid into sweep order below once
  // the visit order is known.
  std::vector<std::uint64_t> block_planes(state->block_count * state->planes,
                                          0);
  for (std::size_t a = 0; a < spec.operand_count(); ++a) {
    for (std::size_t bhi = 0; bhi < bhi_count; ++bhi) {
      const std::size_t block = (a << (w - 6)) | bhi;
      std::uint64_t* const pl = &block_planes[block * state->planes];
      for (std::size_t t = 0; t < 64; ++t) {
        const std::size_t b_op = (bhi << 6) | t;
        // Two's-complement bits sign-extend negative exact results across
        // all planes for free.
        const auto bits =
            static_cast<std::uint64_t>(state->exact[(b_op << w) | a]);
        for (std::size_t p = 0; p < state->planes; ++p) {
          pl[p] |= ((bits >> p) & 1) << t;
        }
      }
    }
  }

  // --- distribution-ordered sweep ---------------------------------------
  // Heaviest D(a) mass first: on infeasible mutants the early-abort bound
  // accumulates fastest and trips after the fewest blocks.  Ties (and the
  // uniform distribution) fall back to ascending a for determinism.
  std::vector<std::uint32_t> a_order(spec.operand_count());
  std::iota(a_order.begin(), a_order.end(), 0u);
  std::stable_sort(a_order.begin(), a_order.end(),
                   [&state](std::uint32_t x, std::uint32_t y) {
                     return state->weight[x] > state->weight[y];
                   });
  state->block_order.reserve(state->block_count);
  for (const std::uint32_t a : a_order) {
    for (std::size_t bhi = 0; bhi < bhi_count; ++bhi) {
      state->block_order.push_back(
          static_cast<std::uint32_t>((std::size_t{a} << (w - 6)) | bhi));
    }
  }

  // --- precompiled sweep-order planes -----------------------------------
  // Exact result planes re-laid lane-major in visit order (one contiguous
  // planes x kLanes tile per pass, vector-loadable by the batch kernel) and
  // the primary-input planes the simulator consumes per pass, so sweeps do
  // no per-pass broadcasting or index math at all.
  state->exact_planes.resize(state->block_count * state->planes);
  state->input_planes.resize(state->block_count * 2 * w);
  const std::size_t bhi_mask = bhi_count - 1;
  for (std::size_t pos = 0; pos < state->block_count; ++pos) {
    const std::uint32_t block = state->block_order[pos];
    const std::size_t pass = pos / kLanes;
    const std::size_t lane = pos % kLanes;

    const std::uint64_t* const src = &block_planes[block * state->planes];
    std::uint64_t* const dst =
        &state->exact_planes[pass * state->planes * kLanes];
    for (std::size_t p = 0; p < state->planes; ++p) {
      dst[p * kLanes + lane] = src[p];
    }

    const std::size_t a = block >> (w - 6);
    const std::size_t bhi = block & bhi_mask;
    std::uint64_t* const in = &state->input_planes[pass * 2 * w * kLanes];
    for (unsigned i = 0; i < w; ++i) {
      in[i * kLanes + lane] = (a >> i) & 1 ? ~std::uint64_t{0} : 0;
    }
    for (unsigned j = 0; j < 6; ++j) {
      in[(w + j) * kLanes + lane] = circuit::exhaustive_input_word(j, 0);
    }
    for (unsigned j = 6; j < w; ++j) {
      in[(w + j) * kLanes + lane] =
          (bhi >> (j - 6)) & 1 ? ~std::uint64_t{0} : 0;
    }
  }
  return state;
}

template <component_spec Spec>
basic_wmed_evaluator<Spec>::basic_wmed_evaluator(const Spec& spec,
                                                 const dist::pmf& d,
                                                 simd::level simd)
    : basic_wmed_evaluator(make_shared_state(spec, d), simd) {}

template <component_spec Spec>
basic_wmed_evaluator<Spec>::basic_wmed_evaluator(
    std::shared_ptr<const shared_state> shared, simd::level simd)
    : shared_(std::move(shared)) {
  AXC_EXPECTS(shared_ != nullptr);
  simd_level_ = resolve_scan_level(simd);
  kernel_ = scan_kernel(simd_level_);
  // One coherent backend for the whole sweep: the simulator's step executor
  // follows the scan level (clamped by its own availability).
  program_.set_simd_level(simd_level_);
  err_sums_.resize(shared_->spec.operand_count());
}

template <component_spec Spec>
double basic_wmed_evaluator<Spec>::weighted_total(
    const std::int64_t* sums) const {
  double acc = 0.0;
  for (std::size_t a = 0; a < shared_->weight.size(); ++a) {
    acc += shared_->weight[a] * static_cast<double>(sums[a]);
  }
  return acc;
}

template <component_spec Spec>
double basic_wmed_evaluator<Spec>::sweep(circuit::sim_program<kLanes>& program,
                                         double abort_above) {
  const shared_state& s = *shared_;
  const unsigned w = s.spec.width;
  const unsigned no = s.spec.result_bits();
  const unsigned planes = static_cast<unsigned>(s.planes);
  const bool sgn = s.spec.result_is_signed();

  // Candidate output plane rows are stable across passes — resolve once.
  out_rows_.resize(no);
  program.output_rows(out_rows_);

  const std::size_t in_stride = 2 * std::size_t{w} * kLanes;
  const std::uint64_t* in_planes = s.input_planes.data();
  const std::uint64_t* exact_planes = s.exact_planes.data();
  const std::uint32_t* order = s.block_order.data();
  // block_order groups each operand A's 2^(w-6) blocks into one aligned
  // run, so A's first visit position is the run start — assign there
  // instead of zero-filling err_sums_ up front (the fill is a measurable
  // fixed cost on the abort-dominated mutant path).
  const std::size_t first_mask = (std::size_t{1} << (w - 6)) - 1;
  std::int64_t totals[kLanes];

  // Running abort accumulator; the completed sweep instead returns the
  // fixed-order reduction, which is independent of the visit order.  The
  // kernel scores a whole pass at once, but totals are applied (and the
  // abort bound checked) in per-block visit order, so aborted partial
  // values match the per-lane scalar path bit for bit.
  double acc = 0.0;
  for (std::size_t pass = 0; pass < s.pass_count; ++pass) {
    program.run_in_place({in_planes + pass * in_stride, in_stride});
    kernel_(exact_planes + pass * planes * kLanes, out_rows_.data(), planes,
            no, sgn, totals);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t pos = pass * kLanes + l;
      const std::size_t a = order[pos] >> (w - 6);
      if ((pos & first_mask) == 0) {
        err_sums_[a] = totals[l];
      } else {
        err_sums_[a] += totals[l];
      }
      acc += s.weight[a] * static_cast<double>(totals[l]);
      if (acc > abort_above) return acc;
    }
  }
  return weighted_total(err_sums_.data());
}

template <component_spec Spec>
double basic_wmed_evaluator<Spec>::evaluate(const circuit::netlist& nl,
                                            double abort_above) {
  if (shared_->spec.width < 6) return evaluate_reference(nl, abort_above);

  AXC_EXPECTS(nl.num_inputs() == 2 * shared_->spec.width);
  AXC_EXPECTS(nl.num_outputs() == shared_->spec.result_bits());

  program_.rebuild(nl);
  return sweep(program_, abort_above);
}

template <component_spec Spec>
double basic_wmed_evaluator<Spec>::evaluate_program(
    circuit::sim_program<kLanes>& program, double abort_above) {
  AXC_EXPECTS(shared_->spec.width >= 6);
  AXC_EXPECTS(program.num_inputs() == 2 * shared_->spec.width);
  AXC_EXPECTS(program.num_outputs() == shared_->spec.result_bits());
  // External programs (cone_program) sweep on this evaluator's backend too.
  program.set_simd_level(simd_level_);
  return sweep(program, abort_above);
}

template <component_spec Spec>
double basic_wmed_evaluator<Spec>::evaluate_reference(
    const circuit::netlist& nl, double abort_above) {
  const shared_state& s = *shared_;
  AXC_EXPECTS(nl.num_inputs() == 2 * s.spec.width);
  AXC_EXPECTS(nl.num_outputs() == s.spec.result_bits());

  const std::size_t ni = nl.num_inputs();
  const std::size_t no = nl.num_outputs();
  const std::size_t blocks = s.spec.pair_count() / 64;
  const std::uint64_t a_mask = (std::uint64_t{1} << s.spec.width) - 1;

  scratch_.resize(nl.num_signals());
  in_words_.resize(ni);
  out_words_.resize(no);

  double acc = 0.0;
  std::uint64_t raw[64];

  for (std::size_t block = 0; block < blocks; ++block) {
    for (std::size_t i = 0; i < ni; ++i) {
      in_words_[i] = circuit::exhaustive_input_word(i, block);
    }
    circuit::simulate_block(nl, in_words_, out_words_, scratch_);

    // Gather packed results for the 64 assignments of this block.
    for (auto& r : raw) r = 0;
    for (std::size_t o = 0; o < no; ++o) {
      std::uint64_t w = out_words_[o];
      while (w != 0) {
        const int t = std::countr_zero(w);
        w &= w - 1;
        raw[t] |= std::uint64_t{1} << o;
      }
    }

    const std::size_t base = block * 64;
    for (std::size_t t = 0; t < 64; ++t) {
      const std::size_t v = base + t;
      const std::int64_t err =
          s.exact[v] - s.spec.result_value(raw[t]);
      acc += s.weight[v & a_mask] *
             static_cast<double>(err < 0 ? -err : err);
    }
    if (acc > abort_above) return acc;
  }
  return acc;
}

template class basic_wmed_evaluator<mult_spec>;
template class basic_wmed_evaluator<adder_spec>;

}  // namespace axc::metrics
