#include "circuit/simulator.h"

#include <array>
#include <bit>

#include "support/assert.h"

namespace axc::circuit {

void simulate_block(const netlist& nl, std::span<const std::uint64_t> inputs,
                    std::span<std::uint64_t> outputs,
                    std::span<std::uint64_t> scratch) {
  AXC_EXPECTS(inputs.size() == nl.num_inputs());
  AXC_EXPECTS(outputs.size() == nl.num_outputs());
  AXC_EXPECTS(scratch.size() >= nl.num_signals());

  for (std::size_t i = 0; i < inputs.size(); ++i) scratch[i] = inputs[i];

  const std::size_t ni = nl.num_inputs();
  const std::span<const gate_node> gates = nl.gates();
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const gate_node& g = gates[k];
    scratch[ni + k] = eval_gate(g.fn, scratch[g.in0], scratch[g.in1]);
  }
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    outputs[o] = scratch[nl.output(o)];
  }
}

std::uint64_t exhaustive_input_word(std::size_t input_index,
                                    std::size_t block) {
  // Inputs 0..5 have period 2,4,...,64 inside a word; the repeating patterns
  // are compile-time constants.  Input i >= 6 is bit (i - 6) of the block
  // index, replicated across the word.
  static constexpr std::array<std::uint64_t, 6> kWithinWord = {
      0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
      0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
  };
  if (input_index < kWithinWord.size()) return kWithinWord[input_index];
  return (block >> (input_index - 6)) & 1 ? ~std::uint64_t{0} : 0;
}

std::vector<std::uint64_t> evaluate_exhaustive(const netlist& nl) {
  const std::size_t ni = nl.num_inputs();
  const std::size_t no = nl.num_outputs();
  AXC_EXPECTS(ni >= 1 && ni <= 26);
  AXC_EXPECTS(no >= 1 && no <= 64);

  const std::size_t total = std::size_t{1} << ni;
  const std::size_t blocks = (total + 63) / 64;
  std::vector<std::uint64_t> result(total, 0);

  std::vector<std::uint64_t> in_words(ni);
  std::vector<std::uint64_t> out_words(no);
  std::vector<std::uint64_t> scratch(nl.num_signals());

  for (std::size_t block = 0; block < blocks; ++block) {
    for (std::size_t i = 0; i < ni; ++i) {
      in_words[i] = exhaustive_input_word(i, block);
    }
    simulate_block(nl, in_words, out_words, scratch);

    // Transpose: bit t of out_words[o] becomes bit o of result[block*64+t].
    const std::size_t base = block * 64;
    const std::size_t limit = total - base < 64 ? total - base : 64;
    for (std::size_t o = 0; o < no; ++o) {
      std::uint64_t w = out_words[o];
      while (w != 0) {
        const int t = std::countr_zero(w);
        w &= w - 1;
        if (static_cast<std::size_t>(t) < limit) {
          result[base + static_cast<std::size_t>(t)] |= std::uint64_t{1} << o;
        }
      }
    }
  }
  return result;
}

template <std::size_t W>
void sim_program<W>::rebuild(const netlist& nl) {
  num_inputs_ = nl.num_inputs();
  const std::span<const gate_node> gates = nl.gates();

  // The cone rule (outputs seed it; functions that ignore an operand do not
  // pull it in) has a single owner: netlist::active_mask().
  const std::vector<bool> active = nl.active_mask();

  // Dense remap: inputs keep their slots, active gates are packed after
  // them in topological order.  Ignored operands of active gates may point
  // at inactive gates; wire them to slot 0 (the value is never observed).
  remap_.assign(nl.num_signals(), 0);
  for (std::uint32_t i = 0; i < num_inputs_; ++i) remap_[i] = i;
  steps_.clear();
  std::uint32_t next_slot = static_cast<std::uint32_t>(num_inputs_);
  for (std::size_t k = 0; k < gates.size(); ++k) {
    if (!active[k]) continue;
    const gate_node& g = gates[k];
    steps_.push_back(step{g.fn, static_cast<std::uint32_t>(remap_[g.in0] * W),
                          static_cast<std::uint32_t>(remap_[g.in1] * W),
                          static_cast<std::uint32_t>(next_slot * W)});
    remap_[num_inputs_ + k] = next_slot++;
  }

  output_slots_.resize(nl.num_outputs());
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    output_slots_[o] = static_cast<std::uint32_t>(remap_[nl.output(o)] * W);
  }
  slots_.resize((num_inputs_ + steps_.size()) * W + kSlotPad);
  indexed_ = false;
}

template <std::size_t W>
void sim_program<W>::run(std::span<const std::uint64_t> inputs,
                         std::span<std::uint64_t> outputs) {
  AXC_EXPECTS(outputs.size() == output_slots_.size() * W);
  run_in_place(inputs);

  const std::uint64_t* const base = slot_base();
  for (std::size_t o = 0; o < output_slots_.size(); ++o) {
    const std::uint64_t* const src = base + output_slots_[o];
    for (std::size_t w = 0; w < W; ++w) outputs[o * W + w] = src[w];
  }
}

template <std::size_t W>
void sim_program<W>::set_simd_level(simd::level l) {
  if (W != 8) return;
  const simd::level resolved = resolve_sim_steps_level(l);
  steps_fn_ = sim_steps_kernel(resolved);
  steps_idx_fn_ = sim_steps_indexed_kernel(resolved);
  pack_fn_ = sim_pack_kernel(resolved);
}

template <std::size_t W>
void sim_program<W>::set_active_from_flags(const std::uint8_t* flags,
                                           std::size_t count) {
  AXC_EXPECTS(indexed_ && count == table_.size());
  active_idx_.resize(count);  // worst case: every node active
  if (W == 8) {
    if (pack_fn_ == nullptr) set_simd_level(simd::level::automatic);
    active_idx_.resize(pack_fn_(flags, count, active_idx_.data()));
    return;
  }
  std::size_t n = 0;
  for (std::size_t t = 0; t < count; ++t) {
    active_idx_[n] = static_cast<std::uint32_t>(t);
    n += flags[t] != 0;
  }
  active_idx_.resize(n);
}

template <std::size_t W>
void sim_program<W>::run_in_place(std::span<const std::uint64_t> inputs) {
  AXC_EXPECTS(inputs.size() == num_inputs_ * W);

  std::uint64_t* const base = slot_base();
  for (std::size_t i = 0; i < inputs.size(); ++i) base[i] = inputs[i];

  if constexpr (W == 8) {
    // Wide-lane fast path: one signal row is a whole vector register, so
    // the dispatched executor replaces the scalar per-lane loops below.
    if (steps_fn_ == nullptr) set_simd_level(simd::level::automatic);
    if (indexed_) {
      steps_idx_fn_(table_.data(), active_idx_.data(), active_idx_.size(),
                    base);
    } else {
      steps_fn_(steps_.data(), steps_.size(), base);
    }
    return;
  }

  const step* const list = indexed_ ? table_.data() : steps_.data();
  const std::size_t count = indexed_ ? active_idx_.size() : steps_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const step& s = list[indexed_ ? active_idx_[i] : i];
    const std::uint64_t* const a = base + s.in0;
    const std::uint64_t* const b = base + s.in1;
    std::uint64_t* const out = base + s.out;
    // One branch per gate; each case is a W-wide plain-array bitwise loop
    // the compiler unrolls/vectorizes.
    switch (s.fn) {
#define AXC_LANE_OP(name, expr)                         \
  case gate_fn::name:                                   \
    for (std::size_t w = 0; w < W; ++w) out[w] = (expr); \
    break;
      AXC_LANE_OP(const0, std::uint64_t{0})
      AXC_LANE_OP(const1, ~std::uint64_t{0})
      AXC_LANE_OP(buf_a, a[w])
      AXC_LANE_OP(not_a, ~a[w])
      AXC_LANE_OP(buf_b, b[w])
      AXC_LANE_OP(not_b, ~b[w])
      AXC_LANE_OP(and2, a[w] & b[w])
      AXC_LANE_OP(nand2, ~(a[w] & b[w]))
      AXC_LANE_OP(or2, a[w] | b[w])
      AXC_LANE_OP(nor2, ~(a[w] | b[w]))
      AXC_LANE_OP(xor2, a[w] ^ b[w])
      AXC_LANE_OP(xnor2, ~(a[w] ^ b[w]))
      AXC_LANE_OP(andn_ab, a[w] & ~b[w])
      AXC_LANE_OP(andn_ba, ~a[w] & b[w])
      AXC_LANE_OP(orn_ab, a[w] | ~b[w])
      AXC_LANE_OP(orn_ba, ~a[w] | b[w])
#undef AXC_LANE_OP
    }
  }
}

template class sim_program<1>;
template class sim_program<2>;
template class sim_program<4>;
template class sim_program<8>;

std::vector<std::uint64_t> simulate_words(
    const netlist& nl, std::span<const std::uint64_t> input_values) {
  const std::size_t ni = nl.num_inputs();
  const std::size_t no = nl.num_outputs();
  AXC_EXPECTS(ni <= 64 && no <= 64);

  std::vector<std::uint64_t> result(input_values.size(), 0);
  std::vector<std::uint64_t> in_words(ni);
  std::vector<std::uint64_t> out_words(no);
  std::vector<std::uint64_t> scratch(nl.num_signals());

  for (std::size_t base = 0; base < input_values.size(); base += 64) {
    const std::size_t limit =
        input_values.size() - base < 64 ? input_values.size() - base : 64;

    // Transpose assignment values into per-input bit planes.
    for (std::size_t i = 0; i < ni; ++i) {
      std::uint64_t plane = 0;
      for (std::size_t t = 0; t < limit; ++t) {
        plane |= ((input_values[base + t] >> i) & 1) << t;
      }
      in_words[i] = plane;
    }
    simulate_block(nl, in_words, out_words, scratch);

    for (std::size_t o = 0; o < no; ++o) {
      std::uint64_t w = out_words[o];
      while (w != 0) {
        const int t = std::countr_zero(w);
        w &= w - 1;
        if (static_cast<std::size_t>(t) < limit) {
          result[base + static_cast<std::size_t>(t)] |= std::uint64_t{1} << o;
        }
      }
    }
  }
  return result;
}

}  // namespace axc::circuit
