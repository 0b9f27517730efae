// Backend bodies for the sim_program<8> step executors (see simulator.h for
// the public dispatch API).  The eight 64-bit lanes of one signal are
// exactly one AVX-512 register (or two AVX2 registers), so executing a gate
// becomes load/op/store on whole rows instead of a scalar-u64 loop — the
// per-gate switch dispatch is then the only scalar work left in a pass.
//
// Two executor shapes share one gate body: the dense shape walks a packed
// step list (netlist-compiled schedules), the indexed shape walks a step
// *table* through an active-index list (the genotype-native incremental
// schedules, where the table is patched O(dirty) per mutant).  The third
// kernel packs cone flags into an active-index list — the only O(nodes)
// step left on the incremental path, which AVX-512 collapses to
// compress-store chunks of sixteen.
//
// Each backend TU (sim_step_kernels*.cpp) instantiates these with its
// simd::vu64x8 specialization under the matching -m flags.  Cases load only
// the operand rows their gate function reads: manual schedules may legally
// wire ignored operands to unwritten slots, and the executor must never
// read those.
#pragma once

#include <cstddef>

#include "circuit/simulator.h"
#include "support/simd.h"

namespace axc::circuit::detail {

template <typename V>
inline void exec_step(const sim_step& s, std::uint64_t* slots) {
  const std::uint64_t* const a = slots + s.in0;
  const std::uint64_t* const b = slots + s.in1;
  std::uint64_t* const out = slots + s.out;
  switch (s.fn) {
    case gate_fn::const0:
      V::zero().store(out);
      break;
    case gate_fn::const1:
      V::ones().store(out);
      break;
    case gate_fn::buf_a:
      V::load(a).store(out);
      break;
    case gate_fn::not_a:
      (~V::load(a)).store(out);
      break;
    case gate_fn::buf_b:
      V::load(b).store(out);
      break;
    case gate_fn::not_b:
      (~V::load(b)).store(out);
      break;
    case gate_fn::and2:
      (V::load(a) & V::load(b)).store(out);
      break;
    case gate_fn::nand2:
      (~(V::load(a) & V::load(b))).store(out);
      break;
    case gate_fn::or2:
      (V::load(a) | V::load(b)).store(out);
      break;
    case gate_fn::nor2:
      (~(V::load(a) | V::load(b))).store(out);
      break;
    case gate_fn::xor2:
      (V::load(a) ^ V::load(b)).store(out);
      break;
    case gate_fn::xnor2:
      (~(V::load(a) ^ V::load(b))).store(out);
      break;
    case gate_fn::andn_ab:
      V::andnot(V::load(b), V::load(a)).store(out);
      break;
    case gate_fn::andn_ba:
      V::andnot(V::load(a), V::load(b)).store(out);
      break;
    case gate_fn::orn_ab:
      (V::load(a) | ~V::load(b)).store(out);
      break;
    case gate_fn::orn_ba:
      (~V::load(a) | V::load(b)).store(out);
      break;
  }
}

template <typename V>
void run_steps_w8(const sim_step* steps, std::size_t count,
                  std::uint64_t* slots) {
  for (std::size_t i = 0; i < count; ++i) exec_step<V>(steps[i], slots);
}

template <typename V>
void run_steps_indexed_w8(const sim_step* table, const std::uint32_t* indices,
                          std::size_t count, std::uint64_t* slots) {
  for (std::size_t i = 0; i < count; ++i) {
    exec_step<V>(table[indices[i]], slots);
  }
}

/// Backend entry points; null when the TU lacked the backend's ISA flags.
[[nodiscard]] sim_steps_fn sim_steps_kernel_scalar();
[[nodiscard]] sim_steps_fn sim_steps_kernel_avx2();
[[nodiscard]] sim_steps_fn sim_steps_kernel_avx512();
[[nodiscard]] sim_steps_indexed_fn sim_steps_indexed_kernel_scalar();
[[nodiscard]] sim_steps_indexed_fn sim_steps_indexed_kernel_avx2();
[[nodiscard]] sim_steps_indexed_fn sim_steps_indexed_kernel_avx512();
[[nodiscard]] sim_pack_fn sim_pack_kernel_scalar();
[[nodiscard]] sim_pack_fn sim_pack_kernel_avx512();

}  // namespace axc::circuit::detail
