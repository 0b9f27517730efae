// Scalar step-executor and pack backends + the runtime dispatch tables
// (mirrors src/metrics/scan_kernels.cpp).
#include "circuit/sim_step_kernels.h"

namespace axc::circuit {

namespace detail {

namespace {

void run_steps_scalar(const sim_step* steps, std::size_t count,
                      std::uint64_t* slots) {
  run_steps_w8<simd::vu64x8<simd::level::scalar>>(steps, count, slots);
}

void run_steps_indexed_scalar(const sim_step* table,
                              const std::uint32_t* indices, std::size_t count,
                              std::uint64_t* slots) {
  run_steps_indexed_w8<simd::vu64x8<simd::level::scalar>>(table, indices,
                                                          count, slots);
}

std::size_t pack_scalar(const std::uint8_t* flags, std::size_t count,
                        std::uint32_t* out) {
  // Branchless: unconditional store, conditional advance.
  std::size_t n = 0;
  for (std::size_t t = 0; t < count; ++t) {
    out[n] = static_cast<std::uint32_t>(t);
    n += flags[t] != 0;
  }
  return n;
}

}  // namespace

sim_steps_fn sim_steps_kernel_scalar() { return &run_steps_scalar; }
sim_steps_indexed_fn sim_steps_indexed_kernel_scalar() {
  return &run_steps_indexed_scalar;
}
sim_pack_fn sim_pack_kernel_scalar() { return &pack_scalar; }

}  // namespace detail

bool sim_steps_level_available(simd::level l) {
  switch (l) {
    case simd::level::automatic:
      return true;
    case simd::level::scalar:
      return detail::sim_steps_kernel_scalar() != nullptr;
    case simd::level::avx2:
      return detail::sim_steps_kernel_avx2() != nullptr &&
             simd::cpu_supports(simd::level::avx2);
    case simd::level::avx512:
      return detail::sim_steps_kernel_avx512() != nullptr &&
             simd::cpu_supports(simd::level::avx512);
  }
  return false;
}

simd::level resolve_sim_steps_level(simd::level requested) {
  return simd::resolve_level(requested, sim_steps_level_available);
}

sim_steps_fn sim_steps_kernel(simd::level resolved) {
  sim_steps_fn kernel = nullptr;
  switch (resolved) {
    case simd::level::avx512:
      kernel = detail::sim_steps_kernel_avx512();
      break;
    case simd::level::avx2:
      kernel = detail::sim_steps_kernel_avx2();
      break;
    default:
      break;
  }
  return kernel != nullptr ? kernel : detail::sim_steps_kernel_scalar();
}

sim_steps_indexed_fn sim_steps_indexed_kernel(simd::level resolved) {
  sim_steps_indexed_fn kernel = nullptr;
  switch (resolved) {
    case simd::level::avx512:
      kernel = detail::sim_steps_indexed_kernel_avx512();
      break;
    case simd::level::avx2:
      kernel = detail::sim_steps_indexed_kernel_avx2();
      break;
    default:
      break;
  }
  return kernel != nullptr ? kernel
                           : detail::sim_steps_indexed_kernel_scalar();
}

sim_pack_fn sim_pack_kernel(simd::level resolved) {
  // Only AVX-512 has a compress-store; AVX2 shares the scalar pack.
  if (resolved == simd::level::avx512) {
    const sim_pack_fn kernel = detail::sim_pack_kernel_avx512();
    if (kernel != nullptr) return kernel;
  }
  return detail::sim_pack_kernel_scalar();
}

}  // namespace axc::circuit
