// AVX-512 backend (AVX-512F + VPOPCNTDQ).  CMake compiles this TU with
// -mavx512f -mavx512vpopcntdq when the compiler accepts them; dispatch only
// selects it on CPUs reporting both features (Ice Lake and newer — Skylake-SP
// class machines lack VPOPCNTDQ and run the AVX2 kernel instead).
#include "metrics/scan_kernels.h"

namespace axc::metrics::detail {

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

namespace {

void scan_batch_avx512(const std::uint64_t* exact_planes,
                       const std::uint64_t* const* out_rows, unsigned planes,
                       unsigned result_bits, bool result_signed,
                       std::int64_t* totals) {
  scan_block_batch<simd::vu64x8<simd::level::avx512>>(
      exact_planes, out_rows, planes, result_bits, result_signed, totals);
}

}  // namespace

scan_batch_fn scan_kernel_avx512() { return &scan_batch_avx512; }

#else

scan_batch_fn scan_kernel_avx512() { return nullptr; }

#endif

}  // namespace axc::metrics::detail
