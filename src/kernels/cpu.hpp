// The CPU probe behind the BLAST scan stages' vector backends.
//
// Fa2Bit::feed and seed_match (kernels/fa2bit.hpp, kernels/blastn.hpp) run
// an AVX2 bulk loop when the CPU has AVX2 and their portable loops
// otherwise. The choice is made once per process from CPUID, as
// Aes::uses_aesni() makes it for the CBC backends; there is no setting
// that overrides it.
#pragma once

namespace streamcalc::kernels {

/// True when the BLAST scan stages run their AVX2 bulk loops, false when
/// they run only the portable loops (off x86-64, or on a CPU or OS
/// without AVX2).
inline bool uses_avx2() {
#if defined(__x86_64__)
  static const bool has_avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has_avx2;
#else
  return false;
#endif
}

}  // namespace streamcalc::kernels
