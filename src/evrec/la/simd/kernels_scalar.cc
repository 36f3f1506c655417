// Scalar tier: the reference implementations from scalar_impl.h, exposed
// through a KernelTable. Always available; the parity tests in
// tests/kernel_test.cc compare every other tier against this one.

#include "evrec/la/simd/kernels.h"
#include "evrec/la/simd/scalar_impl.h"

namespace evrec {
namespace la {
namespace simd {

const KernelTable* ScalarTable() {
  static const KernelTable table = {
      ScalarDot,
      ScalarAxpy,
      ScalarAdd,
      ScalarTanhForward,
      ScalarTanhBackward,
      ScalarFusedGradInput,
      ScalarGemv,
      ScalarGemvTransposedAccum,
  };
  return &table;
}

}  // namespace simd
}  // namespace la
}  // namespace evrec
