// Known-bad snippet for mvq_lint --selftest: tensor/ops.hpp growing a
// second sparse-A gemm API on the compressed-row record next to the
// grouped one. NOT compiled; linted only.
#include "tensor/tensor.hpp"

namespace mvq {

void gemmSparseA(const GroupedSparseMatrix &a, const Tensor &b, Tensor &c,
                 float alpha = 1.0f, float beta = 0.0f);

void gemmSparseARaw(const SparseRowMatrix &a, const float *b,
                    std::int64_t ldb, std::int64_t n, float alpha,
                    float beta, float *c, std::int64_t ldc);

void gemmSparseAReference(const SparseRowMatrix &a, const Tensor &b,
                          Tensor &c, float alpha = 1.0f, float beta = 0.0f);

} // namespace mvq
