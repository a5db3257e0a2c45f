/**
 * @file
 * Sparse-aware GEMM coverage: the tile-free grouped operand (pure
 * compressed rows) vs the dense kernels and the reference on N:M-masked
 * matrices for every ISA this host can execute, on both sides of the
 * small-problem crossover and across KC blocks, thread-count determinism
 * within an ISA, the CompressedConv2d forward against the densify +
 * dense-forward path, and the ConvGeom non-positive-output guards.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "clustered_fixture.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"
#include "core/compressed_layer.hpp"
#include "core/nm_pruning.hpp"
#include "nn/compressed_conv2d.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"

namespace mvq {
namespace {

using simd::Isa;

struct IsaGuard
{
    simd::Isa saved = simd::activeIsa();
    ~IsaGuard() { simd::setIsa(saved); }
};

struct ThreadGuard
{
    ~ThreadGuard() { setNumThreads(0); }
};

std::vector<Isa>
availableIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (simd::isaAvailable(isa))
            out.push_back(isa);
    }
    return out;
}

/** Random [rows, cols] matrix with the compressed-layer 4:16 structure. */
Tensor
masked416Matrix(std::uint64_t seed, std::int64_t rows, std::int64_t cols)
{
    Rng rng(seed);
    return core::randomNmMatrix(rng, rows, cols, core::NmPattern{4, 16});
}

/** The tile-free grouped operand over `sp`: min_cols past any bucket
 *  leaves every entry in the remainder, so the gemm runs its single-row
 *  kernel only. */
GroupedSparseMatrix
tileFree(const SparseRowMatrix &sp)
{
    GroupedSparseMatrix g = groupSparseRows(sp, 16, 1 << 20);
    EXPECT_TRUE(g.tiles.empty());
    return g;
}

void
expectClose(const Tensor &ref, const Tensor &got, const char *what)
{
    ASSERT_EQ(ref.numel(), got.numel()) << what;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
        const float denom = std::max(1.0f, std::fabs(ref[i]));
        ASSERT_LE(std::fabs(ref[i] - got[i]) / denom, 1e-4f)
            << what << " elem " << i;
    }
}

TEST(SparseGemm, SparsifyRowsKeepsExactNonzeros)
{
    Tensor a = masked416Matrix(5, 16, 64);
    const SparseRowMatrix sp = sparsifyRows(a);
    EXPECT_EQ(sp.rows, 16);
    EXPECT_EQ(sp.cols, 64);
    // 4:16 keeps exactly a quarter of every row (modulo exact-zero draws,
    // which N(0,1) produces with probability ~0).
    EXPECT_EQ(sp.nnz(), 16 * 64 / 4);
    EXPECT_NEAR(sp.density(), 0.25, 1e-9);
    for (std::int64_t i = 0; i < sp.rows; ++i) {
        for (std::int64_t e = sp.row_ptr[static_cast<std::size_t>(i)];
             e < sp.row_ptr[static_cast<std::size_t>(i + 1)]; ++e) {
            EXPECT_EQ(a.at(i, sp.column(e)), sp.value(e));
            if (e > sp.row_ptr[static_cast<std::size_t>(i)]) {
                EXPECT_LT(sp.column(e - 1), sp.column(e));
            }
        }
    }
}

TEST(SparseGemm, MatchesDenseGemmAllIsas)
{
    IsaGuard guard;
    const std::int64_t m = 64, k = 288, n = 100;
    Tensor a = masked416Matrix(7, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = tileFree(sp);
    ASSERT_GT(sp.nnz() * n, kGemmScalarFallbackMacs); // packed path runs
    Rng rng(8);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_oracle(Shape({m, n}));
    gemmSparseAReference(sp, b, c_oracle);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_dense(Shape({m, n}));
        gemm(a, false, b, false, c_dense);
        Tensor c_sparse(Shape({m, n}));
        gemmSparseA(g, b, c_sparse);
        expectClose(c_dense, c_sparse, simd::isaName(isa));
        expectClose(c_oracle, c_sparse, simd::isaName(isa));
    }
}

TEST(SparseGemm, AlphaBetaMatchReference)
{
    IsaGuard guard;
    const std::int64_t m = 48, k = 160, n = 64;
    Tensor a = masked416Matrix(21, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = tileFree(sp);
    Rng rng(22);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);
    Tensor c0(Shape({m, n}));
    c0.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_ref = c0;
        gemmSparseAReference(sp, b, c_ref, 0.5f, 1.0f);
        Tensor c_got = c0;
        gemmSparseA(g, b, c_got, 0.5f, 1.0f);
        expectClose(c_ref, c_got, simd::isaName(isa));
    }
}

TEST(SparseGemm, SmallProblemRowScanPath)
{
    IsaGuard guard;
    const std::int64_t m = 8, k = 64, n = 16;
    Tensor a = masked416Matrix(31, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    ASSERT_LE(sp.nnz() * n, kGemmScalarFallbackMacs); // row-scan path
    Rng rng(32);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_ref(Shape({m, n}));
    gemmSparseAReference(sp, b, c_ref);
    Tensor c_got(Shape({m, n}));
    gemmSparseA(tileFree(sp), b, c_got);
    EXPECT_EQ(0, std::memcmp(c_ref.data(), c_got.data(),
                             static_cast<std::size_t>(m * n)
                                 * sizeof(float)));
}

TEST(SparseGemm, EmptyRowsProduceZeroRows)
{
    IsaGuard guard;
    const std::int64_t m = 40, k = 256, n = 48;
    Tensor a = masked416Matrix(41, m, k);
    // Zero out some full rows: their CSR ranges become empty.
    for (std::int64_t j = 0; j < k; ++j) {
        a.at(3, j) = 0.0f;
        a.at(39, j) = 0.0f;
    }
    const GroupedSparseMatrix g = tileFree(sparsifyRows(a));
    Rng rng(42);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c(Shape({m, n}), 7.0f); // beta = 0 must clear stale values
        gemmSparseA(g, b, c);
        for (std::int64_t j = 0; j < n; ++j) {
            EXPECT_EQ(c.at(3, j), 0.0f);
            EXPECT_EQ(c.at(39, j), 0.0f);
        }
    }
}

TEST(SparseGemm, SparsifyRowsTableHoldsDistinctValues)
{
    // Repeated values share one table slot (first appearance order); the
    // entries still decode to the exact matrix.
    Tensor a(Shape({2, 4}));
    const float v[] = {0.5f, 0.0f, -2.0f, 0.5f, -2.0f, 3.0f, 0.0f, 0.5f};
    std::copy(v, v + 8, a.data());
    const SparseRowMatrix sp = sparsifyRows(a);
    EXPECT_EQ(sp.nnz(), 6);
    ASSERT_EQ(sp.values.size(), 3u);
    EXPECT_EQ(sp.values[0], 0.5f);
    EXPECT_EQ(sp.values[1], -2.0f);
    EXPECT_EQ(sp.values[2], 3.0f);
    EXPECT_EQ(sp.col_idx[4], packEntry(1, 2)); // 3.0f at (1, 1)
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t e = sp.row_ptr[static_cast<std::size_t>(i)];
             e < sp.row_ptr[static_cast<std::size_t>(i + 1)]; ++e)
            EXPECT_EQ(a.at(i, sp.column(e)), sp.value(e));
}

/// Runs sparsifyRows on `a` and expects a PanicError whose message holds
/// `needle`, so each case pins the check that rejects it.
void
expectSparsifyPanic(const Tensor &a, const std::string &needle)
{
    try {
        (void)sparsifyRows(a);
        ADD_FAILURE() << "no panic; expected one naming \"" << needle << "\"";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "got: " << e.what();
    }
}

TEST(SparseGemm, SparsifyRowsPanicsPastThePackedLimits)
{
    // 2^16 + 2 distinct values in fewer than 2^16 columns: only the
    // 16-bit table index is exceeded.
    const std::int64_t half = kMaxValueTable / 2 + 1;
    ASSERT_LT(half, kMaxSparseCols);
    Tensor many(Shape({2, half}));
    for (std::int64_t j = 0; j < many.numel(); ++j)
        many[j] = static_cast<float>(j + 1);
    expectSparsifyPanic(many, "distinct kept values");
    // Columns past 2^16 do not fit the 16-bit column field.
    Tensor wider(Shape({1, kMaxSparseCols + 1}));
    expectSparsifyPanic(wider, "columns exceed the packed-entry limit");
}

TEST(SparseGemm, MalformedOperandPanics)
{
    // The driver binary-searches each row's columns, the micro-kernels
    // index packed B rows with them and decode values through the table,
    // so a malformed (hand-built, unvalidated) operand must panic up
    // front instead of reading out of bounds.
    GroupedSparseMatrix g;
    g.rows = {2, 8, 3};
    SparseRowMatrix &sp = g.remainder;
    sp.rows = 2;
    sp.cols = 8;
    sp.row_ptr = {0, 2, 3};
    // Not ascending within row 0.
    sp.col_idx = {packEntry(3, 0), packEntry(1, 1), packEntry(0, 2)};
    sp.values = {1.0f, 2.0f, 3.0f};
    Tensor b(Shape({8, 4}));
    Tensor c(Shape({2, 4}));
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);

    // Column 9 out of range [0, 8).
    sp.col_idx = {packEntry(1, 0), packEntry(9, 1), packEntry(0, 2)};
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);

    // Table index 3 out of range [0, 3).
    sp.col_idx = {packEntry(1, 0), packEntry(3, 3), packEntry(0, 2)};
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);

    sp.col_idx = {packEntry(1, 0), packEntry(3, 1), packEntry(0, 2)};
    EXPECT_NO_THROW(gemmSparseA(g, b, c));
    sp.row_ptr = {0, 3, 2}; // non-monotone row_ptr
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);
}

/** Tile-free gemm of `a` (B from `seed`, n columns) at 1 vs 4 threads:
 *  bit-identical per ISA, and within 1e-4 of the reference. */
void
expectTileFreeDeterministic(const Tensor &a, std::int64_t n,
                            std::uint64_t seed)
{
    const std::int64_t m = a.dim(0);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = tileFree(sp);
    Rng rng(seed);
    Tensor b(Shape({a.dim(1), n}));
    b.fillNormal(rng, 0.0f, 1.0f);
    Tensor c_ref(Shape({m, n}));
    gemmSparseAReference(sp, b, c_ref);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        setNumThreads(1);
        Tensor c1(Shape({m, n}));
        gemmSparseA(g, b, c1);
        setNumThreads(4);
        Tensor c4(Shape({m, n}));
        gemmSparseA(g, b, c4);
        EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(),
                                 static_cast<std::size_t>(m * n)
                                     * sizeof(float)))
            << simd::isaName(isa);
        expectClose(c_ref, c1, simd::isaName(isa));
    }
}

TEST(SparseGemm, ThreadCountDeterministicPerIsa)
{
    IsaGuard guard;
    ThreadGuard tguard;
    expectTileFreeDeterministic(masked416Matrix(51, 96, 320), 80, 52);
}

TEST(SparseGemm, TileFreeDeepKStraddlesKcBlocks)
{
    IsaGuard guard;
    ThreadGuard tguard;
    // K = 2304 spans nine kGemmKC blocks: a tile-free operand keeps the
    // dense K blocking, so every row's entries are sliced per block.
    const std::int64_t k = 2304;
    ASSERT_GT(k, simd::kGemmKC);
    const Tensor a = masked416Matrix(55, 32, k);
    ASSERT_GT(sparsifyRows(a).nnz() * 64, kGemmScalarFallbackMacs);
    expectTileFreeDeterministic(a, 64, 56);
}

TEST(CompressedConv2d, MatchesDensifiedForwardAllIsas)
{
    IsaGuard guard;
    ClusteredFixture f(Shape({32, 4, 3, 3}));

    Rng rng(61);
    nn::Conv2dConfig cc{4, 32, 3, 1, 1, 1, false};
    nn::Conv2d dense_conv("conv", cc, rng);
    dense_conv.setWeight(f.layer.reconstruct(f.cb));
    const nn::CompressedConv2d sparse_conv(f.layer, f.cb, 1, 1);
    EXPECT_NEAR(sparse_conv.density(), 0.25, 1e-9);

    Tensor x(Shape({2, 4, 9, 9}));
    x.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        const Tensor ref = dense_conv.forward(x, false);
        const Tensor got = sparse_conv.forward(x);
        ASSERT_EQ(ref.shape(), got.shape()) << simd::isaName(isa);
        expectClose(ref, got, simd::isaName(isa));
    }
    // Sparse flop accounting: a quarter of the dense MACs.
    EXPECT_EQ(sparse_conv.flopsFor(x), dense_conv.flops() / 4);
}

TEST(CompressedConv2d, GroupedConvMatchesDensifiedForward)
{
    IsaGuard guard;
    ClusteredFixture f(Shape({16, 2, 3, 3}), 77); // groups = 2, C = 4

    Rng rng(78);
    nn::Conv2dConfig cc{4, 16, 3, 1, 1, 2, false};
    nn::Conv2d dense_conv("conv", cc, rng);
    dense_conv.setWeight(f.layer.reconstruct(f.cb));
    const nn::CompressedConv2d sparse_conv(f.layer, f.cb, 1, 1, 2);

    Tensor x(Shape({3, 4, 7, 7}));
    x.fillNormal(rng, 0.0f, 1.0f);
    const Tensor ref = dense_conv.forward(x, false);
    const Tensor got = sparse_conv.forward(x);
    ASSERT_EQ(ref.shape(), got.shape());
    expectClose(ref, got, "grouped");
}

TEST(CompressedConv2d, StridedConvMatchesDensifiedForward)
{
    IsaGuard guard;
    ClusteredFixture f(Shape({16, 8, 3, 3}), 91);

    Rng rng(92);
    nn::Conv2dConfig cc{8, 16, 3, 2, 0, 1, false};
    nn::Conv2d dense_conv("conv", cc, rng);
    dense_conv.setWeight(f.layer.reconstruct(f.cb));
    const nn::CompressedConv2d sparse_conv(f.layer, f.cb, 2, 0);

    Tensor x(Shape({1, 8, 11, 11}));
    x.fillNormal(rng, 0.0f, 1.0f);
    const Tensor ref = dense_conv.forward(x, false);
    const Tensor got = sparse_conv.forward(x);
    ASSERT_EQ(ref.shape(), got.shape());
    expectClose(ref, got, "strided");
}

TEST(ConvGeom, OversizedKernelClampsToNonPositive)
{
    // in_h + 2*pad - k_h == -1 with stride 2: truncation toward zero used
    // to report outH() == 1; the clamped form reports 0 so every caller
    // sees the geometry is invalid.
    ConvGeom g{1, 2, 5, 3, 3, 2, 0};
    EXPECT_EQ(g.outH(), 0);
    EXPECT_EQ(g.outW(), 2);
}

TEST(ConvGeom, Im2colAndCol2imPanicOnNonPositiveOutput)
{
    ConvGeom g{1, 2, 5, 3, 3, 2, 0};
    Tensor input(Shape({1, 1, 2, 5}));
    EXPECT_THROW(im2col(input, 0, g), PanicError);

    Tensor cols(Shape({9, 1}));
    Tensor grad(Shape({1, 1, 2, 5}));
    EXPECT_THROW(col2im(cols, grad, 0, g), PanicError);
}

} // namespace
} // namespace mvq
