/**
 * @file
 * Multi-row sparse micro-kernel coverage: the groupSparseRows bucketing
 * (tiles + remainder partition, adversarial bucket shapes), the gemm
 * entry points on tiled operands vs gemmSparseAReference and vs the
 * tile-free (single-row) operand, the per-ISA multi-row kernels against
 * the scalar table, thread-count determinism (also below the scalar
 * crossover, where tiled operands still take the blocked driver), and
 * the packGroupedRows operands (densified vs the reconstructed kernel)
 * and conv path (single-row im2col composition, grouped + strided).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "clustered_fixture.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"
#include "conv_oracle.hpp"
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

/** Random [rows, cols] matrix with the row-wise 4:16 structure (each
 *  row's kept columns independent, so block-column buckets stay thin). */
Tensor
masked416Matrix(std::uint64_t seed, std::int64_t rows, std::int64_t cols)
{
    Rng rng(seed);
    return core::randomNmMatrix(rng, rows, cols, core::NmPattern{4, 16});
}

/**
 * Random matrix where every row of a 16-row block keeps the same 4 of
 * each 16 columns (the pattern rotates per block): every kept column's
 * kept-row set is the full block, so groupSparseRows tiles everything.
 */
Tensor
blockPatternedMatrix(std::uint64_t seed, std::int64_t rows,
                     std::int64_t cols)
{
    Rng rng(seed);
    Tensor a(Shape({rows, cols}));
    a.fillNormal(rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < rows; ++i) {
        const std::int64_t blk = i / 16;
        for (std::int64_t j = 0; j < cols; ++j) {
            if ((j + 3 * blk) % 16 >= 4)
                a.at(i, j) = 0.0f;
        }
    }
    return a;
}

/**
 * A tiled problem below kGemmScalarFallbackMacs (m=16, k=64, n=8, every
 * entry tiled): operands with tiles take the grouped driver at every
 * problem size, so it joins the reference and determinism checks.
 */
Tensor
smallTiledMatrix()
{
    return blockPatternedMatrix(71, 16, 64);
}
constexpr std::int64_t kSmallTiledN = 8;

/** Tiles + remainder merged back into one CSR over the operand's table,
 *  entries ascending per row: what a grouped operand must hold, entry
 *  for entry. */
SparseRowMatrix
mergedRows(const GroupedSparseMatrix &g)
{
    std::vector<std::vector<std::uint32_t>> rows(
        static_cast<std::size_t>(g.rows.rows));
    const SparseRowMatrix &rem = g.remainder;
    for (std::int64_t r = 0; r < rem.rows; ++r)
        for (std::int64_t e = rem.row_ptr[static_cast<std::size_t>(r)];
             e < rem.row_ptr[static_cast<std::size_t>(r + 1)]; ++e)
            rows[static_cast<std::size_t>(r)].push_back(
                rem.col_idx[static_cast<std::size_t>(e)]);
    for (const GroupedSparseMatrix::Tile &t : g.tiles)
        for (std::int32_t r = 0; r < t.nrows; ++r)
            for (std::int64_t q = 0; q < t.ncols; ++q)
                rows[static_cast<std::size_t>(t.row[r])].push_back(
                    packEntry(g.cols[static_cast<std::size_t>(t.col_off + q)],
                              g.vals[static_cast<std::size_t>(
                                  t.val_off + r * t.ncols + q)]));
    SparseRowMatrix sp;
    sp.rows = g.rows.rows;
    sp.cols = g.rows.cols;
    sp.values = g.table();
    sp.row_ptr.push_back(0);
    for (auto &row : rows) {
        // The column is the word's high half: word order is column order.
        std::sort(row.begin(), row.end());
        for (const std::uint32_t w : row)
            sp.col_idx.push_back(w);
        sp.row_ptr.push_back(sp.nnz());
    }
    return sp;
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

void
expectBitIdentical(const Tensor &ref, const Tensor &got, const char *what)
{
    ASSERT_EQ(ref.numel(), got.numel()) << what;
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                             static_cast<std::size_t>(ref.numel())
                                 * sizeof(float)))
        << what;
}

TEST(GroupSparseRows, TilesAndRemainderPartitionTheOperand)
{
    Tensor a = blockPatternedMatrix(3, 64, 256);
    const GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    EXPECT_TRUE(g.validated);
    EXPECT_TRUE(g.remainder.validated);
    EXPECT_EQ(g.rows.nnz(), 64 * 256 / 4);
    // Every block is one 16-row bucket -> four 4-row tiles, no remainder.
    EXPECT_EQ(g.tiles.size(), 16u);
    EXPECT_EQ(g.remainder.nnz(), 0);
    EXPECT_EQ(g.tileNnz(), g.rows.nnz());
    EXPECT_EQ(g.fallbackFraction(), 0.0);
    // One band per 16-row block, each owning that block's four tiles.
    ASSERT_EQ(g.band_ptr.size(), 5u);
    for (std::size_t b = 1; b < g.band_ptr.size(); ++b)
        EXPECT_EQ(g.band_ptr[b] - g.band_ptr[b - 1], 4);
    for (const GroupedSparseMatrix::Tile &t : g.tiles) {
        EXPECT_EQ(t.nrows, 4);
        EXPECT_EQ(t.ncols, 256 / 4);
        for (std::int32_t r = 1; r < t.nrows; ++r)
            EXPECT_LT(t.row[r - 1], t.row[r]);
    }
}

TEST(GroupSparseRows, RowWiseRandomMasksFallBackToRemainder)
{
    // Independent per-row masks make block-column kept-sets collide
    // rarely; with the default min_cols threshold nearly everything must
    // take the single-row remainder, and tiles + remainder still
    // partition the operand exactly.
    Tensor a = masked416Matrix(7, 64, 256);
    const GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    EXPECT_EQ(g.tileNnz() + g.remainder.nnz(), g.rows.nnz());
    EXPECT_GT(g.fallbackFraction(), 0.5);
}

TEST(GroupSparseRows, LeftoverSingleRowChunkGoesToRemainder)
{
    // 5 rows sharing one pattern: one 4-row tile plus a leftover chunk of
    // exactly one row, which gains nothing from the tile kernel and must
    // route through the remainder instead.
    Tensor a(Shape({5, 64}));
    Rng rng(11);
    a.fillNormal(rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < 5; ++i)
        for (std::int64_t j = 0; j < 64; ++j)
            if (j % 16 >= 4)
                a.at(i, j) = 0.0f;
    const GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    ASSERT_EQ(g.tiles.size(), 1u);
    EXPECT_EQ(g.tiles[0].nrows, 4);
    EXPECT_EQ(g.tiles[0].ncols, 16);
    EXPECT_EQ(g.remainder.nnz(), 16); // the fifth row's entries
    EXPECT_EQ(g.tileNnz() + g.remainder.nnz(), g.rows.nnz());
}

TEST(GroupSparseRows, MinColsThresholdForcesPureFallback)
{
    Tensor a = blockPatternedMatrix(13, 32, 128);
    const GroupedSparseMatrix g =
        groupSparseRows(sparsifyRows(a), 16, 1 << 20);
    EXPECT_TRUE(g.tiles.empty());
    EXPECT_EQ(g.remainder.nnz(), g.rows.nnz());
    EXPECT_EQ(g.fallbackFraction(), 1.0);
}

TEST(GroupSparseRows, RejectsBadBlockSize)
{
    Tensor a = masked416Matrix(17, 16, 64);
    SparseRowMatrix sp = sparsifyRows(a);
    EXPECT_THROW(groupSparseRows(sp, 1), PanicError);
    EXPECT_THROW(groupSparseRows(sp, 33), PanicError);
    EXPECT_THROW(groupSparseRows(sp, 16, 0), PanicError);
}

TEST(SparseMultiRow, MicroKernelMatchesScalarTableAllIsas)
{
    IsaGuard guard;
    // Direct kernel-contract check: same tile, every mrows arity, each
    // ISA vs the scalar table (tolerance: the vector paths may fuse).
    const std::int64_t ncols = 24;
    const std::int64_t kmax = 96;
    Rng rng(23);
    Tensor table(Shape({simd::kSparseMultiRowMr, ncols}));
    table.fillNormal(rng, 0.0f, 1.0f);
    // Tile entries index the table in a scrambled order (7 is coprime
    // with the 96 table slots).
    std::vector<std::uint16_t> vidx;
    for (std::int64_t i = 0; i < table.numel(); ++i)
        vidx.push_back(static_cast<std::uint16_t>((i * 7) % table.numel()));
    std::vector<std::int32_t> kidx;
    for (std::int64_t q = 0; q < ncols; ++q)
        kidx.push_back(static_cast<std::int32_t>(q * 4 + (q % 3)));

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        const simd::Kernels &kn = simd::kernels();
        const std::int64_t nr = kn.nr;
        Tensor bp(Shape({kmax, nr}));
        Rng brng(29);
        bp.fillNormal(brng, 0.0f, 1.0f);
        for (std::int64_t mrows = 1; mrows <= simd::kSparseMultiRowMr;
             ++mrows) {
            // Different garbage on each side: the kernel contract is
            // OVERWRITE (acc is never read), so the results must agree
            // regardless of the incoming contents — a kernel that
            // accumulated would diverge by the 0.5 vs -2.0 difference.
            std::vector<float> acc(
                static_cast<std::size_t>(mrows * nr), 0.5f);
            std::vector<float> want(
                static_cast<std::size_t>(mrows * nr), -2.0f);
            kn.gemmSparseMultiRowMicroKernel(
                table.data(), vidx.data(), ncols, mrows, kidx.data(), ncols,
                0, bp.data(), nr, acc.data());
            simd::scalarKernels().gemmSparseMultiRowMicroKernel(
                table.data(), vidx.data(), ncols, mrows, kidx.data(), ncols,
                0, bp.data(), nr, want.data());
            for (std::size_t i = 0; i < acc.size(); ++i) {
                const float denom = std::max(1.0f, std::fabs(want[i]));
                ASSERT_LE(std::fabs(want[i] - acc[i]) / denom, 1e-4f)
                    << simd::isaName(isa) << " mrows " << mrows
                    << " elem " << i;
            }
        }
    }
}

TEST(SparseMultiRow, GroupedGemmMatchesReferenceAllIsas)
{
    IsaGuard guard;
    const std::int64_t m = 64, k = 288, n = 100;
    Tensor a = blockPatternedMatrix(31, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = groupSparseRows(sp, 16);
    const GroupedSparseMatrix tile_free = groupSparseRows(sp, 16, 1 << 20);
    ASSERT_GT(g.tileNnz(), 0);
    ASSERT_GT(sp.nnz() * n, kGemmScalarFallbackMacs); // blocked path runs
    Rng rng(32);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_oracle(Shape({m, n}));
    gemmSparseAReference(sp, b, c_oracle);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_grouped(Shape({m, n}));
        gemmSparseA(g, b, c_grouped);
        expectClose(c_oracle, c_grouped, simd::isaName(isa));
        Tensor c_single(Shape({m, n}));
        gemmSparseA(tile_free, b, c_single);
        expectClose(c_single, c_grouped, simd::isaName(isa));
    }
}

/** Grouped gemm of `a` (k x n B from `seed`) vs the reference, per ISA. */
void
expectGroupedMatchesReference(const Tensor &a, std::int64_t n,
                              std::uint64_t seed)
{
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = groupSparseRows(sp, 16);
    ASSERT_GT(g.tileNnz(), 0);
    Rng rng(seed);
    Tensor b(Shape({a.dim(1), n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_oracle(Shape({a.dim(0), n}));
    gemmSparseAReference(sp, b, c_oracle);
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_grouped(Shape({a.dim(0), n}));
        gemmSparseA(g, b, c_grouped);
        expectClose(c_oracle, c_grouped, simd::isaName(isa));
    }
}

TEST(SparseMultiRow, MixedTileAndRemainderMatchesReferenceAllIsas)
{
    IsaGuard guard;
    // Half the blocks share patterns (tiled), half are row-wise random
    // (remainder): both phases of the grouped driver run in one gemm.
    const std::int64_t m = 64, k = 288, n = 100;
    Tensor a = blockPatternedMatrix(41, m, k);
    Tensor r = masked416Matrix(42, m, k);
    for (std::int64_t i = 0; i < m; ++i) {
        if ((i / 16) % 2 == 1)
            for (std::int64_t j = 0; j < k; ++j)
                a.at(i, j) = r.at(i, j);
    }
    ASSERT_GT(groupSparseRows(sparsifyRows(a), 16).remainder.nnz(), 0);
    expectGroupedMatchesReference(a, n, 43);

    // Below the crossover the tiled operand still runs the grouped
    // driver.
    const Tensor small = smallTiledMatrix();
    ASSERT_LE(sparsifyRows(small).nnz() * kSmallTiledN,
              kGemmScalarFallbackMacs);
    expectGroupedMatchesReference(small, kSmallTiledN, 72);
}

TEST(SparseMultiRow, AlphaBetaMatchReference)
{
    IsaGuard guard;
    const std::int64_t m = 48, k = 160, n = 64;
    Tensor a = blockPatternedMatrix(81, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = groupSparseRows(sp, 16);
    Rng rng(82);
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

/** Grouped gemm of `a` at 1 vs 4 threads, bit-identical per ISA. */
void
expectThreadCountDeterministic(const Tensor &a, std::int64_t n,
                               std::uint64_t seed)
{
    const GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    ASSERT_GT(g.tileNnz(), 0);
    Rng rng(seed);
    Tensor b(Shape({a.dim(1), n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        setNumThreads(1);
        Tensor c1(Shape({a.dim(0), n}));
        gemmSparseA(g, b, c1);
        setNumThreads(4);
        Tensor c4(Shape({a.dim(0), n}));
        gemmSparseA(g, b, c4);
        expectBitIdentical(c1, c4, simd::isaName(isa));
    }
}

TEST(SparseMultiRow, ThreadCountDeterministicPerIsa)
{
    IsaGuard guard;
    ThreadGuard tguard;
    const std::int64_t m = 96, k = 320, n = 80;
    Tensor a = blockPatternedMatrix(91, m, k);
    Tensor r = masked416Matrix(92, m, k);
    for (std::int64_t i = 0; i < m; ++i) {
        if ((i / 16) % 3 == 2)
            for (std::int64_t j = 0; j < k; ++j)
                a.at(i, j) = r.at(i, j);
    }
    ASSERT_GT(groupSparseRows(sparsifyRows(a), 16).remainder.nnz(), 0);
    expectThreadCountDeterministic(a, n, 93);
    expectThreadCountDeterministic(smallTiledMatrix(), kSmallTiledN, 72);
}

TEST(SparseMultiRow, MalformedGroupedOperandPanics)
{
    // Hand-built grouped operands (validated == false) must fail the
    // structural check before the driver indexes C rows and the pools
    // with tile fields.
    Tensor a = blockPatternedMatrix(101, 64, 288);
    const std::int64_t n = 100; // keeps nnz * n above the crossover
    Tensor b(Shape({288, n}));
    Tensor c(Shape({64, n}));

    GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    g.validated = false;
    g.tiles[0].row[1] = g.tiles[0].row[0]; // rows not ascending
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);

    g = groupSparseRows(sparsifyRows(a), 16);
    g.validated = false;
    g.tiles[0].val_off = static_cast<std::int64_t>(g.vals.size());
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);

    g = groupSparseRows(sparsifyRows(a), 16);
    g.validated = false;
    g.vals[0] = static_cast<std::uint16_t>(g.table().size()); // past table
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);

    g = groupSparseRows(sparsifyRows(a), 16);
    g.validated = false;
    g.band_ptr.back() -= 1; // bands no longer cover every tile
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);
}

/** A grouped operand's tiles + remainder written back into a dense
 *  [rows, cols] matrix. */
Tensor
densified(const GroupedSparseMatrix &g)
{
    const SparseRowMatrix sp = mergedRows(g);
    Tensor dense(Shape({sp.rows, sp.cols}));
    for (std::int64_t i = 0; i < sp.rows; ++i)
        for (std::int64_t e = sp.row_ptr[static_cast<std::size_t>(i)];
             e < sp.row_ptr[static_cast<std::size_t>(i + 1)]; ++e)
            dense.at(i, sp.column(e)) = sp.value(e);
    return dense;
}

TEST(SparseMultiRow, PackGroupedRowsMatchesReconstruct)
{
    ClusteredFixture f(Shape({32, 4, 3, 3}));
    const Tensor w = f.layer.reconstruct(f.cb).reshaped(Shape({32, 36}));

    const auto grouped = f.layer.packGroupedRows(f.cb, 1);
    ASSERT_EQ(grouped.size(), 1u);
    const GroupedSparseMatrix &op = grouped[0];
    EXPECT_TRUE(op.validated);
    EXPECT_EQ(op.rows.rows, 32);
    EXPECT_EQ(op.rows.cols, 4 * 3 * 3);
    // 4:16 keeps exactly a quarter of the positions, including any kept
    // position whose codeword value happens to be zero.
    EXPECT_EQ(op.rows.nnz(), f.shape.numel() / 4);
    EXPECT_EQ(op.tileNnz() + op.remainder.nnz(), op.rows.nnz());
    // The value table is the codebook itself (index = assignment*d+lane).
    ASSERT_EQ(static_cast<std::int64_t>(op.table().size()),
              f.cb.codewords.numel());
    EXPECT_EQ(0, std::memcmp(op.table().data(), f.cb.codewords.data(),
                             op.table().size() * sizeof(float)));
    // Densifying the operand reproduces the reconstructed kernel exactly.
    expectBitIdentical(w, densified(op), "groups 1");

    // Two conv groups: each operand densifies to exactly its row range of
    // the kernel, and one table serves every group of the pack.
    const auto halves = f.layer.packGroupedRows(f.cb, 2);
    ASSERT_EQ(halves.size(), 2u);
    EXPECT_EQ(halves[0].table().data(), halves[1].table().data());
    for (std::size_t h = 0; h < halves.size(); ++h) {
        ASSERT_EQ(halves[h].rows.rows, 16);
        Tensor part(Shape({16, 36}));
        std::memcpy(part.data(), w.data() + h * 16 * 36,
                    16 * 36 * sizeof(float));
        expectBitIdentical(part, densified(halves[h]), "groups 2");
    }
    EXPECT_EQ(halves[0].rows.nnz() + halves[1].rows.nnz(), op.rows.nnz());
}

TEST(SparseMultiRow, CompressedConvMatchesSingleRowComposition)
{
    IsaGuard guard;
    ClusteredFixture f(Shape({32, 8, 3, 3}), 131, /*concentrate=*/true);

    const nn::CompressedConv2d conv(f.layer, f.cb, 1, 1);
    // Concentrated channel norms make the stored mask codes repeat across
    // columns, so the pack must discover multi-row structure.
    EXPECT_GT(conv.groupedOperand(0).tileNnz(), 0);
    Rng rng(141);
    Tensor x(Shape({2, 8, 14, 14}));
    x.fillNormal(rng, 0.0f, 1.0f);

    // Oracle: the single-row sparse gemm over the layer's kept entries,
    // all in one tile-free operand (one conv group, so the group's row
    // range is the whole pack), composed with a materialized im2col per
    // batch item.
    const GroupedSparseMatrix full =
        groupSparseRows(mergedRows(conv.groupedOperand(0)), 16, 1 << 20);
    ASSERT_TRUE(full.tiles.empty());
    const ConvGeom g{8, 14, 14, 3, 3, 1, 1};
    const std::int64_t ohw = g.outH() * g.outW();
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        const Tensor ref = im2colConv(
            x, 32, 1, g,
            [&](std::int64_t grp, const float *cols, float *out) {
                ASSERT_EQ(grp, 0);
                gemmSparseARaw(full, cols, ohw, ohw, 1.0f, 0.0f, out, ohw);
            });
        const Tensor got = conv.forward(x);
        ASSERT_EQ(ref.shape(), got.shape());
        expectClose(ref, got, simd::isaName(isa));
    }
}

TEST(SparseMultiRow, GroupedStridedConvMatchesDensifiedForward)
{
    IsaGuard guard;
    ClusteredFixture f(Shape({16, 2, 3, 3}), 151); // groups = 2, C = 4

    Rng rng(152);
    nn::Conv2dConfig cc{4, 16, 3, 2, 1, 2, false};
    nn::Conv2d dense_conv("conv", cc, rng);
    dense_conv.setWeight(f.layer.reconstruct(f.cb));
    const nn::CompressedConv2d sparse_conv(f.layer, f.cb, 2, 1, 2);

    Tensor x(Shape({2, 4, 11, 11}));
    x.fillNormal(rng, 0.0f, 1.0f);
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        const Tensor ref = dense_conv.forward(x, false);
        const Tensor got = sparse_conv.forward(x);
        ASSERT_EQ(ref.shape(), got.shape()) << simd::isaName(isa);
        expectClose(ref, got, simd::isaName(isa));
    }
}

} // namespace
} // namespace mvq
