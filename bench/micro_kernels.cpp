/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels plus a before/after
 * speedup report: the seed's scalar kernels (gemmReference and a branchy
 * assignment sweep kept here verbatim) are timed against the parallel
 * blocked/branchless kernels, reporting GFLOP/s and assignments/s. With
 * `--json <path>` (or MVQ_BENCH_JSON) the measurements append to a
 * JSON-lines file so future PRs can track the perf trajectory. A second
 * report forces each available SIMD dispatch path (scalar/avx2/neon)
 * through the same workloads and records per-ISA throughput plus
 * vector-vs-scalar speedups.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <vector>

#include <cmath>
#include <cstdlib>
#include <map>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"
#include "core/grouping.hpp"
#include "core/mask_codec.hpp"
#include "core/masked_kmeans.hpp"
#include "core/nm_pruning.hpp"
#include "sim/lzc.hpp"
#include "sim/systolic_array.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace mvq;

/** The seed's branchy scalar assignment loop, kept as the "before". */
std::int64_t
maskedAssignReference(const Tensor &wr, const core::Mask &mask,
                      const Tensor &codebook,
                      std::vector<std::int32_t> &assignments)
{
    const std::int64_t ng = wr.dim(0);
    const std::int64_t d = wr.dim(1);
    const std::int64_t k = codebook.dim(0);
    std::int64_t changed = 0;
    const float *pw = wr.data();
    const float *pc = codebook.data();
    for (std::int64_t j = 0; j < ng; ++j) {
        const float *wrow = pw + j * d;
        const std::uint8_t *mrow = mask.data() + j * d;
        float best = std::numeric_limits<float>::max();
        std::int32_t best_i = 0;
        for (std::int64_t i = 0; i < k; ++i) {
            const float *crow = pc + i * d;
            float s = 0.0f;
            for (std::int64_t t = 0; t < d; ++t) {
                if (mrow[t]) {
                    const float diff = wrow[t] - crow[t];
                    s += diff * diff;
                }
            }
            if (s < best) {
                best = s;
                best_i = static_cast<std::int32_t>(i);
            }
        }
        if (assignments[static_cast<std::size_t>(j)] != best_i)
            ++changed;
        assignments[static_cast<std::size_t>(j)] = best_i;
    }
    return changed;
}

void
BM_MaskedKmeansIteration(benchmark::State &state)
{
    const std::int64_t ng = state.range(0);
    Rng rng(1);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    core::KmeansConfig cfg;
    cfg.k = 64;
    cfg.max_iters = 2;
    for (auto _ : state) {
        auto res = core::maskedKmeans(wr, mask, cfg);
        benchmark::DoNotOptimize(res.sse);
    }
    state.SetItemsProcessed(state.iterations() * ng * 64);
}
BENCHMARK(BM_MaskedKmeansIteration)->Arg(1024)->Arg(4096);

void
BM_MaskedAssign(benchmark::State &state)
{
    const std::int64_t ng = state.range(0);
    Rng rng(1);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    const std::vector<float> mask01 = core::maskToFloat(mask);
    Tensor cb(Shape({64, 16}));
    cb.fillNormal(rng, 0.0f, 1.0f);
    std::vector<std::int32_t> assign(static_cast<std::size_t>(ng), 0);
    for (auto _ : state) {
        auto changed = core::maskedAssign(wr, mask01, cb, assign);
        benchmark::DoNotOptimize(changed);
    }
    state.SetItemsProcessed(state.iterations() * ng);
}
BENCHMARK(BM_MaskedAssign)->Arg(4096)->Arg(16384);

void
BM_MaskedAssignRef(benchmark::State &state)
{
    const std::int64_t ng = state.range(0);
    Rng rng(1);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    Tensor cb(Shape({64, 16}));
    cb.fillNormal(rng, 0.0f, 1.0f);
    std::vector<std::int32_t> assign(static_cast<std::size_t>(ng), 0);
    for (auto _ : state) {
        auto changed = maskedAssignReference(wr, mask, cb, assign);
        benchmark::DoNotOptimize(changed);
    }
    state.SetItemsProcessed(state.iterations() * ng);
}
BENCHMARK(BM_MaskedAssignRef)->Arg(4096)->Arg(16384);

void
BM_LzcEncode(benchmark::State &state)
{
    std::vector<std::uint8_t> bits(16, 0);
    bits[2] = bits[7] = bits[9] = bits[15] = 1;
    for (auto _ : state) {
        auto out = sim::lzcEncode(bits, 4);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_LzcEncode);

void
BM_MaskCodecRoundTrip(benchmark::State &state)
{
    const core::MaskCodec codec(core::NmPattern{4, 16});
    std::vector<std::uint8_t> group(16, 0);
    group[1] = group[5] = group[9] = group[13] = 1;
    for (auto _ : state) {
        const std::uint32_t code = codec.encodeGroup(group.data());
        auto bits = codec.decodeGroup(code);
        benchmark::DoNotOptimize(bits.data());
    }
}
BENCHMARK(BM_MaskCodecRoundTrip);

void
BM_Gemm(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Rng rng(2);
    Tensor a(Shape({n, n}));
    Tensor b(Shape({n, n}));
    Tensor c(Shape({n, n}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        gemm(a, false, b, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

/**
 * Replace every kept (non-zero) entry of `a` with one of 256 non-zero
 * "codeword" values drawn from `seed`, as an MVQ layer's weights are: a
 * sparse operand's entries index a value table of at most 2^16 values
 * (kMaxValueTable), which a conv-sized matrix of independent normal
 * draws would overflow. The kept positions, and so the flops, stay the
 * same.
 */
void
toCodebookValues(Tensor &a, std::uint64_t seed)
{
    Rng rng(seed);
    float table[256];
    for (float &v : table) {
        v = 0.0f;
        while (v == 0.0f)
            v = rng.normal(0.0f, 1.0f);
    }
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (a[i] != 0.0f)
            a[i] = table[rng.intIn(0, 255)];
}

/** Random [rows, cols] matrix with the compressed-layer 4:16 structure,
 *  its kept entries drawn from a 256-value codebook. */
Tensor
masked416Matrix(std::uint64_t seed, std::int64_t rows, std::int64_t cols)
{
    Rng rng(seed);
    Tensor a = core::randomNmMatrix(rng, rows, cols, core::NmPattern{4, 16});
    toCodebookValues(a, seed ^ 0xc0deULL);
    return a;
}

/** The "single-row" sparse operand: grouped with min_cols past any
 *  bucket, so every entry runs through the single-row kernel. */
GroupedSparseMatrix
tileFree(const SparseRowMatrix &sp)
{
    return groupSparseRows(sp, 16, 1 << 20);
}

void
BM_GemmSparse(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Tensor a = masked416Matrix(2, n, n);
    const GroupedSparseMatrix sp = tileFree(sparsifyRows(a));
    Rng rng(3);
    Tensor b(Shape({n, n}));
    Tensor c(Shape({n, n}));
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        gemmSparseA(sp, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    // Useful (kept-position) flops; the dense equivalent is 4x this.
    state.SetItemsProcessed(state.iterations() * 2 * sp.rows.nnz() * n);
}
BENCHMARK(BM_GemmSparse)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmIm2col(benchmark::State &state)
{
    // Fused im2col->panel conv gemm on a conv-like slab (C channels,
    // n x n image, 3x3, pad 1); BM_Gemm is the matching dense-B driver.
    const std::int64_t C = 64;
    const std::int64_t hw = state.range(0);
    const ConvGeom g{C, hw, hw, 3, 3, 1, 1};
    Rng rng(2);
    Tensor x(Shape({1, C, hw, hw}));
    x.fillNormal(rng, 0.0f, 1.0f);
    const std::int64_t m = 64;
    const std::int64_t k = C * 9;
    Tensor a(Shape({m, k}));
    a.fillNormal(rng, 0.0f, 1.0f);
    const Im2colB b{x.data(), g};
    Tensor c(Shape({m, b.cols()}));
    for (auto _ : state) {
        gemmIm2colRaw(m, 1.0f, a.data(), k, b, 0.0f, c.data(), b.cols());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * b.cols());
}
BENCHMARK(BM_GemmIm2col)->Arg(14)->Arg(28);

void
BM_GemmRef(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Rng rng(2);
    Tensor a(Shape({n, n}));
    Tensor b(Shape({n, n}));
    Tensor c(Shape({n, n}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        gemmReference(a, false, b, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(128)->Arg(256);

void
BM_SystolicArrayConv(benchmark::State &state)
{
    Rng rng(3);
    Tensor ifmap(Shape({8, 8, 8}));
    ifmap.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape({16, 8, 3, 3}));
    w.fillNormal(rng, 0.0f, 0.5f);
    auto cfg = sim::makeHwSetting(sim::HwSetting::EWS_Base, 16);
    sim::SystolicArray array(cfg);
    auto dec = sim::wrapDenseWeights(w, 1);
    for (auto _ : state) {
        auto run = array.runConv(ifmap, dec, 1, 1);
        benchmark::DoNotOptimize(run.counters.total_cycles);
    }
}
BENCHMARK(BM_SystolicArrayConv);

// ---------------------------------------------------------------------
// Before/after speedup report.

double
secondsOf(const std::function<void()> &fn, int reps)
{
    double best = std::numeric_limits<double>::max();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

void
speedupReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;

    const bool fast = mvq::bench::fastMode();
    std::cout << "\n--- kernel speedup report (" << numThreads()
              << " threads) ---\n";

    // GEMM at 512^3 (256^3 in fast mode).
    {
        const std::int64_t n = fast ? 256 : 512;
        Rng rng(2);
        Tensor a(Shape({n, n}));
        Tensor b(Shape({n, n}));
        Tensor c(Shape({n, n}));
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        const double flop = 2.0 * static_cast<double>(n) * n * n;
        // Same rep count for both sides: best-of-N shrinks with N under
        // noise, so asymmetric reps would bias the speedup.
        const double t_ref = secondsOf(
            [&] { gemmReference(a, false, b, false, c); }, 5);
        const double t_opt = secondsOf(
            [&] { gemm(a, false, b, false, c); }, 5);
        const double g_ref = flop / t_ref * 1e-9;
        const double g_opt = flop / t_opt * 1e-9;
        std::cout << "gemm " << n << "^3: before " << f2(g_ref)
                  << " GFLOP/s, after " << f2(g_opt) << " GFLOP/s ("
                  << f2(t_ref / t_opt) << "x)\n";
        const std::string name = "gemm" + std::to_string(n);
        appendBenchRecord(json, name, "gflops_before", g_ref);
        appendBenchRecord(json, name, "gflops_after", g_opt);
        appendBenchRecord(json, name, "speedup", t_ref / t_opt);
    }

    // Masked k-means assignment sweep.
    {
        const std::int64_t ng = fast ? 8192 : 32768;
        const std::int64_t k = 64;
        Rng rng(1);
        Tensor wr(Shape({ng, 16}));
        wr.fillNormal(rng, 0.0f, 1.0f);
        core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
        core::applyMask(wr, mask);
        const std::vector<float> mask01 = core::maskToFloat(mask);
        Tensor cb(Shape({k, 16}));
        cb.fillNormal(rng, 0.0f, 1.0f);
        std::vector<std::int32_t> assign(static_cast<std::size_t>(ng), 0);
        const double t_ref = secondsOf(
            [&] { maskedAssignReference(wr, mask, cb, assign); }, 5);
        const double t_opt = secondsOf(
            [&] { core::maskedAssign(wr, mask01, cb, assign); }, 5);
        const double a_ref = static_cast<double>(ng) / t_ref;
        const double a_opt = static_cast<double>(ng) / t_opt;
        std::cout << "masked assignment (ng=" << ng << ", k=" << k
                  << "): before " << f2(a_ref * 1e-6)
                  << " M assignments/s, after " << f2(a_opt * 1e-6)
                  << " M assignments/s (" << f2(t_ref / t_opt) << "x)\n";
        appendBenchRecord(json, "masked_assign", "assignments_per_s_before",
                          a_ref);
        appendBenchRecord(json, "masked_assign", "assignments_per_s_after",
                          a_opt);
        appendBenchRecord(json, "masked_assign", "speedup", t_ref / t_opt);
    }
}

/**
 * Per-ISA throughput: force each SIMD path this host can execute through
 * the same gemm and masked-assignment workloads so BENCH_*.json records
 * the dispatch layer's win explicitly (vector-vs-scalar speedups included).
 */
void
isaReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;
    using simd::Isa;

    const bool fast = mvq::bench::fastMode();
    const std::int64_t n = fast ? 256 : 512;
    const std::int64_t ng = fast ? 8192 : 32768;
    const std::int64_t k = 64;

    Rng rng(2);
    Tensor a(Shape({n, n}));
    Tensor b(Shape({n, n}));
    Tensor c(Shape({n, n}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    const double flop = 2.0 * static_cast<double>(n) * n * n;

    Rng rng2(1);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng2, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    const std::vector<float> mask01 = core::maskToFloat(mask);
    Tensor cb(Shape({k, 16}));
    cb.fillNormal(rng2, 0.0f, 1.0f);
    std::vector<std::int32_t> assign(static_cast<std::size_t>(ng), 0);

    std::cout << "--- per-ISA throughput (gemm " << n
              << "^3, masked assignment ng=" << ng << " 4:16) ---\n";
    const simd::Isa saved = simd::activeIsa();
    double scalar_gflops = 0.0;
    double scalar_aps = 0.0;
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (!simd::isaAvailable(isa))
            continue;
        simd::setIsa(isa);
        const std::string tag = simd::isaName(isa);

        const double t_g =
            secondsOf([&] { gemm(a, false, b, false, c); }, 5);
        const double gflops = flop / t_g * 1e-9;
        const double t_a = secondsOf(
            [&] { core::maskedAssign(wr, mask01, cb, assign); }, 5);
        const double aps = static_cast<double>(ng) / t_a;

        std::cout << tag << ": gemm " << f2(gflops)
                  << " GFLOP/s, assignment " << f2(aps * 1e-6) << " M/s";
        appendBenchRecord(json, "gemm" + std::to_string(n) + "_" + tag,
                          "gflops", gflops);
        appendBenchRecord(json, "masked_assign_" + tag,
                          "assignments_per_s", aps);
        if (isa == Isa::Scalar) {
            scalar_gflops = gflops;
            scalar_aps = aps;
        } else {
            std::cout << " (vs scalar: gemm "
                      << f2(gflops / scalar_gflops) << "x, assignment "
                      << f2(aps / scalar_aps) << "x)";
            appendBenchRecord(json, "simd_dispatch",
                              "gemm_speedup_" + tag + "_vs_scalar",
                              gflops / scalar_gflops);
            appendBenchRecord(json, "simd_dispatch",
                              "assign_speedup_" + tag + "_vs_scalar",
                              aps / scalar_aps);
        }
        std::cout << "\n";
    }
    simd::setIsa(saved);
}

/**
 * Dense-vs-sparse gemm on the same 4:16 compressed-layer structure: the
 * dense path multiplies the masked (75%-zero) dense matrix, the sparse
 * path consumes the compressed rows. Single-threaded so the speedup is
 * the per-core flop-cut story, not a parallel-scaling artifact; the ideal
 * is 4x, and the achieved fraction is reported honestly per ISA.
 */
void
sparseReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;
    using simd::Isa;

    const bool fast = mvq::bench::fastMode();
    // Conv-layer-like shape: 256 output channels, 256*3*3 unrolled
    // columns, 28x28 (14x14 in fast mode) output positions.
    const std::int64_t m = 256;
    const std::int64_t k = 2304;
    const std::int64_t n = fast ? 196 : 784;

    Tensor a = masked416Matrix(6, m, k);
    const GroupedSparseMatrix sp = tileFree(sparsifyRows(a));
    Rng rng(7);
    Tensor b(Shape({k, n}));
    Tensor c(Shape({m, n}));
    b.fillNormal(rng, 0.0f, 1.0f);
    const double dense_flop = 2.0 * static_cast<double>(m) * k * n;
    const double ideal =
        static_cast<double>(m * k) / sp.rows.nnz(); // ~4.0

    const int prev_threads = numThreads();
    setNumThreads(1);
    std::cout << "--- dense vs sparse gemm at 4:16 (m=" << m << " k=" << k
              << " n=" << n << ", single core, ideal " << f2(ideal)
              << "x) ---\n";
    const simd::Isa saved = simd::activeIsa();
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (!simd::isaAvailable(isa))
            continue;
        simd::setIsa(isa);
        const std::string tag = simd::isaName(isa);

        const double t_dense =
            secondsOf([&] { gemm(a, false, b, false, c); }, 5);
        const double t_sparse =
            secondsOf([&] { gemmSparseA(sp, b, c); }, 5);
        const double speedup = t_dense / t_sparse;
        const double fraction = speedup / ideal;
        std::cout << tag << ": dense " << f2(dense_flop / t_dense * 1e-9)
                  << " GFLOP/s, sparse " << f2(t_sparse * 1e3)
                  << " ms/iter -> " << f2(speedup) << "x ("
                  << f2(fraction * 100.0) << "% of the " << f2(ideal)
                  << "x flop cut)\n";
        const std::string name = "gemm_sparse_416_" + tag;
        appendBenchRecord(json, name, "dense_gflops",
                          dense_flop / t_dense * 1e-9);
        appendBenchRecord(json, name, "sparse_seconds", t_sparse);
        appendBenchRecord(json, name, "speedup_vs_dense", speedup);
        appendBenchRecord(json, name, "flop_cut_fraction", fraction);
    }
    simd::setIsa(saved);
    setNumThreads(prev_threads);
}

/**
 * Fused im2col->panel packing vs the materializing im2col + gemm path on
 * the PR3 4:16 conv layer (C=256, 28x28, 3x3, stride 1, pad 1 -> m=256,
 * k=2304, n=784), dense and sparse, single core per ISA. The unfused
 * side times the whole conv forward step (im2col + dense-B gemm) since
 * that is what the fusion replaces; the fused side is one call. Also
 * re-derives the sparse fraction of the ideal 4x flop cut at the conv
 * level with both paths fused — the PR4 accounting in PERF.md.
 */
void
fusedReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;
    using simd::Isa;

    const bool fast = mvq::bench::fastMode();
    const std::int64_t C = 256;
    const std::int64_t m = 256;
    const std::int64_t hw = fast ? 14 : 28;
    const ConvGeom g{C, hw, hw, 3, 3, 1, 1};
    const std::int64_t k = C * 9;
    const std::int64_t n = g.outH() * g.outW();

    Rng rng(9);
    Tensor x(Shape({1, C, hw, hw}));
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor a = masked416Matrix(6, m, k);
    const GroupedSparseMatrix sp = tileFree(sparsifyRows(a));
    const Im2colB b{x.data(), g};
    Tensor c(Shape({m, n}));
    const double ideal =
        static_cast<double>(m * k) / sp.rows.nnz(); // ~4.0

    const int prev_threads = numThreads();
    setNumThreads(1);
    std::cout << "--- fused im2col->panel vs im2col+gemm (4:16 layer m="
              << m << " k=" << k << " n=" << n
              << ", single core, sparse ideal " << f2(ideal) << "x) ---\n";
    const simd::Isa saved = simd::activeIsa();
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (!simd::isaAvailable(isa))
            continue;
        simd::setIsa(isa);
        const std::string tag = simd::isaName(isa);

        // Best-of-7 (same rep count on every side, so best-of-N bias
        // cancels): the fused-vs-unfused gaps on the compute-bound cells
        // are a few percent, which best-of-5 resolves only marginally on
        // a shared box.
        const int reps = 7;
        const double t_dense_unfused = secondsOf(
            [&] {
                const Tensor cols = im2col(x, 0, g);
                gemmRaw(m, n, k, 1.0f, a.data(), k, false, cols.data(), n,
                        false, 0.0f, c.data(), n);
            },
            reps);
        const double t_dense_fused = secondsOf(
            [&] {
                gemmIm2colRaw(m, 1.0f, a.data(), k, b, 0.0f, c.data(), n);
            },
            reps);
        const double t_sparse_unfused = secondsOf(
            [&] {
                const Tensor cols = im2col(x, 0, g);
                gemmSparseARaw(sp, cols.data(), n, n, 1.0f, 0.0f, c.data(),
                               n);
            },
            reps);
        const double t_sparse_fused = secondsOf(
            [&] {
                gemmSparseAIm2col(sp, b, 1.0f, 0.0f, c.data(), n);
            },
            reps);

        const double dense_speedup = t_dense_unfused / t_dense_fused;
        const double sparse_speedup = t_sparse_unfused / t_sparse_fused;
        const double sparse_vs_dense = t_dense_fused / t_sparse_fused;
        const double fraction = sparse_vs_dense / ideal;
        std::cout << tag << ": dense " << f2(t_dense_unfused * 1e3)
                  << " -> " << f2(t_dense_fused * 1e3) << " ms ("
                  << f2(dense_speedup) << "x), sparse "
                  << f2(t_sparse_unfused * 1e3) << " -> "
                  << f2(t_sparse_fused * 1e3) << " ms ("
                  << f2(sparse_speedup) << "x); fused sparse vs fused "
                     "dense "
                  << f2(sparse_vs_dense) << "x (" << f2(fraction * 100.0)
                  << "% of the " << f2(ideal) << "x flop cut)\n";
        const std::string name = "conv_fused_416_" + tag;
        appendBenchRecord(json, name, "dense_unfused_seconds",
                          t_dense_unfused);
        appendBenchRecord(json, name, "dense_fused_seconds", t_dense_fused);
        appendBenchRecord(json, name, "dense_fused_speedup", dense_speedup);
        appendBenchRecord(json, name, "sparse_unfused_seconds",
                          t_sparse_unfused);
        appendBenchRecord(json, name, "sparse_fused_seconds",
                          t_sparse_fused);
        appendBenchRecord(json, name, "sparse_fused_speedup",
                          sparse_speedup);
        appendBenchRecord(json, name, "sparse_vs_dense_fused",
                          sparse_vs_dense);
        appendBenchRecord(json, name, "flop_cut_fraction", fraction);
    }
    simd::setIsa(saved);
    setNumThreads(prev_threads);
}

/**
 * Multi-row sparse micro-kernel report on the PR3 reference layer shape
 * (m=256 k=2304 n=784 fused conv, single core per ISA), with the operand
 * built the way MVQ actually builds it: output-channel-wise d=16
 * grouping, magnitude 4:16 masks, and a lognormal per-channel scale
 * spread (real conv layers have widely varying channel norms) so mask
 * codes repeat across columns of a 16-channel block — the structure
 * groupSparseRows buckets. Prints the bucket histogram (bucket count,
 * mean/max rows per bucket, fallback fraction) and times fused dense vs
 * fused sparse through the single-row kernel (a tile-free grouped
 * operand, PR3 behavior) and the multi-row grouped operand. Returns
 * false — loudly — when the tile-free or the multi-row output drifts
 * past 1e-4 of gemmSparseAReference, when the tile-free output differs
 * between 1 and 4 threads, or, with MVQ_BENCH_GATE_MIN_SPEEDUP set, when
 * the avx2 multi-row sparse-vs-dense speedup regresses below the
 * threshold (the CI perf gate).
 */
bool
multiRowReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;
    using simd::Isa;

    const bool fast = mvq::bench::fastMode();
    const std::int64_t C = 256;
    const std::int64_t m = 256;
    const std::int64_t hw = fast ? 14 : 28;
    const ConvGeom g{C, hw, hw, 3, 3, 1, 1};
    const std::int64_t k = C * 9;
    const std::int64_t n = g.outH() * g.outW();
    const std::int64_t d = 16;

    Rng rng(11);
    Tensor x(Shape({1, C, hw, hw}));
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w4(Shape({m, C, 3, 3}));
    w4.fillNormal(rng, 0.0f, 1.0f);
    Tensor zscale(Shape({m}));
    zscale.fillNormal(rng, 0.0f, 1.0f);
    for (std::int64_t ch = 0; ch < m; ++ch) {
        const float s = std::exp(1.5f * zscale[ch]);
        float *row = w4.data() + ch * C * 9;
        for (std::int64_t i = 0; i < C * 9; ++i)
            row[i] *= s;
    }
    Tensor wr = core::groupWeights(w4, d, core::Grouping::OutputChannelWise);
    const core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    const Tensor w4m = core::ungroupWeights(wr, w4.shape(), d,
                                            core::Grouping::OutputChannelWise);
    Tensor a = w4m.reshaped(Shape({m, k}));
    toCodebookValues(a, 12);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix grp = groupSparseRows(sp, 16);
    const GroupedSparseMatrix tile_free = tileFree(sp);

    // Bucket histogram: tiles sharing a column pattern (col_off) are one
    // bucket; rows per bucket = how many A rows one B-panel load feeds.
    std::map<std::int64_t, std::int64_t> bucket_rows;
    for (const GroupedSparseMatrix::Tile &t : grp.tiles)
        bucket_rows[t.col_off] += t.nrows;
    std::int64_t max_rows = 0;
    std::int64_t sum_rows = 0;
    for (const auto &[off, nrows] : bucket_rows) {
        max_rows = std::max(max_rows, nrows);
        sum_rows += nrows;
    }
    const double nbuckets = static_cast<double>(bucket_rows.size());
    const double mean_rows =
        nbuckets != 0.0 ? static_cast<double>(sum_rows) / nbuckets : 0.0;
    const double fallback = grp.fallbackFraction();

    std::cout << "--- multi-row sparse micro-kernel (4:16 OCW layer m=" << m
              << " k=" << k << " n=" << n << ", single core) ---\n"
              << "mask-code buckets: " << bucket_rows.size() << " tiled ("
              << grp.tiles.size() << " tiles), rows/bucket mean "
              << f2(mean_rows) << " max " << max_rows
              << ", single-row fallback fraction " << f2(fallback * 100.0)
              << "%\n";
    appendBenchRecord(json, "sparse_multirow_buckets", "bucket_count",
                      nbuckets);
    appendBenchRecord(json, "sparse_multirow_buckets", "tile_count",
                      static_cast<double>(grp.tiles.size()));
    appendBenchRecord(json, "sparse_multirow_buckets",
                      "mean_rows_per_bucket", mean_rows);
    appendBenchRecord(json, "sparse_multirow_buckets", "max_rows_per_bucket",
                      static_cast<double>(max_rows));
    appendBenchRecord(json, "sparse_multirow_buckets", "fallback_fraction",
                      fallback);

    const Im2colB b{x.data(), g};
    Tensor c(Shape({m, n}));
    // The ISA-independent oracle for the multi-row output.
    Tensor c_ref(Shape({m, n}));
    gemmSparseAReference(sp, im2col(x, 0, g), c_ref);
    // Parity contract: an output stays within 1e-4 of the reference gemm,
    // relative to each output row's scale. The lognormal channel scales
    // make some outputs near-cancelling sums of large terms, whose
    // element-relative error measures summation order, not the kernel.
    const auto max_rel_err = [&](const Tensor &got) {
        float worst = 0.0f;
        for (std::int64_t i = 0; i < m; ++i) {
            const float *ref_row = c_ref.data() + i * n;
            const float *got_row = got.data() + i * n;
            float scale = 1.0f;
            for (std::int64_t j = 0; j < n; ++j)
                scale = std::max(scale, std::fabs(ref_row[j]));
            for (std::int64_t j = 0; j < n; ++j)
                worst = std::max(worst,
                                 std::fabs(got_row[j] - ref_row[j]) / scale);
        }
        return worst;
    };

    const double gate = env::real("MVQ_BENCH_GATE_MIN_SPEEDUP", 0.0);
    bool ok = true;

    const int prev_threads = numThreads();
    setNumThreads(1);
    const simd::Isa saved = simd::activeIsa();
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (!simd::isaAvailable(isa))
            continue;
        simd::setIsa(isa);
        const std::string tag = simd::isaName(isa);

        const int reps = 7;
        const double t_dense = secondsOf(
            [&] {
                gemmIm2colRaw(m, 1.0f, a.data(), k, b, 0.0f, c.data(), n);
            },
            reps);
        const double t_single = secondsOf(
            [&] {
                gemmSparseAIm2col(tile_free, b, 1.0f, 0.0f, c.data(), n);
            },
            reps);
        const float single_err = max_rel_err(c);
        const double t_multi = secondsOf(
            [&] { gemmSparseAIm2col(grp, b, 1.0f, 0.0f, c.data(), n); },
            reps);
        const float worst = max_rel_err(c);
        const bool multi_close = worst <= 1e-4f;
        const bool single_close = single_err <= 1e-4f;

        // Determinism contract: the tile-free output is the same at 1 and
        // 4 threads, bit for bit.
        Tensor c_single(Shape({m, n}));
        Tensor c_threads(Shape({m, n}));
        gemmSparseAIm2col(tile_free, b, 1.0f, 0.0f, c_single.data(), n);
        setNumThreads(4);
        gemmSparseAIm2col(tile_free, b, 1.0f, 0.0f, c_threads.data(), n);
        setNumThreads(1);
        const bool thread_identical =
            std::memcmp(c_single.data(), c_threads.data(),
                        static_cast<std::size_t>(m * n) * sizeof(float))
            == 0;

        const double single_vs_dense = t_dense / t_single;
        const double multi_vs_dense = t_dense / t_multi;
        const double multi_vs_single = t_single / t_multi;
        std::cout << tag << ": dense " << f2(t_dense * 1e3)
                  << " ms, sparse single-row " << f2(t_single * 1e3)
                  << " ms (" << f2(single_vs_dense) << "x), multi-row "
                  << f2(t_multi * 1e3) << " ms (" << f2(multi_vs_dense)
                  << "x vs dense, " << f2(multi_vs_single)
                  << "x vs single-row); max rel err vs reference: "
                  << "single-row " << single_err << ", multi-row " << worst
                  << "; single-row 1 vs 4 threads bit-identical: "
                  << (thread_identical ? "yes" : "NO") << "\n";
        const std::string name = "conv_fused_416_multirow_" + tag;
        appendBenchRecord(json, name, "dense_fused_seconds", t_dense);
        appendBenchRecord(json, name, "singlerow_seconds", t_single);
        appendBenchRecord(json, name, "multirow_seconds", t_multi);
        appendBenchRecord(json, name, "singlerow_vs_dense",
                          single_vs_dense);
        appendBenchRecord(json, name, "sparse_vs_dense_fused",
                          multi_vs_dense);
        appendBenchRecord(json, name, "multirow_vs_singlerow",
                          multi_vs_single);
        appendBenchRecord(json, name, "singlerow_max_rel_err", single_err);
        appendBenchRecord(json, name, "singlerow_thread_bit_identical",
                          thread_identical ? 1.0 : 0.0);
        appendBenchRecord(json, name, "multirow_max_rel_err", worst);

        if (!single_close) {
            std::cerr << "\nFAIL: single-row (tile-free) output on " << tag
                      << " is " << single_err
                      << " (relative) from gemmSparseAReference, past "
                         "the 1e-4 bound.\n\n";
            ok = false;
        }
        if (!thread_identical) {
            std::cerr << "\nFAIL: single-row (tile-free) output on " << tag
                      << " differs between 1 and 4 threads.\n\n";
            ok = false;
        }
        if (!multi_close) {
            std::cerr << "\nFAIL: multi-row output on " << tag
                      << " is " << worst
                      << " (relative) from gemmSparseAReference, past "
                         "the 1e-4 bound.\n\n";
            ok = false;
        }
        if (gate > 0.0 && isa == Isa::Avx2 && multi_vs_dense < gate) {
            std::cerr << "\nFAIL: fused sparse-vs-dense speedup on avx2 is "
                      << f2(multi_vs_dense) << "x, below the "
                      << f2(gate)
                      << "x floor (MVQ_BENCH_GATE_MIN_SPEEDUP). The "
                         "multi-row sparse path has regressed.\n\n";
            ok = false;
        }
    }
    simd::setIsa(saved);
    setNumThreads(prev_threads);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json = mvq::bench::benchJsonPath(argc, argv);

    // Strip our --json flag (with or without its value) before handing
    // argv to google-benchmark.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 < argc)
                ++i;
            else
                std::cerr << "micro_kernels: --json needs a path; "
                             "ignoring\n";
            continue;
        }
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    benchmark::RunSpecifiedBenchmarks();
    speedupReport(json);
    isaReport(json);
    sparseReport(json);
    fusedReport(json);
    const bool gate_ok = multiRowReport(json);
    return gate_ok ? 0 : 1;
}
