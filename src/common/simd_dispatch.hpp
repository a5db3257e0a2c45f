/**
 * @file
 * Runtime SIMD dispatch for the hot kernels. One portable binary carries a
 * scalar path plus per-ISA translation units (AVX2/FMA on x86-64, NEON on
 * aarch64) compiled with per-file arch flags; the active table is resolved
 * once at startup from CPU feature detection (cpuid on x86, compile-time
 * on aarch64) with an `MVQ_SIMD=scalar|avx2|neon` environment override.
 *
 * Detection order: MVQ_SIMD override (falling back with a warning when the
 * requested ISA is unavailable on this host/build), then NEON (baseline on
 * aarch64), then AVX2+FMA (requires OS YMM state via xgetbv), then scalar.
 *
 * Determinism: the dispatch choice never affects parallel chunking, so the
 * bit-identical-across-thread-counts contract (see common/parallel.hpp)
 * holds *within* any given ISA. Different ISAs reorder floating-point
 * accumulation and may differ in final ULPs; tests/simd_dispatch_test.cpp
 * pins the cross-ISA tolerance.
 */

#ifndef MVQ_COMMON_SIMD_DISPATCH_HPP
#define MVQ_COMMON_SIMD_DISPATCH_HPP

#include <cstdint>

namespace mvq::simd {

/** Instruction-set architectures a build can carry kernels for. */
enum class Isa
{
    Scalar = 0, //!< portable C++ (whatever the baseline arch flags allow)
    Avx2 = 1,   //!< x86-64 AVX2 + FMA, runtime-detected via cpuid
    Neon = 2,   //!< aarch64 Advanced SIMD (baseline on that target)
};

/** Upper bounds on micro-kernel register-tile dims across all ISAs; the
 *  gemm driver sizes its on-stack accumulator with these. */
constexpr std::int64_t kMaxGemmMr = 8;
constexpr std::int64_t kMaxGemmNr = 16;

/**
 * Row count of the multi-row sparse register tile
 * (gemmSparseMultiRowMicroKernel): up to this many compressed A rows
 * sharing one column pattern accumulate against each packed B row load.
 * 4 matches both the AVX2 budget (4 x 2 accumulator ymm + 2 B vectors +
 * 1 broadcast) and the N of the default 4:16 pattern, where one mask code
 * keeps exactly 4 rows of an M-row block.
 */
constexpr std::int64_t kSparseMultiRowMr = 4;

/**
 * Packed sparse entry word read by gemmSparseMicroKernel: column in the
 * high bits, value-table index in the low kSparseEntryColumnShift bits.
 * Mirrors tensor/ops.hpp's kEntryColumnShift (static_asserted equal in
 * ops.cpp).
 */
constexpr int kSparseEntryColumnShift = 16;

/**
 * Cache-blocking parameters of the blocked gemm drivers (dense and
 * sparse-A) in tensor/ops.cpp. A driver iteration packs one KC x NC block
 * of op(B) into nr-column panels (nr from the active table, so a panel is
 * kGemmKC x nr floats at most) and one MC x KC block of op(A) into mr-row
 * panels. Exposed here because B-panel *producers* — packB and the fused
 * packBFromIm2col in tensor/ops — and the tests/benches that pick shapes
 * straddling block boundaries all need the same constants the drivers
 * block with.
 */
constexpr std::int64_t kGemmMC = 64;   //!< rows of C per packed A block
constexpr std::int64_t kGemmKC = 256;  //!< depth of one packed K block
constexpr std::int64_t kGemmNC = 2048; //!< columns of C per packed B block

/**
 * One ISA's kernel table. All function pointers are non-null; ISAs without
 * a native variant of some kernel point at the scalar implementation.
 */
struct Kernels
{
    Isa isa;
    const char *name; //!< "scalar", "avx2", "neon"

    // --- GEMM register-tile micro-kernel --------------------------------
    std::int64_t mr; //!< rows of the register tile
    std::int64_t nr; //!< columns of the register tile
    /**
     * acc[mr x nr, row stride nr] += Ap panel * Bp panel over kc steps,
     * with the packed layouts ap[kk*mr + r], bp[kk*nr + c] produced by the
     * driver in tensor/ops.cpp (alpha pre-applied to Ap, zero padding past
     * the tile edges).
     */
    void (*gemmMicroKernel)(const float *ap, const float *bp,
                            std::int64_t kc, float *acc);

    /**
     * Sparse-A register-tile kernel for gemmSparseA (tensor/ops.cpp): one
     * compressed row of A meets one packed B panel. The row's nnz kept
     * entries arrive as packed words ents[] (column << 16 | table index;
     * columns ascending, all within [k0, k0 + kc) of the current K
     * block), their values decoded as table[index]; bp is the driver's
     * packed panel (bp[kk*nr + c] = B(k0 + kk, jq + c), the same layout
     * packB produces for the dense kernel), and the kernel accumulates
     * acc[c] += table[index_q] * bp[(column_q - k0)*nr + c] over the nnz
     * entries for c in [0, nr). Per entry it loads one word where a
     * value-plus-column layout loads two. nr is passed explicitly so one
     * scalar implementation can serve tables with different tile widths.
     */
    void (*gemmSparseMicroKernel)(const float *table,
                                  const std::uint32_t *ents,
                                  std::int64_t nnz, std::int64_t k0,
                                  const float *bp, std::int64_t nr,
                                  float *acc);

    /**
     * Multi-row sparse tile kernel for the grouped operand (see
     * GroupedSparseMatrix in tensor/ops.hpp): `mrows` compressed rows of A
     * (1 <= mrows <= kSparseMultiRowMr) share one ascending column pattern
     * kidx[0..nnz) (all within [k0, k0 + kc)); row r's kept values are
     * table[vidx[r*vstride + q]]. OVERWRITES the tile:
     *   acc[r*nr + c] = sum_q table[vidx[r*vstride + q]]
     *                         * bp[(kidx[q] - k0)*nr + c]
     * over the nnz shared entries for r in [0, mrows), c in [0, nr) —
     * acc is never read, so callers skip zero-filling it; cross-K-block
     * accumulation is the caller's job (the grouped driver folds each
     * tile contribution into C at its scatter). This
     * is the kernel that realizes MVQ's "one operand fetch serves many
     * accumulations" on the CPU: each packed B row loads once per tile
     * instead of once per row, amortizing the B-side traffic the
     * single-row kernel pays per entry.
     */
    void (*gemmSparseMultiRowMicroKernel)(const float *table,
                                          const std::uint16_t *vidx,
                                          std::int64_t vstride,
                                          std::int64_t mrows,
                                          const std::int32_t *kidx,
                                          std::int64_t nnz, std::int64_t k0,
                                          const float *bp, std::int64_t nr,
                                          float *acc);

    // --- Masked-assignment distance kernels (core/masked_kmeans) --------
    //
    // Both variants receive the codebook twice: row-major cb[i*d + t] and
    // transposed cbT[t*k + i]. Vector paths stride the transposed layout
    // to evaluate a full lane-width of codewords per instruction — no
    // gathers, no per-codeword horizontal sums — and fall back to cb for
    // the k % lanes tail; the scalar kernels ignore cbT. Ties resolve to
    // the lowest codeword index, matching the scalar first-minimum scan
    // (FMA contraction can still round a near-exact tie differently in
    // the last ULP across ISAs; cross-ISA agreement is a tested property
    // on real data, not a bitwise guarantee).
    /**
     * Full-row branchless variant: return the index i in [0, k) minimizing
     * sum_t mrow[t] * (wrow[t] - cb[i*d + t])^2 (first minimum wins).
     */
    std::int32_t (*assignBestDense)(const float *wrow, const float *mrow,
                                    const float *cb, const float *cbT,
                                    std::int64_t k, std::int64_t d);
    /**
     * Sparse compressed-row variant: the row's nk kept positions arrive as
     * ascending column indices idx[] with values wkeep[]. Returns the
     * index minimizing sum_q (wkeep[q] - cb[i*d + idx[q]])^2 over the
     * kept positions.
     */
    std::int32_t (*assignBestSparse)(const float *wkeep,
                                     const std::int32_t *idx,
                                     std::int64_t nk, const float *cb,
                                     const float *cbT, std::int64_t k,
                                     std::int64_t d);
};

/** @return true when this build carries the ISA and the CPU/OS supports it. */
bool isaAvailable(Isa isa);

/** Best ISA this host can run, ignoring any override: the detection order
 *  documented at the top of this file minus the env knob. */
Isa bestAvailableIsa();

/** Human-readable ISA name ("scalar", "avx2", "neon"). */
const char *isaName(Isa isa);

/**
 * The active kernel table. First call resolves the choice (env override,
 * then detection), logs it once via common/logging, and caches it; later
 * calls are a single atomic load. Thread-safe.
 */
const Kernels &kernels();

/** ISA of the active kernel table. */
Isa activeIsa();

/**
 * Programmatic override (the in-process form of MVQ_SIMD, used by tests
 * and benches to force a path). Returns false — leaving the active table
 * unchanged — when the ISA is unavailable. Call between kernel
 * invocations only; switching mid-gemm is undefined.
 */
bool setIsa(Isa isa);

// ----------------------------------------------------------------- internal
// Per-ISA registration, linked from the per-arch translation units. Each
// accessor returns nullptr when the build does not carry that ISA (e.g.
// the AVX2 TU compiles to a stub on aarch64). Not part of the public API.
const Kernels &scalarKernels();
const Kernels *avx2KernelsOrNull();
const Kernels *neonKernelsOrNull();

} // namespace mvq::simd

#endif // MVQ_COMMON_SIMD_DISPATCH_HPP
