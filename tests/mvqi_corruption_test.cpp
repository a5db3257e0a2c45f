/**
 * @file
 * Model-file corruption corpus: every malformed MVQI image or `.mvq`
 * stream must fail with a clear FatalError (or, for benign payload
 * flips, load correctly) — never undefined behaviour, never a crash,
 * never an escaped PanicError. The targeted cases pin one diagnostic each
 * (truncation, bad magic, any version but the one written, misaligned
 * sections, out-of-range TOC, inconsistent counts, a truncated operand
 * record table, codebook fields no decode can use (qbits outside
 * [0, 32], a NaN/infinite/non-positive scale, a codeword section whose
 * extent at the qbits-derived width runs off the file, a level outside
 * the qbits range), packed entries whose column or codebook index is
 * out of range or whose columns do not ascend, mask codes past C(M,N),
 * assignments past their codebook, subvector counts the kernel shape
 * contradicts); the deterministic byte-flip sweep over the image the
 * writer emits is the fuzz-style pass the ASan/UBSan CI job runs over
 * (mvqi_fuzz_test adds the structure-aware mutations).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"
#include "core/serialize.hpp"
#include "mvqi_test_util.hpp"
#include "nn/compressed_conv2d.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

const char *kPath = "/tmp/mvq_corruption_test.mvqi";
const char *kStreamPath = "/tmp/mvq_corruption_test.mvq";

std::vector<std::uint8_t>
validImage()
{
    static const std::vector<std::uint8_t> image =
        io::buildMvqiImage(makeGoldenModel(), goldenWriteOptions());
    return image;
}

/** Layer `i`'s TOC entry of an image. */
io::MvqiLayer
layerOf(const std::vector<std::uint8_t> &img, std::size_t i)
{
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    io::MvqiLayer L;
    std::memcpy(&L, img.data() + h.layer_toc_off + i * sizeof(L),
                sizeof(L));
    return L;
}

/** Operand record `g` of layer `i` of an image. */
io::MvqiOperand
operandOf(const std::vector<std::uint8_t> &img, std::size_t i,
          std::size_t g = 0)
{
    const io::MvqiLayer L = layerOf(img, i);
    io::MvqiOperand op;
    std::memcpy(&op, img.data() + L.operands_off + g * sizeof(op),
                sizeof(op));
    return op;
}

/** Entry `e` of an operand's remainder. */
std::uint32_t
entryAt(const std::vector<std::uint8_t> &img, const io::MvqiOperand &op,
        std::int64_t e)
{
    std::uint32_t w;
    std::memcpy(&w, img.data() + op.rem_entries.off + e * sizeof(w),
                sizeof(w));
    return w;
}

void
setEntry(std::vector<std::uint8_t> &img, const io::MvqiOperand &op,
         std::int64_t e, std::uint32_t w)
{
    std::memcpy(img.data() + op.rem_entries.off + e * sizeof(w), &w,
                sizeof(w));
}

void
writeBytes(const std::vector<std::uint8_t> &bytes, const char *path = kPath)
{
    core::writeBytes(bytes, path);
}

void
loadAndUse(const char *path = kPath)
{
    core::loadAndUse(path);
}

/** Expect a FatalError whose message mentions `needle`. */
void
expectFatal(const std::string &needle, const char *path = kPath)
{
    try {
        loadAndUse(path);
        FAIL() << "corrupt image loaded; expected FatalError mentioning '"
               << needle << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "got: " << e.what();
    }
}

class MvqiCorruptionTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        std::remove(kPath);
        std::remove(kStreamPath);
        fault::resetAll();
    }

    /** Patch `bytes` of the valid image at `off` and write it out. */
    void
    patch(std::size_t off, const void *p, std::size_t n)
    {
        std::vector<std::uint8_t> img = validImage();
        ASSERT_LT(off + n, img.size());
        std::memcpy(img.data() + off, p, n);
        writeBytes(img);
    }

    void
    patchU32(std::size_t off, std::uint32_t v)
    {
        patch(off, &v, sizeof(v));
    }

    void
    patchU64(std::size_t off, std::uint64_t v)
    {
        patch(off, &v, sizeof(v));
    }
};

TEST_F(MvqiCorruptionTest, ValidImagePasses)
{
    writeBytes(validImage());
    EXPECT_NO_THROW(loadAndUse());
}

TEST_F(MvqiCorruptionTest, TruncatedHeader)
{
    const auto img = validImage();
    writeBytes({img.begin(), img.begin() + 17});
    expectFatal("truncated");
}

TEST_F(MvqiCorruptionTest, TruncatedBody)
{
    const auto img = validImage();
    writeBytes({img.begin(), img.begin() + img.size() / 2});
    // The header's file_bytes no longer matches the actual size.
    expectFatal("size mismatch");
}

TEST_F(MvqiCorruptionTest, BadMagic)
{
    patchU32(0, 0xDEADBEEFu);
    // openArtifact cannot route an unknown magic to either backend.
    expectFatal("unknown model file magic");
}

TEST_F(MvqiCorruptionTest, WrongVersion)
{
    // Every version but the one written is refused up front, whatever the
    // records behind the header look like: the older layouts, the next
    // one, one far past it, and zero. The message names the file and the
    // rebuild from its `.mvq` stream.
    for (const std::uint32_t v : {0u, 1u, 2u, 3u, 5u, 10u}) {
        ASSERT_NE(v, io::kMvqiVersion);
        std::vector<std::uint8_t> img = validImage();
        std::memcpy(img.data() + 4, &v, sizeof(v));
        EXPECT_THROW(io::MvqiView(img.data(),
                                  static_cast<std::int64_t>(img.size()),
                                  "relabelled image"),
                     FatalError)
            << "version " << v;
        writeBytes(img);
        expectFatal("unsupported MVQI version " + std::to_string(v));
        expectFatal(kPath);
        expectFatal("mvqi convert model.mvq model.mvqi");
    }
}

TEST_F(MvqiCorruptionTest, TruncatedRecordTableRejected)
{
    // The last layer's operand records are the image's final section: cut
    // the file inside them and make file_bytes agree, so only the record
    // table bounds check stands between the reader and the missing bytes.
    std::vector<std::uint8_t> img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    const io::MvqiLayer last = layerOf(img, h.n_layers - 1);
    ASSERT_EQ(last.operands_off + last.groups * sizeof(io::MvqiOperand),
              img.size());
    img.resize(img.size() - sizeof(io::MvqiOperand) / 2);
    h.file_bytes = img.size();
    std::memcpy(img.data(), &h, sizeof(h));
    writeBytes(img);
    expectFatal("operand records");
}

TEST_F(MvqiCorruptionTest, MisalignedSection)
{
    // TOCs and codebooks keep the 64-byte rule: header offset 24 is
    // codebook_toc_off; knock it off 64-byte alignment.
    {
        const auto img = validImage();
        io::MvqiHeader h;
        std::memcpy(&h, img.data(), sizeof(h));
        patchU64(24, h.codebook_toc_off + 8);
        expectFatal("misaligned codebook TOC");
    }
    // Operand arrays need only their element size: moving the 4-byte
    // remainder entries by 2 bytes breaks that.
    {
        std::vector<std::uint8_t> img = validImage();
        const io::MvqiLayer L = layerOf(img, 0);
        io::MvqiOperand op = operandOf(img, 0);
        op.rem_entries.off += 2;
        std::memcpy(img.data() + L.operands_off, &op, sizeof(op));
        writeBytes(img);
        expectFatal("misaligned remainder entries");
    }
}

TEST_F(MvqiCorruptionTest, OutOfRangeToc)
{
    patchU64(32, 1ull << 40); // layer_toc_off far past EOF
    expectFatal("beyond the end");
}

TEST_F(MvqiCorruptionTest, HugeCountOverflowsSafely)
{
    // n_layers close to UINT32_MAX: the count x 200-byte TOC entry
    // computation must not overflow into an in-range value.
    patchU32(20, 0xFFFFFFF0u);
    expectFatal("extends past the end");
}

TEST_F(MvqiCorruptionTest, KernelShapeOverflowRejected)
{
    // Shape dims whose product overflows int64 (each is positive, so the
    // per-dim check passes): consumers multiply them out, and the view
    // must refuse the file before anyone does. Found by mvqi_fuzz_test
    // (UBSan: signed overflow in CompressedConv2d's unrolled-K product).
    std::vector<std::uint8_t> img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    const std::int64_t huge = std::int64_t{1} << 40;
    for (int j = 1; j < 4; ++j)
        std::memcpy(img.data() + h.layer_toc_off
                        + offsetof(io::MvqiLayer, shape) + 8 * j,
                    &huge, sizeof(huge));
    writeBytes(img);
    expectFatal("kernel shape overflows");
}

TEST_F(MvqiCorruptionTest, MaskCodeCountOverflowRejected)
{
    // d = 2^60 keeps d % M == 0, and ng * d/M (36 * 2^58) overflows
    // int64: the count check must reject the layer without computing it.
    // Found by mvqi_fuzz_test (UBSan: signed overflow in MvqiView).
    std::vector<std::uint8_t> img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    const std::int64_t huge_d = std::int64_t{1} << 60;
    std::memcpy(img.data() + h.layer_toc_off + sizeof(io::MvqiLayer)
                    + offsetof(io::MvqiLayer, d),
                &huge_d, sizeof(huge_d));
    writeBytes(img);
    expectFatal("mask-code count");
}

/** Byte offset of codebook `i`'s TOC entry field at `field_off`. */
std::size_t
codebookField(const std::vector<std::uint8_t> &img, std::size_t i,
              std::size_t field_off)
{
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    return h.codebook_toc_off + i * sizeof(io::MvqiCodebook) + field_off;
}

TEST_F(MvqiCorruptionTest, CodebookQbitsOutOfRangeRejected)
{
    const std::size_t at =
        codebookField(validImage(), 0, offsetof(io::MvqiCodebook, qbits));
    for (const std::int32_t q : {-1, 33, 1 << 30}) {
        patchU32(at, static_cast<std::uint32_t>(q));
        expectFatal("codebook 0 has invalid qbits " + std::to_string(q));
    }
}

TEST_F(MvqiCorruptionTest, CodebookScaleRejected)
{
    // Codebook 0 is quantized (qbits 8): a NaN or infinite scale would
    // decode every codeword to a non-finite value and poison every
    // output without a crash; zero or a negative scale is no grid.
    const std::size_t at =
        codebookField(validImage(), 0, offsetof(io::MvqiCodebook, scale));
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(), 0.0f,
                            -0.25f}) {
        patch(at, &bad, sizeof(bad));
        expectFatal("codebook 0 has invalid scale");
    }
    // Codebook 1 stores raw fp32 (qbits 0): its scale is never read.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    patch(codebookField(validImage(), 1, offsetof(io::MvqiCodebook, scale)),
          &nan, sizeof(nan));
    EXPECT_NO_THROW(loadAndUse());
}

TEST_F(MvqiCorruptionTest, CodewordExtentCheckedAtTheQbitsWidth)
{
    // Move codebook 0 (16 x 16 int8 levels, 256 B) to the last 64-byte
    // boundary where 256 B still fit. At qbits 8 that is in bounds; at
    // qbits 16 the same levels are 2-byte (512 B) and run off the file.
    std::vector<std::uint8_t> img = validImage();
    const std::uint64_t off = (img.size() - 256) / 64 * 64;
    ASSERT_GT(off + 512, img.size());
    std::memcpy(img.data()
                    + codebookField(img, 0,
                                    offsetof(io::MvqiCodebook,
                                             codewords_off)),
                &off, sizeof(off));
    EXPECT_NO_THROW(io::MvqiView(img.data(),
                                 static_cast<std::int64_t>(img.size()),
                                 "moved codebook"));
    const std::int32_t q16 = 16;
    std::memcpy(img.data()
                    + codebookField(img, 0, offsetof(io::MvqiCodebook, qbits)),
                &q16, sizeof(q16));
    writeBytes(img);
    expectFatal("codewords section (256 x 2 bytes");
}

TEST_F(MvqiCorruptionTest, CodewordLevelPastQbitsRejected)
{
    // Codebook 0's levels are -8..8 in int8 slots. Relabelled as 4-bit
    // (still one byte each), level 8 is outside [-8, 7]: the decode at
    // open refuses it instead of serving a value the writer never could.
    const std::int32_t q4 = 4;
    patch(codebookField(validImage(), 0, offsetof(io::MvqiCodebook, qbits)),
          &q4, sizeof(q4));
    expectFatal("has level 8, outside the 4-bit range [-8, 7]");
}

TEST_F(MvqiCorruptionTest, FileSizeFieldMismatch)
{
    patchU64(40, 123u);
    expectFatal("size mismatch");
}

TEST_F(MvqiCorruptionTest, PackedColumnPastColsRejected)
{
    // Give one remainder entry of layer 0 a column past the operand's
    // cols: structural bounds still pass, so this must be caught by the
    // O(nnz) semantic validation (validateGroupedOperand) and rewrapped
    // as a FatalError naming the file — the line that keeps the kernels
    // in bounds.
    std::vector<std::uint8_t> img = validImage();
    const io::MvqiOperand op = operandOf(img, 0);
    ASSERT_GT(op.rem_entries.count, 0);
    const std::int64_t last = op.rem_entries.count - 1;
    setEntry(img, op, last,
             packEntry(op.cols + 99, entryIndex(entryAt(img, op, last))));
    writeBytes(img);
    expectFatal("corrupt MVQI operand");
    expectFatal("out of range [0, " + std::to_string(op.cols) + ")");
}

TEST_F(MvqiCorruptionTest, TableIndexPastCodebookRejected)
{
    // An entry whose codebook index is k*d (one past layer 0's 16 x 16
    // codebook): the kernels would read past the codebook section.
    std::vector<std::uint8_t> img = validImage();
    const io::MvqiOperand op = operandOf(img, 0);
    ASSERT_GT(op.rem_entries.count, 0);
    setEntry(img, op, 0, packEntry(entryColumn(entryAt(img, op, 0)), 256));
    writeBytes(img);
    expectFatal("table index 256");
}

TEST_F(MvqiCorruptionTest, TileIndexPastCodebookRejected)
{
    // The same for a tile entry, wherever the image has a tile.
    std::vector<std::uint8_t> img = validImage();
    const io::MvqiLayer L = layerOf(img, 1);
    for (std::int32_t g = 0; g < L.groups; ++g) {
        const io::MvqiOperand op = operandOf(img, 1, g);
        if (op.tile_idx.count == 0)
            continue;
        const std::uint16_t bogus = 0xFFFF;
        std::memcpy(img.data() + op.tile_idx.off, &bogus, sizeof(bogus));
        writeBytes(img);
        expectFatal("tile table index 65535");
        return;
    }
    GTEST_SKIP() << "the golden image has no multi-row tiles";
}

TEST_F(MvqiCorruptionTest, ColumnsNotAscendingRejected)
{
    // Swap two adjacent entries of one remainder row: every column and
    // index stays in range, but the driver's binary search over a row's
    // columns needs them strictly ascending.
    std::vector<std::uint8_t> img = validImage();
    const io::MvqiOperand op = operandOf(img, 0);
    std::vector<std::int64_t> row_ptr(
        static_cast<std::size_t>(op.rem_row_ptr.count));
    std::memcpy(row_ptr.data(), img.data() + op.rem_row_ptr.off,
                row_ptr.size() * sizeof(std::int64_t));
    std::size_t r = 0;
    while (r + 1 < row_ptr.size() && row_ptr[r + 1] - row_ptr[r] < 2)
        ++r;
    ASSERT_LT(r + 1, row_ptr.size()) << "no row holds two entries";
    const std::int64_t e = row_ptr[r];
    const std::uint32_t a = entryAt(img, op, e);
    const std::uint32_t b = entryAt(img, op, e + 1);
    setEntry(img, op, e, b);
    setEntry(img, op, e + 1, a);
    writeBytes(img);
    expectFatal("columns not strictly ascending");
}

TEST_F(MvqiCorruptionTest, MaskCodeOutOfRangeRejected)
{
    // Layer 0 is 4:16, whose C(16,4) = 1820 masks are ranks 0..1819. The
    // baked operands never read mask codes, so 1820 surfaces when a
    // repack materializes the model — as a FatalError, before the mask
    // LUT is indexed.
    std::vector<std::uint8_t> img = validImage();
    const io::MvqiLayer L = layerOf(img, 0);
    const std::uint16_t bogus = 1820;
    std::memcpy(img.data() + L.mask_codes.off + 2 * sizeof(bogus), &bogus,
                sizeof(bogus));
    writeBytes(img);
    expectFatal("mask code 2 = 1820 is out of range for 4:16");
}

TEST_F(MvqiCorruptionTest, OpenFaultSiteFailsCleanlyOnValidImage)
{
    // The artifact.open fault site models the OS refusing the open or
    // mmap (ENOMEM, EMFILE, a vanished file): even with a perfectly valid
    // file on disk the open must fail as a diagnosed FatalError, and the
    // failure must not stick to the path — the next open serves
    // normally. Both formats go through the one checkpoint.
    writeBytes(validImage());
    writeBytes(serializeModel(makeGoldenModel()), kStreamPath);
    for (const char *path : {kPath, kStreamPath}) {
        fault::arm(fault::kArtifactOpen,
                   {/*nth=*/1, /*every=*/0, fault::FaultMode::Error});
        expectFatal("injected fault at artifact.open", path);
        EXPECT_NO_THROW(loadAndUse(path)) << path;
    }
}

TEST_F(MvqiCorruptionTest, StreamAssignmentPastCodebookRejected)
{
    // A layer whose k (and so its assignment width) exceeds its
    // codebook's: assignment 20 fits the 5-bit field but indexes past
    // the 16-entry codebook. The open must reject it before any pack.
    CompressedModel m = makeGoldenModel();
    m.layers[0].cfg.k = 32;
    m.layers[0].assignments[3] = 20;
    writeBytes(serializeModel(m), kStreamPath);
    expectFatal("out of range for its 16-entry codebook", kStreamPath);
}

TEST_F(MvqiCorruptionTest, StreamShortSubvectorCountRejected)
{
    // ng shorter than the [16, 2, 2, 2] kernel at d=16 implies (8): the
    // pack would walk assignments and mask bits past their end.
    CompressedModel m = makeGoldenModel();
    CompressedLayer &l = m.layers[0];
    l.assignments.resize(l.assignments.size() / 2);
    l.mask_codes.resize(l.mask_codes.size() / 2);
    writeBytes(serializeModel(m), kStreamPath);
    expectFatal("implies 8", kStreamPath);
}

TEST_F(MvqiCorruptionTest, ImageAssignmentFlipRejectedOnRepack)
{
    // Baked operands never read the assignments, so one flipped
    // assignment word is invisible until a non-baked group count
    // materializes the model and repacks from it.
    std::vector<std::uint8_t> img = validImage();
    const io::MvqiLayer L = layerOf(img, 0);
    img[L.assignments.off + 3 * sizeof(std::uint16_t) + 1] ^= 0xA5u;
    writeBytes(img);
    expectFatal("out of range for its 16-entry codebook");
}

TEST_F(MvqiCorruptionTest, TruncatedThenMmapThroughFaultSite)
{
    // A file that shrinks while being served: the first open dies at the
    // fault site (the "truncated under us" OS-level failure), and a real
    // truncated image behind it still fails structural validation after
    // the mmap succeeds. Both failures must be clean FatalErrors — the
    // mmap path may never SIGBUS or read past its mapping.
    const auto img = validImage();
    writeBytes({img.begin(), img.begin() + img.size() / 2});
    fault::arm(fault::kArtifactOpen,
               {/*nth=*/1, /*every=*/0, fault::FaultMode::Error});
    expectFatal("injected fault at artifact.open");
    expectFatal("size mismatch");

    // Same double failure for the borrow path on an intact image: the
    // injected borrow error surfaces, then the retry works.
    writeBytes(img);
    fault::arm(fault::kOperandBorrow,
               {/*nth=*/1, /*every=*/0, fault::FaultMode::Error});
    expectFatal("injected fault at artifact.operand_borrow");
    EXPECT_NO_THROW(loadAndUse());
}

TEST_F(MvqiCorruptionTest, DeterministicByteFlipSweep)
{
    // Fuzz-style negative corpus: XOR one byte at a stride of positions
    // across the whole image the writer emits. Every mutant must either
    // load + forward cleanly (flips in float payloads, names or padding
    // are benign) or fail with FatalError. Anything else — crash,
    // PanicError, UB under the sanitizer job — is a firewall bug.
    const std::vector<std::uint8_t> img = validImage();
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (std::size_t off = 0; off < img.size(); off += 37) {
        std::vector<std::uint8_t> mutant = img;
        mutant[off] ^= 0xA5u;
        writeBytes(mutant);
        try {
            loadAndUse();
            ++loaded;
        } catch (const FatalError &) {
            ++rejected;
        }
        // No other exception type may escape; PanicError or a signal here
        // fails the test (and trips ASan/UBSan in the sanitize job).
    }
    // The sweep must have exercised both outcomes.
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace mvq::core
