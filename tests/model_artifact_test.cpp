/**
 * @file
 * ModelArtifact API tests: stream<->mvqi round-trip bit-identity
 * (reconstructed tensors and forward outputs memcmp-equal under the
 * active MVQ_SIMD ISA), the `.mvq` open converting to an in-memory
 * image, borrowed-view vs owned-operand forward identity,
 * operand sharing/caching, mapping lifetime, the aligned-heap fallback,
 * the checked-in golden fixture pinning MVQI format v3 byte-for-byte, and
 * the frozen v1 and v2 fixtures still loading, forwarding and upgrading.
 *
 * Regenerate the v3 fixture (after an *intentional* format change — bump
 * kMvqiVersion!) with:  MVQ_WRITE_GOLDEN=1 ./model_artifact_test
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/simd_dispatch.hpp"
#include "core/io/model_artifact.hpp"
#include "core/serialize.hpp"
#include "mvqi_test_util.hpp"
#include "nn/compressed_conv2d.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

std::string
tmpPath(const char *name)
{
    return std::string("/tmp/") + name;
}

bool
tensorsBitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
        && std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float))
            == 0;
}

/** Forward an NCHW probe through layer `i` of an artifact. */
Tensor
forwardLayer(const io::ModelArtifact &art, std::int64_t i,
             std::int64_t groups, std::int64_t hw)
{
    const Shape ws = art.layerShape(i);
    nn::CompressedConv2d conv(art.layerName(i), ws,
                              art.packedOperands(i, groups), 1, 1);
    Tensor x(Shape({2, ws.dim(1) * groups, hw, hw}));
    Rng rng(901 + i);
    x.fillNormal(rng, 0.0f, 1.0f);
    return conv.forward(x);
}

class ModelArtifactTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        model_ = makeGoldenModel();
        stream_path_ = tmpPath("mvq_artifact_test.mvq");
        image_path_ = tmpPath("mvq_artifact_test.mvqi");
        io::saveArtifact(model_, stream_path_,
                         io::ArtifactFormat::Stream);
        io::saveArtifact(model_, image_path_, io::ArtifactFormat::Mvqi,
                         goldenWriteOptions());
    }

    void
    TearDown() override
    {
        std::remove(stream_path_.c_str());
        std::remove(image_path_.c_str());
    }

    CompressedModel model_;
    std::string stream_path_;
    std::string image_path_;
};

TEST_F(ModelArtifactTest, OpenSniffsFormat)
{
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    EXPECT_EQ(s->format(), io::ArtifactFormat::Stream);
    EXPECT_EQ(m->format(), io::ArtifactFormat::Mvqi);
    EXPECT_EQ(s->layerCount(), 2);
    EXPECT_EQ(m->layerCount(), 2);
    EXPECT_EQ(m->layerName(1), "conv1_grouped");
    EXPECT_EQ(m->layerShape(1), Shape({16, 4, 3, 3}));
    EXPECT_EQ(m->bakedGroups(0), 1);
    EXPECT_EQ(m->bakedGroups(1), 2);
    // A `.mvq` file converts to an image packed at groups = 1, yet still
    // reports its own format and on-disk size.
    EXPECT_EQ(s->bakedGroups(0), 1);
    EXPECT_EQ(s->bakedGroups(1), 1);
    EXPECT_EQ(s->sizeBytes(),
              static_cast<std::int64_t>(serializeModel(model_).size()));
    EXPECT_FALSE(s->mapped());
}

TEST_F(ModelArtifactTest, RoundTripReconstructionBitIdentity)
{
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    for (std::int64_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(tensorsBitIdentical(s->model().reconstructLayer(i),
                                        m->model().reconstructLayer(i)))
            << "layer " << i;
        EXPECT_TRUE(tensorsBitIdentical(model_.reconstructLayer(i),
                                        m->model().reconstructLayer(i)))
            << "layer " << i;
    }
    EXPECT_EQ(m->model().storage().totalBits(),
              model_.storage().totalBits());
}

TEST_F(ModelArtifactTest, RoundTripForwardBitIdentity)
{
    // Forward outputs from the mapped image must memcmp-equal the stream
    // path under the active ISA (covers every MVQ_SIMD via the CI
    // matrix), for both the plain and the grouped conv layer.
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 0, 1, 6),
                                    forwardLayer(*m, 0, 1, 6)));
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 1, 2, 6),
                                    forwardLayer(*m, 1, 2, 6)));
}

TEST_F(ModelArtifactTest, BorrowedViewsAliasTheImageZeroCopy)
{
    // Both opens serve borrowed views: into the mapping for the image,
    // into the converted in-memory image for the stream.
    for (const std::string &path : {image_path_, stream_path_}) {
        const auto art = io::openArtifact(path);
        const auto *base = art->view().data();
        const auto *end = base + art->view().size();
        for (std::int64_t i = 0; i < art->layerCount(); ++i) {
            const io::SharedOperands ops = art->packedOperands(i);
            for (const GroupedSparseMatrix &g : *ops) {
                // Borrowed mode, and every array points into the image —
                // no packGroupedRows at borrow time, no copies.
                EXPECT_TRUE(g.remainder.row_ptr.borrowed()) << path;
                EXPECT_TRUE(g.remainder.col_idx.borrowed()) << path;
                EXPECT_TRUE(g.table().borrowed()) << path;
                EXPECT_TRUE(g.tiles.borrowed()) << path;
                EXPECT_TRUE(g.vals.borrowed()) << path;
                EXPECT_TRUE(g.band_ptr.borrowed()) << path;
                const auto *p = reinterpret_cast<const std::uint8_t *>(
                    g.remainder.row_ptr.data());
                EXPECT_TRUE(p >= base && p <= end) << path;
                // The value table is the layer's codebook section.
                const io::MvqiCodebook &cb = art->view().codebook(
                    art->view().layer(i).codebook_id);
                EXPECT_EQ(reinterpret_cast<const std::uint8_t *>(
                              g.table().data()),
                          base + cb.codewords_off)
                    << path;
                EXPECT_EQ(static_cast<std::int64_t>(g.table().size()),
                          cb.k * cb.d)
                    << path;
                EXPECT_TRUE(g.validated) << path;
            }
        }
    }
}

TEST_F(ModelArtifactTest, BorrowedVsOwnedForwardMemcmp)
{
    const auto art = io::openArtifact(image_path_);
    for (std::int64_t i = 0; i < 2; ++i) {
        const std::int64_t groups = art->bakedGroups(i);
        // Owned operand: packed fresh from the in-memory model.
        const CompressedLayer &cl =
            model_.layers[static_cast<std::size_t>(i)];
        nn::CompressedConv2d owned(
            cl, model_.codebooks[static_cast<std::size_t>(cl.codebook_id)],
            1, 1, groups);
        nn::CompressedConv2d borrowed(art->layerName(i),
                                      art->layerShape(i),
                                      art->packedOperands(i), 1, 1);
        Tensor x(Shape({1, art->layerShape(i).dim(1) * groups, 7, 7}));
        Rng rng(31 + i);
        x.fillNormal(rng, 0.0f, 1.0f);
        EXPECT_TRUE(tensorsBitIdentical(owned.forward(x),
                                        borrowed.forward(x)))
            << "layer " << i;
        EXPECT_DOUBLE_EQ(owned.density(), borrowed.density());
    }
}

TEST_F(ModelArtifactTest, PackedOperandsAreCachedAndShared)
{
    const auto art = io::openArtifact(image_path_);
    const io::SharedOperands a = art->packedOperands(0);
    const io::SharedOperands b = art->packedOperands(0);
    EXPECT_EQ(a.get(), b.get()) << "cache must hand out one operand set";

    // N conv instances share the one set through the injected ctor.
    nn::CompressedConv2d c1(art->layerName(0), art->layerShape(0), a, 1, 1);
    nn::CompressedConv2d c2(art->layerName(0), art->layerShape(0),
                            c1.packedOperands(), 1, 1);
    EXPECT_EQ(c1.packedOperands().get(), c2.packedOperands().get());
}

TEST_F(ModelArtifactTest, SharedOperandsOutliveTheArtifact)
{
    // The aliasing shared_ptr keeps the mapping alive after the artifact
    // handle is gone.
    io::SharedOperands ops;
    Shape ws;
    std::string name;
    {
        const auto art = io::openArtifact(image_path_);
        ops = art->packedOperands(0);
        ws = art->layerShape(0);
        name = art->layerName(0);
    }
    nn::CompressedConv2d conv(name, ws, ops, 1, 1);
    Tensor x(Shape({1, ws.dim(1), 5, 5}));
    Rng rng(5);
    x.fillNormal(rng, 0.0f, 1.0f);
    EXPECT_GT(conv.forward(x).numel(), 0);
}

TEST_F(ModelArtifactTest, HeapFallbackMatchesMmap)
{
    const bool saved = io::mvqiHeapFallback();
    io::setMvqiHeapFallback(false);
    const Tensor mapped = forwardLayer(*io::openArtifact(image_path_), 0,
                                       1, 5);
    io::setMvqiHeapFallback(true);
    const auto art = io::openArtifact(image_path_);
    EXPECT_FALSE(art->mapped());
    const Tensor heap = forwardLayer(*art, 0, 1, 5);
    io::setMvqiHeapFallback(saved);
    EXPECT_TRUE(tensorsBitIdentical(mapped, heap));
}

TEST_F(ModelArtifactTest, NonBakedGroupCountFallsBackCorrectly)
{
    // Asking the MVQI artifact for a group count it did not bake is
    // correct (repacks from the materialized model), just not zero-copy.
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 1, 1, 6),
                                    forwardLayer(*m, 1, 1, 6)));
    EXPECT_FALSE(
        (*m->packedOperands(1, 1))[0].remainder.row_ptr.borrowed());
}

/** Expect buildMvqiImage to fail naming `layer` and `needle`. */
void
expectWriterRejects(const CompressedModel &m, const std::string &layer,
                    const std::string &needle)
{
    try {
        io::buildMvqiImage(m);
        FAIL() << "writer accepted a layer past the 16-bit limits";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(layer), std::string::npos) << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

TEST(MvqiWriter, RejectsLayersPastThe16BitLimits)
{
    // Conv-group gemm K = 4096 * 4 * 4 = 65,536 does not fit a 16-bit
    // column.
    {
        CompressedModel m = makeGoldenModel();
        CompressedLayer &l = m.layers[0];
        l.weight_shape = Shape({16, 4096, 4, 4});
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        l.assignments.assign(static_cast<std::size_t>(ng), 0);
        l.mask_codes.assign(static_cast<std::size_t>(ng), 0);
        expectWriterRejects(m, "conv0", "16-bit column limit");
    }
    // A codebook of 4097 x 16 = 65,552 values does not fit a 16-bit
    // index.
    {
        CompressedModel m = makeGoldenModel();
        m.codebooks[0].codewords = Tensor(Shape({4097, 16}));
        expectWriterRejects(m, "conv0", "16-bit table limit");
    }
    // 12:24 has C(24,12) = 2,704,156 mask codes.
    {
        CompressedModel m;
        Codebook cb;
        cb.codewords = Tensor(Shape({1, 24}));
        m.codebooks.push_back(cb);
        CompressedLayer l;
        l.name = "wide_mask";
        l.weight_shape = Shape({24, 1, 1, 1});
        l.cfg.k = 1;
        l.cfg.d = 24;
        l.cfg.pattern = NmPattern{12, 24};
        l.assignments = {0};
        l.mask_codes = {0};
        m.layers.push_back(l);
        expectWriterRejects(m, "wide_mask", "16-bit mask field");
    }
}

TEST(MvqiGolden, FixturePinsFormatV3)
{
    // Byte-for-byte lock on the checked-in v3 image. If this fails you
    // changed the on-disk layout: bump kMvqiVersion, update
    // docs/FORMAT.md, and regenerate with MVQ_WRITE_GOLDEN=1.
    const std::string golden_path = goldenPath("golden_v3.mvqi");
    const std::vector<std::uint8_t> image =
        io::buildMvqiImage(makeGoldenModel(), goldenWriteOptions());

    if (env::isSet("MVQ_WRITE_GOLDEN")) {
        std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out.write(reinterpret_cast<const char *>(image.data()),
                  static_cast<std::streamsize>(image.size()));
        GTEST_SKIP() << "regenerated " << golden_path;
    }

    const std::vector<std::uint8_t> golden = readBytes(golden_path);
    ASSERT_EQ(image.size(), golden.size());
    EXPECT_EQ(std::memcmp(image.data(), golden.data(), image.size()), 0)
        << "MVQI writer output drifted from the v3 fixture";
}

/** The frozen fixtures of the older versions, oldest first. */
constexpr const char *kOldFixtures[] = {"golden_v1.mvqi", "golden_v2.mvqi"};

TEST(MvqiGolden, OldFixturesLoadThroughTheRepackPath)
{
    // v1/v2 operand records hold fp32 values, not codebook indices, so a
    // reader bounds-checks and ignores them: every layer is repacked from
    // the image's assignments and mask codes (owned operands sharing one
    // codebook table per layer), exactly like a non-baked group count.
    std::uint32_t version = 1;
    for (const char *name : kOldFixtures) {
        const auto art = io::openArtifact(goldenPath(name));
        ASSERT_EQ(art->layerCount(), 2);
        EXPECT_EQ(art->view().header().version, version++);
        EXPECT_FALSE(art->view().bakedOperandsServable());
        for (std::int64_t i = 0; i < art->layerCount(); ++i) {
            const io::SharedOperands ops = art->packedOperands(i);
            ASSERT_EQ(static_cast<std::int64_t>(ops->size()),
                      art->bakedGroups(i));
            for (const GroupedSparseMatrix &g : *ops) {
                EXPECT_FALSE(g.remainder.row_ptr.borrowed()) << name;
                EXPECT_TRUE(g.validated) << name;
                // All groups of one layer share one table.
                EXPECT_EQ(g.table().data(), ops->front().table().data());
            }
        }
    }
}

TEST(MvqiGolden, OldFixturesForwardMatchV3ImagePerIsa)
{
    // The repacked operands of the v1/v2 fixtures and the borrowed
    // operands of the v3 image are the same operands, so forwards
    // memcmp-match on every ISA.
    const simd::Isa saved = simd::activeIsa();
    const std::string v3_path = tmpPath("mvq_golden_v3_isa.mvqi");
    io::saveArtifact(makeGoldenModel(), v3_path, io::ArtifactFormat::Mvqi,
                     goldenWriteOptions());
    const auto v3 = io::openArtifact(v3_path);
    ASSERT_EQ(v3->view().header().version, io::kMvqiVersion);
    for (const char *name : kOldFixtures) {
        const auto old = io::openArtifact(goldenPath(name));
        for (simd::Isa isa :
             {simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Neon}) {
            if (!simd::isaAvailable(isa))
                continue;
            ASSERT_TRUE(simd::setIsa(isa));
            for (std::int64_t i = 0; i < 2; ++i) {
                const std::int64_t groups = v3->bakedGroups(i);
                EXPECT_TRUE(tensorsBitIdentical(
                    forwardLayer(*old, i, groups, 6),
                    forwardLayer(*v3, i, groups, 6)))
                    << name << " " << simd::isaName(isa) << " layer " << i;
            }
        }
    }
    simd::setIsa(saved);
    std::remove(v3_path.c_str());
}

TEST(MvqiGolden, OldFixturesUpgradeToTheV3Fixture)
{
    // Re-encoding an old fixture's model (at its baked groups) writes the
    // v3 image of the model it was built from, byte for byte — the
    // one-step `mvqi convert` upgrade.
    const std::vector<std::uint8_t> golden =
        readBytes(goldenPath("golden_v3.mvqi"));
    const std::string out_path = tmpPath("mvq_golden_upgraded.mvqi");
    for (const char *name : kOldFixtures) {
        io::saveArtifact(io::openArtifact(goldenPath(name))->model(),
                         out_path, io::ArtifactFormat::Mvqi,
                         goldenWriteOptions());
        EXPECT_EQ(readBytes(out_path), golden) << name;
    }
    std::remove(out_path.c_str());
}

TEST(MvqiGolden, SectionsSumToTheFileSize)
{
    // `mvqi info`'s split: every byte in exactly one section kind, in
    // every version.
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<io::MvqiSectionBytes> s;
    for (const char *name :
         {"golden_v1.mvqi", "golden_v2.mvqi", "golden_v3.mvqi"}) {
        bytes.push_back(readBytes(goldenPath(name)));
        const io::MvqiView view(bytes.back().data(),
                                static_cast<std::int64_t>(
                                    bytes.back().size()),
                                name);
        s.push_back(io::mvqiSectionBytes(view));
        EXPECT_EQ(s.back().total(), view.size()) << name;
    }
    const io::MvqiView view1(bytes[0].data(),
                             static_cast<std::int64_t>(bytes[0].size()),
                             "golden_v1");
    // v1's copy: row_ptr (rows+1 x i64) plus an i32 column and an f32
    // value per kept weight, for each of the three operands (16 rows in
    // one group, then 8 rows in each of two). v2 dropped it; v1 and v2
    // agree on everything else but the 48 bytes per record the copy's
    // fields took.
    ASSERT_EQ(view1.layer(1).groups, 2);
    std::int64_t kept = 0;
    for (const CompressedLayer &cl : makeGoldenModel().layers)
        kept += cl.ng() * cl.cfg.d * cl.cfg.pattern.n / cl.cfg.pattern.m;
    EXPECT_EQ(s[0].full_csr, (17 + 9 + 9) * 8 + kept * 8);
    EXPECT_EQ(s[1].full_csr, 0);
    EXPECT_EQ(s[2].full_csr, 0);
    EXPECT_EQ(s[0].tiles, s[1].tiles);
    EXPECT_EQ(s[0].remainder, s[1].remainder);
    EXPECT_EQ(s[0].records - s[1].records, 3 * (176 - 128));
    // v3: the same codebooks, 16-bit symbols, 112-byte records, and one
    // 4-byte word per kept weight instead of an 8-byte column + value.
    for (const io::MvqiSectionBytes &old : {s[0], s[1]}) {
        EXPECT_EQ(old.codebooks, s[2].codebooks);
        EXPECT_EQ(old.assignments, 2 * s[2].assignments);
        EXPECT_EQ(old.mask_codes, 2 * s[2].mask_codes);
    }
    EXPECT_EQ(s[1].records - s[2].records, 3 * (128 - 112));
    EXPECT_GT(s[2].remainder, 0);
    EXPECT_LT(s[2].remainder + s[2].tiles, s[1].remainder + s[1].tiles);
    EXPECT_LT(s[2].padding, s[1].padding);
}

} // namespace
} // namespace mvq::core
