/**
 * @file
 * ModelArtifact API tests: stream<->mvqi round-trip bit-identity
 * (reconstructed tensors and forward outputs memcmp-equal under the
 * active MVQ_SIMD ISA), the `.mvq` open converting to an in-memory
 * image, borrowed-view vs owned-operand forward identity,
 * operand sharing/caching, mapping lifetime, the aligned-heap fallback,
 * the checked-in golden fixture pinning MVQI format v2 byte-for-byte, and
 * the frozen v1 fixture still loading, forwarding and upgrading.
 *
 * Regenerate the v2 fixture (after an *intentional* format change — bump
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
                EXPECT_TRUE(g.remainder.values.borrowed()) << path;
                EXPECT_TRUE(g.tiles.borrowed()) << path;
                EXPECT_TRUE(g.band_ptr.borrowed()) << path;
                const auto *p = reinterpret_cast<const std::uint8_t *>(
                    g.remainder.row_ptr.data());
                EXPECT_TRUE(p >= base && p <= end) << path;
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

TEST(MvqiGolden, FixturePinsFormatV2)
{
    // Byte-for-byte lock on the checked-in v2 image. If this fails you
    // changed the on-disk layout: bump kMvqiVersion, update
    // docs/FORMAT.md, and regenerate with MVQ_WRITE_GOLDEN=1.
    const std::string golden_path = goldenPath("golden_v2.mvqi");
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
        << "MVQI writer output drifted from the v2 fixture";
}

TEST(MvqiGolden, FixtureLoadsAndForwards)
{
    // The frozen v1 fixture is not just bytes: it must open, validate,
    // and serve borrowed operands that forward bit-identically to a
    // fresh image.
    const auto art = io::openArtifact(goldenPath("golden_v1.mvqi"));
    ASSERT_EQ(art->layerCount(), 2);
    EXPECT_EQ(art->view().header().version, 1u);

    const std::string fresh_path = tmpPath("mvq_golden_fresh.mvqi");
    io::saveArtifact(makeGoldenModel(), fresh_path,
                     io::ArtifactFormat::Mvqi, goldenWriteOptions());
    const auto fresh = io::openArtifact(fresh_path);
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*art, 0, 1, 6),
                                    forwardLayer(*fresh, 0, 1, 6)));
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*art, 1, 2, 6),
                                    forwardLayer(*fresh, 1, 2, 6)));
    std::remove(fresh_path.c_str());
}

TEST(MvqiGolden, V1FixtureForwardsMatchV2ImagePerIsa)
{
    // The v1 record's extra full CSR is never read: both versions serve
    // the same tiles + remainder, so forwards memcmp-match on every ISA.
    const simd::Isa saved = simd::activeIsa();
    const auto v1 = io::openArtifact(goldenPath("golden_v1.mvqi"));
    const std::string v2_path = tmpPath("mvq_golden_v2_isa.mvqi");
    io::saveArtifact(makeGoldenModel(), v2_path, io::ArtifactFormat::Mvqi,
                     goldenWriteOptions());
    const auto v2 = io::openArtifact(v2_path);
    ASSERT_EQ(v2->view().header().version, io::kMvqiVersion);
    for (simd::Isa isa :
         {simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Neon}) {
        if (!simd::isaAvailable(isa))
            continue;
        ASSERT_TRUE(simd::setIsa(isa));
        for (std::int64_t i = 0; i < 2; ++i) {
            const std::int64_t groups = v2->bakedGroups(i);
            EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*v1, i, groups, 6),
                                            forwardLayer(*v2, i, groups, 6)))
                << simd::isaName(isa) << " layer " << i;
        }
    }
    simd::setIsa(saved);
    std::remove(v2_path.c_str());
}

TEST(MvqiGolden, V1FixtureUpgradesToTheV2Image)
{
    // Re-encoding the v1 fixture's model (at its baked groups) writes the
    // v2 image of the model it was built from, byte for byte — the
    // one-step `mvqi convert` upgrade.
    const std::string out_path = tmpPath("mvq_golden_upgraded.mvqi");
    io::saveArtifact(
        io::openArtifact(goldenPath("golden_v1.mvqi"))->model(), out_path,
        io::ArtifactFormat::Mvqi, goldenWriteOptions());
    const std::vector<std::uint8_t> upgraded = readBytes(out_path);
    const std::vector<std::uint8_t> image =
        io::buildMvqiImage(makeGoldenModel(), goldenWriteOptions());
    EXPECT_EQ(upgraded, image);
    std::remove(out_path.c_str());
}

TEST(MvqiGolden, SectionsSumToTheFileSize)
{
    // `mvqi info`'s split: every byte in exactly one section kind. Both
    // versions hold the same codebooks, symbols, tiles and remainder; v1
    // adds the full CSR copy and 48 more bytes per operand record.
    const std::vector<std::uint8_t> v1 =
        readBytes(goldenPath("golden_v1.mvqi"));
    const std::vector<std::uint8_t> v2 =
        readBytes(goldenPath("golden_v2.mvqi"));
    const io::MvqiView view1(v1.data(),
                             static_cast<std::int64_t>(v1.size()),
                             "golden_v1");
    const io::MvqiView view2(v2.data(),
                             static_cast<std::int64_t>(v2.size()),
                             "golden_v2");
    const io::MvqiSectionBytes s1 = io::mvqiSectionBytes(view1);
    const io::MvqiSectionBytes s2 = io::mvqiSectionBytes(view2);
    EXPECT_EQ(s1.total(), view1.size());
    EXPECT_EQ(s2.total(), view2.size());
    // v1's copy: row_ptr (rows+1 x i64) plus an i32 column and an f32
    // value per kept weight, for each operand.
    std::int64_t full_csr = 0;
    for (std::int64_t i = 0; i < view1.layerCount(); ++i)
        for (std::int64_t g = 0; g < view1.layer(i).groups; ++g) {
            const io::MvqiOperand op = view1.operand(i, g);
            full_csr += (op.rows + 1) * 8
                + (op.tile_vals.count + op.rem_values.count) * 8;
        }
    EXPECT_EQ(s1.full_csr, full_csr);
    EXPECT_EQ(s2.full_csr, 0);
    EXPECT_EQ(s1.codebooks, s2.codebooks);
    EXPECT_EQ(s1.assignments, s2.assignments);
    EXPECT_EQ(s1.mask_codes, s2.mask_codes);
    EXPECT_EQ(s1.tiles, s2.tiles);
    EXPECT_EQ(s1.remainder, s2.remainder);
    EXPECT_GT(s2.remainder, 0);
    // Three operand records (one + two groups), 176 vs 128 bytes each.
    EXPECT_EQ(s1.records - s2.records, 3 * (176 - 128));
}

} // namespace
} // namespace mvq::core
