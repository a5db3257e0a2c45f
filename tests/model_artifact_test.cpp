/**
 * @file
 * ModelArtifact API tests: stream<->mvqi round-trip bit-identity
 * (reconstructed tensors and forward outputs memcmp-equal under the
 * active MVQ_SIMD ISA), the `.mvq` open converting to an in-memory
 * image, borrowed-view vs owned-operand forward identity,
 * operand sharing/caching, mapping and table lifetime, the aligned-heap
 * fallback, codebook levels round-tripping bit for bit at every stored
 * width, the writer refusing off-grid codewords, the checked-in golden
 * fixture pinning MVQI format v4 byte-for-byte, and the `.mvq` stream
 * rebuilding that fixture exactly.
 *
 * Regenerate the v4 fixture (after an *intentional* format change — bump
 * kMvqiVersion!) with:  MVQ_WRITE_GOLDEN=1 ./model_artifact_test
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "core/codebook.hpp"
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

/** True when [p, p + bytes) lies inside the artifact's image. */
template <typename T>
bool
insideImage(const io::ModelArtifact &art, const OperandArray<T> &a)
{
    const auto *base = art.view().data();
    const auto *p = reinterpret_cast<const std::uint8_t *>(a.data());
    return a.empty()
        || (p >= base && p + a.size() * sizeof(T) <= base + art.view().size());
}

TEST_F(ModelArtifactTest, BorrowedViewsAliasTheImageZeroCopy)
{
    // Both opens serve borrowed views: into the mapping for the image,
    // into the converted in-memory image for the stream.
    CompressedModel one_book = model_;
    one_book.layers[1].codebook_id = 0; // two layers on one codebook
    one_book.layers[1].cfg.k = 16;
    const std::string shared_path = tmpPath("mvq_artifact_shared.mvqi");
    io::saveArtifact(one_book, shared_path, io::ArtifactFormat::Mvqi,
                     goldenWriteOptions());
    for (const std::string &path : {image_path_, stream_path_, shared_path}) {
        const auto art = io::openArtifact(path);
        for (std::int64_t i = 0; i < art->layerCount(); ++i) {
            const io::SharedOperands ops = art->packedOperands(i);
            const std::int64_t book = art->view().layer(i).codebook_id;
            const io::CodebookTable table = art->codebookTable(book);
            for (const GroupedSparseMatrix &g : *ops) {
                // Borrowed mode, and every operand array points into the
                // image — no packGroupedRows at borrow time, no copies.
                EXPECT_TRUE(g.remainder.row_ptr.borrowed()) << path;
                EXPECT_TRUE(g.remainder.col_idx.borrowed()) << path;
                EXPECT_TRUE(g.tiles.borrowed()) << path;
                EXPECT_TRUE(g.vals.borrowed()) << path;
                EXPECT_TRUE(g.band_ptr.borrowed()) << path;
                EXPECT_TRUE(insideImage(*art, g.remainder.row_ptr)) << path;
                EXPECT_TRUE(insideImage(*art, g.remainder.col_idx)) << path;
                EXPECT_TRUE(insideImage(*art, g.tiles)) << path;
                EXPECT_TRUE(insideImage(*art, g.cols)) << path;
                EXPECT_TRUE(insideImage(*art, g.vals)) << path;
                EXPECT_TRUE(insideImage(*art, g.band_ptr)) << path;
                // The value table is the codebook decoded at open: one
                // table per codebook, whichever layer or group reads it.
                EXPECT_TRUE(g.table().borrowed()) << path;
                EXPECT_EQ(g.table().data(), table->data()) << path;
                EXPECT_EQ(g.table().size(), table->size()) << path;
                EXPECT_TRUE(g.validated) << path;
            }
        }
        if (path == shared_path) {
            EXPECT_EQ((*art->packedOperands(0))[0].table().data(),
                      (*art->packedOperands(1))[1].table().data());
        }
    }
    std::remove(shared_path.c_str());
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
    // The aliasing shared_ptr keeps the mapping and the decoded codebook
    // table alive after the artifact handle is gone; the forward reads
    // both (ASan would flag a freed table), and matches the forward taken
    // while the artifact was open.
    io::SharedOperands ops;
    Shape ws;
    std::string name;
    Tensor open_y;
    Tensor x(Shape({1, 2, 5, 5}));
    Rng rng(5);
    x.fillNormal(rng, 0.0f, 1.0f);
    {
        const auto art = io::openArtifact(image_path_);
        ops = art->packedOperands(0);
        ws = art->layerShape(0);
        name = art->layerName(0);
        open_y = nn::CompressedConv2d(name, ws, ops, 1, 1).forward(x);
    }
    const Tensor &cw = model_.codebooks[0].codewords;
    const OperandArray<float> &table = (*ops)[0].table();
    ASSERT_EQ(static_cast<std::int64_t>(table.size()), cw.numel());
    EXPECT_EQ(std::memcmp(table.data(), cw.data(),
                          table.size() * sizeof(float)),
              0);
    nn::CompressedConv2d conv(name, ws, ops, 1, 1);
    EXPECT_TRUE(tensorsBitIdentical(conv.forward(x), open_y));
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
                    const std::string &needle,
                    const io::MvqiWriteOptions &opts = {})
{
    try {
        io::buildMvqiImage(m, opts);
        FAIL() << "writer accepted layer " << layer;
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(layer), std::string::npos) << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

/** Expect the `.mvq` stream writer to fail naming codebook 0 and
 *  `needle`: it shares the MVQI writer's level encoder (encodeLevels). */
void
expectStreamWriterRejects(const CompressedModel &m, const std::string &needle)
{
    try {
        serializeModel(m);
        FAIL() << "stream writer accepted codebook 0";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("codebook 0"), std::string::npos) << what;
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

TEST(MvqiWriter, RejectsGroupsForUnknownLayers)
{
    // A misspelt layer name must not silently bake groups 1 (the served
    // conv would then repack at first use instead of borrowing).
    io::MvqiWriteOptions opts = goldenWriteOptions();
    opts.layer_groups["conv1_grupped"] = 2;
    expectWriterRejects(makeGoldenModel(), "conv1_grupped",
                        "model does not have", opts);
}

TEST(MvqiWriter, RejectsOffGridCodewords)
{
    // Both formats store levels, so a quantized codeword that is not
    // exactly level * scale could not come back: each writer refuses it,
    // naming the codebook and the codeword.
    {
        CompressedModel m = makeGoldenModel();
        m.codebooks[0].codewords[5] += 0.125f; // half a 0.25 step
        expectWriterRejects(m, "codebook 0", "codeword 5");
        expectWriterRejects(m, "codebook 0", "not on its 8-bit grid");
        expectStreamWriterRejects(m, "codeword 5");
    }
    // A level past the qbits range is off the grid too: codeword 16 is
    // 8 * 0.25, and 4 bits hold [-8, 7].
    {
        CompressedModel m = makeGoldenModel();
        m.codebooks[0].qbits = 4;
        expectWriterRejects(m, "codebook 0", "codeword 16");
        expectStreamWriterRejects(m, "codeword 16");
    }
    // Levels need a finite scale > 0.
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(), 0.0f,
                            -0.25f}) {
        CompressedModel m = makeGoldenModel();
        m.codebooks[0].scale = bad;
        expectWriterRejects(m, "codebook 0", "finite scale > 0");
        expectStreamWriterRejects(m, "finite scale > 0");
    }
    // An unquantized codebook is stored raw: any value goes.
    CompressedModel m = makeGoldenModel();
    m.codebooks[1].codewords[3] = 0.1f;
    EXPECT_NO_THROW(io::buildMvqiImage(m, goldenWriteOptions()));
    EXPECT_NO_THROW(serializeModel(m));
}

TEST(MvqiCodebookLevels, RoundTripBitExactAtEveryWidth)
{
    // Per stored width (fp32 at qbits 0, int8, int16): the table the
    // artifact decodes at open is the `.mvq` decode's codewords bit for
    // bit, and so is the in-memory model quantizeCodebook snapped; the
    // image's forward memcmp-equals runtime-packed operands under the
    // active ISA.
    const std::string path = tmpPath("mvq_levels_roundtrip.mvqi");
    for (const int qbits : {0, 2, 4, 8, 12, 16}) {
        SCOPED_TRACE("qbits " + std::to_string(qbits));
        CompressedModel m = makeGoldenModel();
        m.layers.resize(1); // conv0 on codebook 0
        Codebook &cb = m.codebooks[0];
        Rng rng(77 + static_cast<std::uint64_t>(qbits));
        cb.codewords.fillNormal(rng, 0.0f, 1.0f);
        cb.qbits = 0;
        cb.scale = 0.0f;
        if (qbits > 0)
            quantizeCodebook(cb, qbits);
        const CompressedModel decoded = deserializeModel(serializeModel(m));
        const Tensor &want = decoded.codebooks[0].codewords;
        EXPECT_TRUE(tensorsBitIdentical(cb.codewords, want));

        io::saveArtifact(m, path, io::ArtifactFormat::Mvqi);
        const auto art = io::openArtifact(path);
        EXPECT_EQ(io::mvqiSectionBytes(art->view()).codebooks,
                  256 * io::mvqiCodewordBytes(qbits) + 128 * 4);
        const io::CodebookTable table = art->codebookTable(0);
        ASSERT_EQ(static_cast<std::int64_t>(table->size()), want.numel());
        EXPECT_EQ(std::memcmp(table->data(), want.data(),
                              table->size() * sizeof(float)),
                  0);

        nn::CompressedConv2d owned(m.layers[0], cb, 1, 1, 1);
        nn::CompressedConv2d borrowed(art->layerName(0), art->layerShape(0),
                                      art->packedOperands(0), 1, 1);
        Tensor x(Shape({2, 2, 6, 6}));
        x.fillNormal(rng, 0.0f, 1.0f);
        EXPECT_TRUE(tensorsBitIdentical(owned.forward(x),
                                        borrowed.forward(x)));
    }
    // Past 24 bits a float holds only some levels, and the top level
    // rounds up to 2^(qbits-1): both writers still find the level of
    // every dequantizeLevel value (the image stores it as int32), and the
    // image's table and the `.mvq` decode give back the model's codewords
    // bit for bit, the top level included.
    for (const int qbits : {24, 26, 32}) {
        SCOPED_TRACE("qbits " + std::to_string(qbits));
        CompressedModel m = makeGoldenModel();
        Codebook &cb = m.codebooks[0];
        cb.qbits = qbits;
        cb.scale = 0.3f;
        const std::int64_t half = std::int64_t{1} << (qbits - 1);
        const std::int64_t levels[] = {-half, -half + 1, half - 2, half - 1,
                                       (half / 3) | 1, 0};
        for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
            cb.codewords[i] = dequantizeLevel(levels[i % 6], cb.scale);
        EXPECT_TRUE(tensorsBitIdentical(
            cb.codewords,
            deserializeModel(serializeModel(m)).codebooks[0].codewords));
        io::saveArtifact(m, path, io::ArtifactFormat::Mvqi);
        const auto art = io::openArtifact(path);
        EXPECT_EQ(io::mvqiSectionBytes(art->view()).codebooks,
                  256 * 4 + 128 * 4);
        EXPECT_EQ(std::memcmp(art->codebookTable(0)->data(),
                              cb.codewords.data(), 256 * sizeof(float)),
                  0);
    }
    std::remove(path.c_str());
}

TEST(MvqiGolden, FixturePinsFormatV4)
{
    // Byte-for-byte lock on the checked-in v4 image. If this fails you
    // changed the on-disk layout: bump kMvqiVersion, update
    // docs/FORMAT.md, and regenerate with MVQ_WRITE_GOLDEN=1.
    const std::string golden_path = goldenPath("golden_v4.mvqi");
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
        << "MVQI writer output drifted from the v4 fixture";
}

TEST(MvqiGolden, StreamRebuildsTheV4Fixture)
{
    // The route a rejected image's message names: the model through its
    // `.mvq` stream, reopened and written as an image at the golden
    // groups, is the v4 fixture byte for byte. Every float of the model
    // is k * 2^-2, so the stream round trip is exact.
    const std::string stream_path = tmpPath("mvq_golden_rebuild.mvq");
    const std::string image_path = tmpPath("mvq_golden_rebuild.mvqi");
    io::saveArtifact(makeGoldenModel(), stream_path,
                     io::ArtifactFormat::Stream);
    io::saveArtifact(io::openArtifact(stream_path)->model(), image_path,
                     io::ArtifactFormat::Mvqi, goldenWriteOptions());
    EXPECT_EQ(readBytes(image_path), readBytes(goldenPath("golden_v4.mvqi")));
    std::remove(stream_path.c_str());
    std::remove(image_path.c_str());
}

TEST(MvqiGolden, SectionsSumToTheFileSize)
{
    // `mvqi info`'s split: every byte in exactly one section kind.
    const std::vector<std::uint8_t> bytes =
        readBytes(goldenPath("golden_v4.mvqi"));
    const io::MvqiView view(bytes.data(),
                            static_cast<std::int64_t>(bytes.size()),
                            "golden_v4");
    const io::MvqiSectionBytes s = io::mvqiSectionBytes(view);
    EXPECT_EQ(s.total(), view.size());
    // Codewords as int8 levels (qbits 8) or raw fp32 (qbits 0), 16-bit
    // symbols, 112-byte records (one group in layer 0, two in layer 1),
    // and one 4-byte word per kept weight, or a 2-byte index inside a
    // tile.
    const CompressedModel m = makeGoldenModel();
    std::int64_t ng = 0;
    std::int64_t codes = 0;
    for (const CompressedLayer &cl : m.layers) {
        ng += cl.ng();
        codes += cl.ng() * (cl.cfg.d / cl.cfg.pattern.m);
    }
    EXPECT_EQ(s.codebooks, 16 * 16 * 1 + 8 * 16 * 4);
    EXPECT_EQ(s.assignments, ng * 2);
    EXPECT_EQ(s.mask_codes, codes * 2);
    EXPECT_EQ(s.records, 64 + 2 * 48 + 2 * 200 + 3 * 112);
    EXPECT_GT(s.remainder, 0);
}

} // namespace
} // namespace mvq::core
