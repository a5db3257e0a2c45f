#include "core/io/model_artifact.hpp"

#include <cstring>
#include <fstream>
#include <iterator>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "core/serialize.hpp"

namespace mvq::core::io {

std::string
artifactFormatName(ArtifactFormat f)
{
    switch (f) {
      case ArtifactFormat::Stream:
        return "stream";
      case ArtifactFormat::Mvqi:
        return "mvqi";
    }
    return "unknown";
}

/** What opening a file yields, before the view is built over it. */
struct ModelArtifact::Opened
{
    ArtifactFormat format = ArtifactFormat::Mvqi;
    std::int64_t size_bytes = 0;
    std::shared_ptr<MappedFile> map;
    std::optional<CompressedModel> model; //!< the decoded `.mvq` stream
};

/**
 * Sniff the magic and load the image: map an MVQI file, or decode a
 * `.mvq` stream and convert it to an in-memory image. The fault site
 * sits in front of every OS call so tests can script open failures
 * without touching the filesystem.
 */
ModelArtifact::Opened
ModelArtifact::openImage(const std::string &path)
{
    fault::checkpoint(fault::kArtifactOpen, "opening model file");
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open model file ", path);
    std::uint8_t m[4] = {};
    in.read(reinterpret_cast<char *>(m), 4);
    fatalIf(!in, path, ": too short to be a compressed-model file");
    // Both formats lead with a little-endian 32-bit magic.
    const std::uint32_t magic = static_cast<std::uint32_t>(m[0])
        | static_cast<std::uint32_t>(m[1]) << 8
        | static_cast<std::uint32_t>(m[2]) << 16
        | static_cast<std::uint32_t>(m[3]) << 24;

    Opened o;
    if (magic == kMvqiMagic) {
        in.close();
        o.map = std::make_shared<MappedFile>(path);
        o.size_bytes = o.map->size();
        return o;
    }
    fatalIf(magic != kStreamMagic, path, ": unknown model file magic 0x",
            std::hex, magic, std::dec,
            " (neither MVQ stream nor MVQI image)");
    in.seekg(0);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    o.format = ArtifactFormat::Stream;
    o.size_bytes = static_cast<std::int64_t>(bytes.size());
    o.model = deserializeModel(bytes);
    o.map = std::make_shared<MappedFile>(path, buildMvqiImage(*o.model));
    return o;
}

namespace {

template <typename T>
OperandArray<T>
borrowArr(const MvqiView &v, const MvqiArray &a)
{
    return OperandArray<T>::borrow(v.array<T>(a), a.count);
}

/**
 * Assemble a GroupedSparseMatrix whose every array aliases the image; its
 * value table is the layer's dequantized codebook.
 */
GroupedSparseMatrix
borrowOperand(const MvqiView &v, const MvqiOperand &op,
              const OperandArray<float> &table)
{
    GroupedSparseMatrix g;
    // Tiles cover their index pool exactly, so the kept count is the two
    // entry arrays; validateGroupedOperand checks the tiles add up to it.
    g.rows = {op.rows, op.cols, op.tile_idx.count + op.rem_entries.count};
    g.tiles = borrowArr<GroupedSparseMatrix::Tile>(v, op.tiles);
    g.cols = borrowArr<std::int32_t>(v, op.tile_cols);
    g.vals = borrowArr<std::uint16_t>(v, op.tile_idx);
    g.band_ptr = borrowArr<std::int64_t>(v, op.band_ptr);
    g.remainder.rows = op.rows;
    g.remainder.cols = op.cols;
    g.remainder.row_ptr = borrowArr<std::int64_t>(v, op.rem_row_ptr);
    g.remainder.col_idx = borrowArr<std::uint32_t>(v, op.rem_entries);
    g.remainder.values = table;
    return g;
}

/** Widen an image's stored 16-bit symbols. */
template <typename T>
std::vector<T>
readSymbols(const MvqiView &v, const MvqiArray &a)
{
    const std::uint16_t *p = v.array<std::uint16_t>(a);
    return std::vector<T>(p, p + a.count);
}

/** Keeps the image alive for as long as any borrowed operand handle is
 *  held (the SharedOperands aliasing constructor points into it). */
struct OperandHolder
{
    std::shared_ptr<MappedFile> keepalive;
    std::vector<GroupedSparseMatrix> ops;
};

} // namespace

ModelArtifact::ModelArtifact(const std::string &path)
    : ModelArtifact(openImage(path))
{
}

ModelArtifact::ModelArtifact(Opened opened)
    : format_(opened.format), size_bytes_(opened.size_bytes),
      map_(std::move(opened.map)),
      view_(map_->data(), map_->size(), map_->path()),
      model_(std::move(opened.model))
{
    // The image stores codewords as levels: decode each codebook once
    // here, into the one table all of its layers' operands share.
    tables_.reserve(static_cast<std::size_t>(view_.codebookCount()));
    for (std::int64_t i = 0; i < view_.codebookCount(); ++i)
        tables_.push_back(std::make_shared<const std::vector<float>>(
            view_.codewords(i)));
}

CodebookTable
ModelArtifact::codebookTable(std::int64_t i) const
{
    panicIf(i < 0 || i >= view_.codebookCount(), "codebook index ", i,
            " out of range [0, ", view_.codebookCount(), ")");
    return tables_[static_cast<std::size_t>(i)];
}

std::int64_t
ModelArtifact::layerCount() const
{
    return view_.layerCount();
}

std::string
ModelArtifact::layerName(std::int64_t i) const
{
    return std::string(view_.layer(i).name);
}

Shape
ModelArtifact::layerShape(std::int64_t i) const
{
    const MvqiLayer &L = view_.layer(i);
    return Shape({L.shape[0], L.shape[1], L.shape[2], L.shape[3]});
}

std::int64_t
ModelArtifact::bakedGroups(std::int64_t i) const
{
    return view_.layer(i).groups;
}

const CompressedModel &
ModelArtifact::model() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return modelLocked();
}

const CompressedModel &
ModelArtifact::modelLocked() const
{
    if (model_)
        return *model_;

    // Materialize by copying out of the image — only convert/inspect
    // paths come here; serving uses packedOperands and never copies.
    CompressedModel m;
    m.dense_reconstruct = (view_.header().flags & 1u) != 0;
    for (std::int64_t i = 0; i < view_.codebookCount(); ++i) {
        const MvqiCodebook &rec = view_.codebook(i);
        const std::vector<float> &table =
            *tables_[static_cast<std::size_t>(i)];
        Codebook cb;
        cb.qbits = static_cast<int>(rec.qbits);
        cb.scale = rec.scale;
        cb.codewords = Tensor(Shape({rec.k, rec.d}));
        std::memcpy(cb.codewords.data(), table.data(),
                    table.size() * sizeof(float));
        m.codebooks.push_back(std::move(cb));
    }
    for (std::int64_t i = 0; i < view_.layerCount(); ++i) {
        const MvqiLayer &L = view_.layer(i);
        CompressedLayer cl;
        cl.name = std::string(L.name);
        cl.weight_shape =
            Shape({L.shape[0], L.shape[1], L.shape[2], L.shape[3]});
        cl.cfg.k = L.k;
        cl.cfg.d = L.d;
        cl.cfg.pattern.n = static_cast<int>(L.n);
        cl.cfg.pattern.m = static_cast<int>(L.m);
        cl.cfg.grouping = groupingFromInt(static_cast<int>(L.grouping));
        cl.cfg.codebook_bits = static_cast<int>(L.codebook_bits);
        cl.codebook_id = static_cast<int>(L.codebook_id);
        cl.dense_flops = L.dense_flops;
        cl.assignments = readSymbols<std::int32_t>(view_, L.assignments);
        cl.mask_codes = readSymbols<std::uint32_t>(view_, L.mask_codes);
        m.layers.push_back(std::move(cl));
    }
    // The structural view bounds every section, but not what the model
    // means: an out-of-range assignment or mask code would index past
    // its codebook or mask LUT on packedOperands' repack path.
    m.validate(path());
    model_ = std::move(m);
    return *model_;
}

SharedOperands
ModelArtifact::packedOperands(std::int64_t i, std::int64_t groups) const
{
    panicIf(i < 0 || i >= layerCount(), "layer index ", i,
            " out of range [0, ", layerCount(), ")");
    fault::checkpoint(fault::kOperandBorrow,
                      "borrowing packed operands from model image");
    const std::int64_t baked = bakedGroups(i);
    const std::int64_t g = groups == 0 ? baked : groups;
    const auto key = std::make_pair(i, g);
    // One lock for the whole lookup-or-build: a miss holds it across the
    // O(nnz) validation (or repack), so N threads first-touching the same
    // (layer, groups) build it once and the rest hit the cache.
    std::lock_guard<std::mutex> lk(mu_);
    if (auto it = cache_.find(key); it != cache_.end())
        return it->second;

    SharedOperands shared;
    if (g == baked) {
        // Zero-copy path: borrow every operand array from the image, then
        // run the O(nnz) semantic validation — the line between a corrupt
        // image failing loudly and the kernels reading out of bounds.
        // Structural bounds were already checked by MvqiView. The value
        // table is the codebook decoded at open, shared, not copied.
        const OperandArray<float> table = OperandArray<float>::share(
            codebookTable(view_.layer(i).codebook_id));
        auto holder = std::make_shared<OperandHolder>();
        holder->keepalive = map_;
        holder->ops.reserve(static_cast<std::size_t>(g));
        for (std::int64_t grp = 0; grp < g; ++grp) {
            GroupedSparseMatrix op =
                borrowOperand(view_, view_.operand(i, grp), table);
            try {
                validateGroupedOperand(op);
            } catch (const PanicError &e) {
                // Invariant violations in *our* data are bugs (panic);
                // in a file they are the file's fault — rewrap.
                fatal(path(), ": corrupt MVQI operand (layer '",
                      layerName(i), "', group ", grp, "): ", e.what());
            }
            holder->ops.push_back(std::move(op));
        }
        shared = SharedOperands(holder, &holder->ops);
    } else {
        // Group-count mismatch: correct but not zero-copy. Bake the right
        // groups to stay on the borrowed path.
        const CompressedModel &m = modelLocked();
        const CompressedLayer &cl = m.layers[static_cast<std::size_t>(i)];
        shared = std::make_shared<const std::vector<GroupedSparseMatrix>>(
            cl.packGroupedRows(
                m.codebooks[static_cast<std::size_t>(cl.codebook_id)],
                g));
    }
    cache_[key] = shared;
    return shared;
}

std::unique_ptr<ModelArtifact>
openArtifact(const std::string &path)
{
    return std::make_unique<ModelArtifact>(path);
}

void
saveArtifact(const CompressedModel &model, const std::string &path,
             ArtifactFormat format, const MvqiWriteOptions &mvqi_opts)
{
    switch (format) {
      case ArtifactFormat::Stream: {
        const std::vector<std::uint8_t> bytes = serializeModel(model);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        fatalIf(!out, "cannot open ", path, " for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        fatalIf(!out, "short write to ", path);
        return;
      }
      case ArtifactFormat::Mvqi:
        writeMvqiFile(model, path, mvqi_opts);
        return;
    }
    panic("unhandled artifact format");
}

} // namespace mvq::core::io
