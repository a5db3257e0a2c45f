#include "core/io/mvqi_format.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/math_util.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MVQ_MVQI_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mvq::core::io {

// The tiles section stores GroupedSparseMatrix::Tile verbatim; pin its
// layout so an image written by one build is readable by another.
static_assert(std::is_trivially_copyable_v<GroupedSparseMatrix::Tile>,
              "Tile must be trivially copyable to live in an MVQI image");
static_assert(sizeof(GroupedSparseMatrix::Tile) == 48,
              "Tile layout drifted; bump kMvqiVersion and update "
              "docs/FORMAT.md");

namespace {

using Tile = GroupedSparseMatrix::Tile;

/** Copy a record out of the image bytes. */
template <typename T>
T
readRecord(const std::uint8_t *p)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T rec;
    std::memcpy(&rec, p, sizeof(T));
    return rec;
}

/**
 * Append-only image buffer. Every section lands on a boundary of its own
 * alignment (zero padding in between), so offsets recorded here are
 * valid for both the mmap path (page-aligned base) and the aligned heap
 * fallback.
 */
struct ImageBuilder
{
    std::vector<std::uint8_t> buf;

    std::uint64_t
    alignUp(std::int64_t align)
    {
        while (buf.size() % static_cast<std::size_t>(align) != 0)
            buf.push_back(0);
        return static_cast<std::uint64_t>(buf.size());
    }

    /** Reserve `bytes` zeroed bytes at a 64-byte boundary (patched later). */
    std::uint64_t
    reserve(std::size_t bytes)
    {
        const std::uint64_t off = alignUp(kMvqiAlign);
        buf.insert(buf.end(), bytes, 0);
        return off;
    }

    template <typename T>
    std::uint64_t
    appendRaw(const T *p, std::int64_t n,
              std::int64_t align = static_cast<std::int64_t>(alignof(T)))
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::uint64_t off = alignUp(align);
        if (n > 0) // p may be null for an empty borrowed array
            buf.insert(buf.end(),
                       reinterpret_cast<const std::uint8_t *>(p),
                       reinterpret_cast<const std::uint8_t *>(p)
                           + static_cast<std::size_t>(n) * sizeof(T));
        return off;
    }

    template <typename T>
    MvqiArray
    append(const T *p, std::size_t n)
    {
        return MvqiArray{appendRaw(p, static_cast<std::int64_t>(n)),
                         static_cast<std::int64_t>(n)};
    }

    template <typename T>
    MvqiArray
    append(const OperandArray<T> &a)
    {
        return append(a.data(), a.size());
    }

    template <typename T>
    MvqiArray
    append(const std::vector<T> &a)
    {
        return append(a.data(), a.size());
    }

    void
    patch(std::uint64_t off, const void *p, std::size_t bytes)
    {
        std::memcpy(buf.data() + off, p, bytes);
    }
};

/**
 * Tiles as built by groupSparseRows leave row[] slots beyond nrows (and
 * struct padding) indeterminate. The image must be byte-deterministic
 * (the golden-fixture test memcmps it), so copy field-by-field into
 * value-initialized (all-zero) storage before appending.
 */
std::vector<Tile>
normalizedTiles(const OperandArray<Tile> &tiles)
{
    std::vector<Tile> norm(tiles.size());
    if (norm.empty())
        return norm;
    // Tile is trivially copyable (static_asserted above); the void cast
    // silences -Wclass-memaccess, which keys off the NSDMIs alone.
    std::memset(static_cast<void *>(norm.data()), 0,
                norm.size() * sizeof(Tile));
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        const Tile &s = tiles[i];
        Tile &t = norm[i];
        for (std::int32_t r = 0; r < s.nrows; ++r)
            t.row[r] = s.row[r];
        t.nrows = s.nrows;
        t.col_off = s.col_off;
        t.ncols = s.ncols;
        t.val_off = s.val_off;
    }
    return norm;
}

MvqiOperand
appendOperand(ImageBuilder &b, const GroupedSparseMatrix &op)
{
    MvqiOperand rec;
    rec.rows = op.rows.rows;
    rec.cols = op.rows.cols;
    const std::vector<Tile> tiles = normalizedTiles(op.tiles);
    rec.tiles = b.append(tiles);
    rec.tile_cols = b.append(op.cols);
    rec.tile_idx = b.append(op.vals);
    rec.band_ptr = b.append(op.band_ptr);
    rec.rem_row_ptr = b.append(op.remainder.row_ptr);
    rec.rem_entries = b.append(op.remainder.col_idx);
    return rec;
}

/** Narrow stored symbols or levels to an image field of type To (the
 *  caller has checked that they fit). */
template <typename To, typename From>
std::vector<To>
narrowTo(const std::vector<From> &v)
{
    std::vector<To> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = static_cast<To>(v[i]);
    return out;
}

/**
 * Append codebook `id`'s codewords as the image stores them: raw fp32
 * when unquantized, otherwise signed levels (encodeLevels) at
 * mvqiCodewordBytes(qbits). Returns the section offset.
 */
std::uint64_t
appendCodewords(ImageBuilder &b, const Codebook &cb, std::size_t id)
{
    const float *cw = cb.codewords.data();
    const std::int64_t n = cb.codewords.numel();
    if (cb.qbits == 0)
        return b.appendRaw(cw, n, kMvqiAlign);
    const std::vector<std::int32_t> levels = encodeLevels(cb, id);
    switch (mvqiCodewordBytes(cb.qbits)) {
      case 1:
        return b.appendRaw(narrowTo<std::int8_t>(levels).data(), n,
                           kMvqiAlign);
      case 2:
        return b.appendRaw(narrowTo<std::int16_t>(levels).data(), n,
                           kMvqiAlign);
      default:
        return b.appendRaw(levels.data(), n, kMvqiAlign);
    }
}

/** Reject a pattern whose mask codes do not fit the 16-bit field (the
 *  packed-entry limits are checked by packGroupedRows). */
void
checkMaskCodeLimit(const CompressedLayer &cl)
{
    const std::uint64_t codes =
        binomial(cl.cfg.pattern.m, cl.cfg.pattern.n);
    fatalIf(codes > static_cast<std::uint64_t>(kMaxValueTable), "layer '",
            cl.name, "': ", cl.cfg.pattern.n, ":", cl.cfg.pattern.m,
            " has ", codes, " mask codes, more than the MVQI 16-bit mask "
            "field holds (", kMaxValueTable, ")");
}

} // namespace

std::vector<std::uint8_t>
buildMvqiImage(const CompressedModel &model, const MvqiWriteOptions &opts)
{
    const std::size_t n_books = model.codebooks.size();
    const std::size_t n_layers = model.layers.size();
    // Assignments below their codebook's k and mask codes below C(M,N):
    // with checkMaskCodeLimit and packGroupedRows' k*d limit, what makes
    // the 16-bit narrowing lossless.
    model.validate("MVQI writer");
    // A misspelt name would silently bake the default groups, and the
    // served conv would repack at first use instead of borrowing.
    for (const auto &entry : opts.layer_groups)
        fatalIf(std::none_of(model.layers.begin(), model.layers.end(),
                             [&](const CompressedLayer &cl) {
                                 return cl.name == entry.first;
                             }),
                "conv groups given for layer '", entry.first,
                "', which the model does not have");

    ImageBuilder b;
    b.reserve(sizeof(MvqiHeader));
    const std::uint64_t cb_toc_off = b.reserve(n_books * sizeof(MvqiCodebook));
    const std::uint64_t layer_toc_off =
        b.reserve(n_layers * sizeof(MvqiLayer));

    std::vector<MvqiCodebook> cb_toc(n_books);
    for (std::size_t i = 0; i < n_books; ++i) {
        const Codebook &cb = model.codebooks[i];
        MvqiCodebook &rec = cb_toc[i];
        rec.k = cb.k();
        rec.d = cb.d();
        rec.qbits = cb.qbits;
        rec.scale = cb.scale;
        rec.codewords_off = appendCodewords(b, cb, i);
    }

    std::vector<MvqiLayer> layer_toc(n_layers);
    for (std::size_t i = 0; i < n_layers; ++i) {
        const CompressedLayer &cl = model.layers[i];
        fatalIf(cl.name.size() >= kMvqiNameBytes, "layer name '", cl.name,
                "' exceeds the MVQI limit of ", kMvqiNameBytes - 1,
                " bytes");
        fatalIf(cl.weight_shape.rank() != 4, "layer ", cl.name,
                " weight shape ", cl.weight_shape.str(), " is not rank 4");
        fatalIf(cl.codebook_id < 0
                    || static_cast<std::size_t>(cl.codebook_id) >= n_books,
                "layer ", cl.name, " references codebook ", cl.codebook_id,
                " of ", n_books);

        std::int64_t groups = opts.default_groups;
        if (auto it = opts.layer_groups.find(cl.name);
            it != opts.layer_groups.end())
            groups = it->second;
        fatalIf(groups < 1, "invalid conv groups ", groups, " for layer ",
                cl.name);
        const Codebook &cb = model.codebooks[cl.codebook_id];
        checkMaskCodeLimit(cl);

        MvqiLayer &rec = layer_toc[i];
        std::memcpy(rec.name, cl.name.c_str(), cl.name.size());
        for (int j = 0; j < 4; ++j)
            rec.shape[j] = cl.weight_shape.dim(j);
        rec.k = cl.cfg.k;
        rec.d = cl.cfg.d;
        rec.n = static_cast<std::int32_t>(cl.cfg.pattern.n);
        rec.m = static_cast<std::int32_t>(cl.cfg.pattern.m);
        rec.grouping = static_cast<std::int32_t>(cl.cfg.grouping);
        rec.codebook_bits = cl.cfg.codebook_bits;
        rec.codebook_id = cl.codebook_id;
        rec.groups = static_cast<std::int32_t>(groups);
        rec.dense_flops = cl.dense_flops;
        rec.ng = cl.ng();
        rec.assignments = b.append(narrowTo<std::uint16_t>(cl.assignments));
        rec.mask_codes = b.append(narrowTo<std::uint16_t>(cl.mask_codes));

        // The one and only pack: serving loads borrow these bytes as-is.
        // Entries index the codebook, which the image already holds, so
        // no operand stores a value.
        const std::vector<GroupedSparseMatrix> ops =
            cl.packGroupedRows(cb, groups);
        std::vector<MvqiOperand> op_recs;
        op_recs.reserve(ops.size());
        for (const GroupedSparseMatrix &op : ops) {
            panicIf(static_cast<std::int64_t>(op.table().size())
                        != cb.codewords.numel(),
                    "layer ", cl.name, ": operand table is not its codebook");
            op_recs.push_back(appendOperand(b, op));
        }
        rec.operands_off = b.appendRaw(
            op_recs.data(), static_cast<std::int64_t>(op_recs.size()),
            kMvqiRecordAlign);
    }

    MvqiHeader h;
    h.magic = kMvqiMagic;
    h.version = kMvqiVersion;
    h.header_bytes = sizeof(MvqiHeader);
    h.flags = model.dense_reconstruct ? 1u : 0u;
    h.n_codebooks = static_cast<std::uint32_t>(n_books);
    h.n_layers = static_cast<std::uint32_t>(n_layers);
    h.codebook_toc_off = cb_toc_off;
    h.layer_toc_off = layer_toc_off;
    h.file_bytes = static_cast<std::uint64_t>(b.buf.size());
    b.patch(0, &h, sizeof(h));
    if (n_books != 0)
        b.patch(cb_toc_off, cb_toc.data(), n_books * sizeof(MvqiCodebook));
    if (n_layers != 0)
        b.patch(layer_toc_off, layer_toc.data(),
                n_layers * sizeof(MvqiLayer));
    return std::move(b.buf);
}

void
writeMvqiFile(const CompressedModel &model, const std::string &path,
              const MvqiWriteOptions &opts)
{
    const std::vector<std::uint8_t> image = buildMvqiImage(model, opts);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fatalIf(!out, "cannot open ", path, " for writing");
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    out.flush();
    fatalIf(!out, "failed writing MVQI image to ", path);
}

namespace {

/** -1 = unresolved (read MVQ_MVQI_NO_MMAP on first query). */
std::atomic<int> g_heap_fallback{-1};

} // namespace

bool
mvqiHeapFallback()
{
    int v = g_heap_fallback.load(std::memory_order_acquire);
    if (v < 0) {
        v = env::flag("MVQ_MVQI_NO_MMAP", false) ? 1 : 0;
        g_heap_fallback.store(v, std::memory_order_release);
    }
    return v == 1;
}

void
setMvqiHeapFallback(bool on)
{
    g_heap_fallback.store(on ? 1 : 0, std::memory_order_release);
}

MappedFile::MappedFile(const std::string &path) : path_(path)
{
#ifdef MVQ_MVQI_HAVE_MMAP
    if (!mvqiHeapFallback()) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        fatalIf(fd < 0, "cannot open model image ", path);
        struct stat st;
        const bool stat_ok = ::fstat(fd, &st) == 0;
        if (!stat_ok || st.st_size <= 0) {
            ::close(fd);
            fatalIf(!stat_ok, "cannot stat model image ", path);
            fatal("model image ", path, " is empty");
        }
        void *p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        fatalIf(p == MAP_FAILED, "mmap failed for model image ", path);
        data_ = static_cast<const std::uint8_t *>(p);
        size_ = static_cast<std::int64_t>(st.st_size);
        mapped_ = true;
        return;
    }
#endif
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    fatalIf(!in, "cannot open model image ", path);
    const std::int64_t sz = static_cast<std::int64_t>(in.tellg());
    fatalIf(sz <= 0, "model image ", path, " is empty");
    in.seekg(0);
    in.read(static_cast<char *>(allocHeap(sz)), sz);
    fatalIf(!in, "short read loading model image ", path);
}

MappedFile::MappedFile(std::string path,
                       const std::vector<std::uint8_t> &bytes)
    : path_(std::move(path))
{
    fatalIf(bytes.empty(), "model image ", path_, " is empty");
    std::memcpy(allocHeap(static_cast<std::int64_t>(bytes.size())),
                bytes.data(), bytes.size());
}

void *
MappedFile::allocHeap(std::int64_t size)
{
    const std::size_t alloc =
        (static_cast<std::size_t>(size) + kMvqiAlign - 1)
        / kMvqiAlign * kMvqiAlign;
    heap_.reset(
        std::aligned_alloc(static_cast<std::size_t>(kMvqiAlign), alloc));
    fatalIf(heap_ == nullptr, "cannot allocate ", alloc,
            " bytes for model image ", path_);
    data_ = static_cast<const std::uint8_t *>(heap_.get());
    size_ = size;
    return heap_.get();
}

MappedFile::~MappedFile()
{
#ifdef MVQ_MVQI_HAVE_MMAP
    if (mapped_)
        ::munmap(const_cast<std::uint8_t *>(data_),
                 static_cast<std::size_t>(size_));
#endif
}

MvqiView::MvqiView(const std::uint8_t *data, std::int64_t size,
                   std::string what)
    : data_(data), size_(size), what_(std::move(what))
{
    validate();
}

const MvqiHeader &
MvqiView::header() const
{
    return *reinterpret_cast<const MvqiHeader *>(data_);
}

std::int64_t
MvqiView::codebookCount() const
{
    return static_cast<std::int64_t>(header().n_codebooks);
}

std::int64_t
MvqiView::layerCount() const
{
    return static_cast<std::int64_t>(header().n_layers);
}

const MvqiCodebook &
MvqiView::codebook(std::int64_t i) const
{
    panicIf(i < 0 || i >= codebookCount(), "codebook index ", i,
            " out of range [0, ", codebookCount(), ")");
    return reinterpret_cast<const MvqiCodebook *>(
        data_ + header().codebook_toc_off)[i];
}

std::vector<float>
MvqiView::codewords(std::int64_t i) const
{
    const MvqiCodebook &cb = codebook(i);
    const std::size_t n = static_cast<std::size_t>(cb.k * cb.d);
    std::vector<float> out(n);
    if (cb.qbits == 0) {
        std::memcpy(out.data(), data_ + cb.codewords_off, n * sizeof(float));
        return out;
    }
    const auto decode = [&](const auto *levels) {
        const auto [lo, hi] = levelRange(cb.qbits);
        for (std::size_t j = 0; j < n; ++j) {
            const std::int64_t level = levels[j];
            if (level < lo || level > hi)
                fatal(what_, ": codebook ", i, " codeword ", j, " has level ",
                      level, ", outside the ", cb.qbits, "-bit range [", lo,
                      ", ", hi, "]");
            out[j] = dequantizeLevel(level, cb.scale);
        }
    };
    const std::uint8_t *p = data_ + cb.codewords_off;
    switch (mvqiCodewordBytes(cb.qbits)) {
      case 1:
        decode(reinterpret_cast<const std::int8_t *>(p));
        break;
      case 2:
        decode(reinterpret_cast<const std::int16_t *>(p));
        break;
      default:
        decode(reinterpret_cast<const std::int32_t *>(p));
        break;
    }
    return out;
}

const MvqiLayer &
MvqiView::layer(std::int64_t i) const
{
    panicIf(i < 0 || i >= layerCount(), "layer index ", i,
            " out of range [0, ", layerCount(), ")");
    return reinterpret_cast<const MvqiLayer *>(
        data_ + header().layer_toc_off)[i];
}

MvqiOperand
MvqiView::operand(std::int64_t layer_idx, std::int64_t group) const
{
    const MvqiLayer &L = layer(layer_idx);
    panicIf(group < 0 || group >= L.groups, "operand group ", group,
            " out of range [0, ", L.groups, ")");
    return readRecord<MvqiOperand>(data_ + L.operands_off
                                   + group * sizeof(MvqiOperand));
}

void
MvqiView::checkArray(const MvqiArray &a, std::int64_t elem_bytes,
                     const char *name, std::int64_t align) const
{
    if (align == 0)
        align = std::min<std::int64_t>(elem_bytes, 8);
    fatalIf(a.off % static_cast<std::uint64_t>(align) != 0, what_,
            ": misaligned ", name, " section (offset ", a.off, " is not ",
            align, "-byte aligned)");
    fatalIf(a.count < 0, what_, ": negative ", name, " element count ",
            a.count);
    fatalIf(a.off > static_cast<std::uint64_t>(size_), what_, ": ", name,
            " section offset ", a.off, " is beyond the end of the ",
            size_, "-byte image");
    const std::uint64_t avail = static_cast<std::uint64_t>(size_) - a.off;
    fatalIf(static_cast<std::uint64_t>(a.count)
                > avail / static_cast<std::uint64_t>(elem_bytes),
            what_, ": ", name, " section (", a.count, " x ", elem_bytes,
            " bytes at offset ", a.off, ") extends past the end of the ",
            size_, "-byte image");
}

void
MvqiView::validate()
{
    panicIf(data_ == nullptr, "MvqiView over a null image");
    panicIf(reinterpret_cast<std::uintptr_t>(data_) % 8 != 0,
            "MVQI image base address is not 8-byte aligned");
    fatalIf(size_ < static_cast<std::int64_t>(sizeof(MvqiHeader)), what_,
            ": truncated MVQI image (", size_, " bytes; the header alone "
            "is ", sizeof(MvqiHeader), ")");

    const MvqiHeader &h = header();
    fatalIf(h.magic != kMvqiMagic, what_, ": bad magic 0x", std::hex,
            h.magic, std::dec, " (not an MVQI image)");
    fatalIf(h.version != kMvqiVersion, what_, ": unsupported MVQI version ",
            h.version, " (this build reads version ", kMvqiVersion,
            " only; rebuild the image from its stream with "
            "`mvqi convert model.mvq model.mvqi`)");
    fatalIf(h.header_bytes != sizeof(MvqiHeader), what_,
            ": header size mismatch (", h.header_bytes, " vs ",
            sizeof(MvqiHeader), ")");
    fatalIf(h.file_bytes != static_cast<std::uint64_t>(size_), what_,
            ": file size mismatch (header records ", h.file_bytes,
            " bytes, file has ", size_, ")");

    checkArray(MvqiArray{h.codebook_toc_off,
                         static_cast<std::int64_t>(h.n_codebooks)},
               sizeof(MvqiCodebook), "codebook TOC", kMvqiAlign);
    checkArray(MvqiArray{h.layer_toc_off,
                         static_cast<std::int64_t>(h.n_layers)},
               sizeof(MvqiLayer), "layer TOC", kMvqiAlign);

    for (std::int64_t i = 0; i < codebookCount(); ++i) {
        const MvqiCodebook &cb = codebook(i);
        fatalIf(cb.k <= 0 || cb.d <= 0, what_, ": codebook ", i,
                " has invalid dimensions k=", cb.k, " d=", cb.d);
        fatalIf(cb.qbits < 0 || cb.qbits > 32, what_, ": codebook ", i,
                " has invalid qbits ", cb.qbits);
        // A NaN scale would decode every codeword to NaN and poison each
        // output without a crash.
        fatalIf(cb.qbits > 0 && !(std::isfinite(cb.scale) && cb.scale > 0.0f),
                what_, ": codebook ", i, " has invalid scale ", cb.scale,
                " for qbits ", cb.qbits);
        fatalIf(cb.k > std::numeric_limits<std::int64_t>::max() / cb.d,
                what_, ": codebook ", i, " dimensions overflow");
        checkArray(MvqiArray{cb.codewords_off, cb.k * cb.d},
                   mvqiCodewordBytes(cb.qbits), "codewords", kMvqiAlign);
    }

    for (std::int64_t i = 0; i < layerCount(); ++i) {
        const MvqiLayer &L = layer(i);
        fatalIf(L.name[kMvqiNameBytes - 1] != '\0', what_, ": layer ", i,
                " name is not NUL-terminated");
        // Consumers multiply the dims out (kernel numel, unrolled gemm
        // K), so the product must fit.
        std::int64_t numel = 1;
        for (int j = 0; j < 4; ++j) {
            fatalIf(L.shape[j] <= 0, what_, ": layer ", i,
                    " has invalid shape dimension ", L.shape[j]);
            fatalIf(numel > std::numeric_limits<std::int64_t>::max()
                                / L.shape[j],
                    what_, ": layer ", i, " kernel shape overflows");
            numel *= L.shape[j];
        }
        fatalIf(L.k <= 0, what_, ": layer ", i, " has invalid k ", L.k);
        fatalIf(L.d <= 0 || L.m <= 0 || L.d % L.m != 0, what_, ": layer ",
                i, " has inconsistent d=", L.d, " M=", L.m);
        fatalIf(L.n < 0 || L.n > L.m, what_, ": layer ", i,
                " has invalid N:M pattern ", L.n, ":", L.m);
        fatalIf(L.grouping < 0 || L.grouping > 2, what_, ": layer ", i,
                " has invalid grouping ", L.grouping);
        fatalIf(L.codebook_bits < 0 || L.codebook_bits > 32, what_,
                ": layer ", i, " has invalid codebook_bits ",
                L.codebook_bits);
        fatalIf(L.codebook_id < 0
                    || static_cast<std::uint32_t>(L.codebook_id)
                        >= h.n_codebooks,
                what_, ": layer ", i, " references codebook ",
                L.codebook_id, " of ", h.n_codebooks);
        fatalIf(L.groups < 1 || L.groups > L.shape[0], what_, ": layer ",
                i, " has invalid conv groups ", L.groups);
        fatalIf(L.ng < 0, what_, ": layer ", i, " has negative ng");

        checkArray(L.assignments, sizeof(std::uint16_t), "assignments");
        fatalIf(L.assignments.count != L.ng, what_, ": layer ", i,
                " assignments count ", L.assignments.count,
                " does not match ng ", L.ng);
        checkArray(L.mask_codes, sizeof(std::uint16_t), "mask codes");
        // count == ng * d/M, tested by division: a corrupt d can make
        // the product overflow.
        const std::int64_t codes_per_sub = L.d / L.m;
        fatalIf(L.mask_codes.count / codes_per_sub != L.ng
                    || L.mask_codes.count % codes_per_sub != 0,
                what_, ": layer ", i, " mask-code count ",
                L.mask_codes.count, " does not match ng*d/M (ng ", L.ng,
                ", d/M ", codes_per_sub, ")");
        checkArray(MvqiArray{L.operands_off,
                             static_cast<std::int64_t>(L.groups)},
                   sizeof(MvqiOperand), "operand records", kMvqiRecordAlign);

        for (std::int32_t g = 0; g < L.groups; ++g) {
            const MvqiOperand op = operand(i, g);
            fatalIf(op.cols >= kMaxSparseCols, what_, ": layer ", i,
                    " operand ", g, " has ", op.cols,
                    " columns, past the 16-bit column field");
            checkArray(op.tiles, sizeof(Tile), "tiles");
            checkArray(op.tile_cols, sizeof(std::int32_t), "tile cols");
            checkArray(op.tile_idx, sizeof(std::uint16_t), "tile indices");
            checkArray(op.band_ptr, sizeof(std::int64_t), "band_ptr");
            fatalIf(op.band_ptr.count < 1, what_, ": layer ", i, " operand ",
                    g, " band_ptr is empty");
            checkArray(op.rem_row_ptr, sizeof(std::int64_t),
                       "remainder row_ptr");
            checkArray(op.rem_entries, sizeof(std::uint32_t),
                       "remainder entries");
            fatalIf(op.rows < 0 || op.cols < 0, what_, ": layer ", i,
                    " operand ", g, " has negative dimensions");
            fatalIf(op.rem_row_ptr.count != op.rows + 1, what_, ": layer ",
                    i, " operand ", g, " remainder row_ptr count ",
                    op.rem_row_ptr.count, " does not match rows+1 = ",
                    op.rows + 1);
        }
    }
}

MvqiSectionBytes
mvqiSectionBytes(const MvqiView &v)
{
    MvqiSectionBytes s;
    std::vector<std::pair<std::uint64_t, std::int64_t>> spans;
    const auto add = [&](std::int64_t &kind, std::uint64_t off,
                         std::int64_t bytes) {
        kind += bytes;
        if (bytes > 0)
            spans.emplace_back(off, bytes);
    };
    const auto addArray = [&](std::int64_t &kind, const MvqiArray &a,
                              std::int64_t elem_bytes) {
        add(kind, a.off, a.count * elem_bytes);
    };

    const MvqiHeader &h = v.header();
    add(s.records, 0, sizeof(MvqiHeader));
    add(s.records, h.codebook_toc_off,
        v.codebookCount() * static_cast<std::int64_t>(sizeof(MvqiCodebook)));
    add(s.records, h.layer_toc_off,
        v.layerCount() * static_cast<std::int64_t>(sizeof(MvqiLayer)));
    for (std::int64_t i = 0; i < v.codebookCount(); ++i) {
        const MvqiCodebook &cb = v.codebook(i);
        add(s.codebooks, cb.codewords_off,
            cb.k * cb.d * mvqiCodewordBytes(cb.qbits));
    }
    for (std::int64_t i = 0; i < v.layerCount(); ++i) {
        const MvqiLayer &L = v.layer(i);
        addArray(s.assignments, L.assignments, sizeof(std::uint16_t));
        addArray(s.mask_codes, L.mask_codes, sizeof(std::uint16_t));
        add(s.records, L.operands_off,
            L.groups * static_cast<std::int64_t>(sizeof(MvqiOperand)));
        for (std::int32_t g = 0; g < L.groups; ++g) {
            const MvqiOperand op = v.operand(i, g);
            addArray(s.tiles, op.tiles, sizeof(Tile));
            addArray(s.tiles, op.tile_cols, sizeof(std::int32_t));
            addArray(s.tiles, op.tile_idx, sizeof(std::uint16_t));
            addArray(s.tiles, op.band_ptr, sizeof(std::int64_t));
            addArray(s.remainder, op.rem_row_ptr, sizeof(std::int64_t));
            addArray(s.remainder, op.rem_entries, sizeof(std::uint32_t));
        }
    }

    // Padding is what no section covers; overlapping sections would count
    // twice above and push total() past the file size.
    std::sort(spans.begin(), spans.end());
    std::uint64_t cursor = 0;
    std::int64_t covered = 0;
    for (const auto &[off, bytes] : spans) {
        const std::uint64_t end = off + static_cast<std::uint64_t>(bytes);
        if (end > cursor) {
            covered += static_cast<std::int64_t>(end - std::max(off, cursor));
            cursor = end;
        }
    }
    s.padding = v.size() - covered;
    return s;
}

} // namespace mvq::core::io
