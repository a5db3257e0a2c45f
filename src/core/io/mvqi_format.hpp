/**
 * @file
 * MVQI ("MVQ Image") v4 — the flat, aligned, versioned serving format.
 * Where the bit-packed stream format (core/serialize) optimizes for the
 * paper's Eq. 7 storage accounting and must be decoded and re-packed on
 * every load, an MVQI file *is* the in-memory operand layout: fixed-width
 * little-endian header + TOC structs, then sections holding codebooks
 * (64-byte aligned; each codeword a signed level at its qbits, in the
 * narrowest of 1, 2 or 4 bytes, or raw fp32 when unquantized), 16-bit
 * assignments and mask codes, and the pre-packed panel-ready sparse
 * operands (GroupedSparseMatrix tiles + CSR remainder, each array
 * aligned to its element size) exactly as the gemm drivers consume them.
 * Every kept weight is one 32-bit word (column << 16 | codebook index)
 * or, inside a multi-row tile, one 16-bit codebook index; the values
 * themselves live once, in the layer's codebook, which the reader
 * dequantizes once at open into the value table every operand of the
 * layer shares. Loading is therefore mmap + validate + one k*d decode
 * per codebook: no bit-stream decode, no packGroupedRows, and N server
 * processes share one read-only page-cached image.
 *
 * The reader accepts exactly the version the writer emits. An image is a
 * build product of its `.mvq` stream, so a format bump means a rebuild
 * (`mvqi convert model.mvq model.mvqi`), not a reader shim.
 *
 * Byte-level layout, alignment rules, and the versioning policy are
 * specified in docs/FORMAT.md; this header is the single source of truth
 * for the struct definitions (static_asserts pin their sizes, and the
 * golden-fixture test pins the emitted bytes against drift).
 */

#ifndef MVQ_CORE_IO_MVQI_FORMAT_HPP
#define MVQ_CORE_IO_MVQI_FORMAT_HPP

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compressed_layer.hpp"

namespace mvq::core::io {

constexpr std::uint32_t kMvqiMagic = 0x4951564Du; //!< "MVQI", little-endian
constexpr std::uint32_t kMvqiVersion = 4; //!< the one version written and read
/** Alignment of codebooks and TOCs; the other arrays are aligned to their
 *  element size. */
constexpr std::int64_t kMvqiAlign = 64;
/** Operand records: 8-byte aligned (they hold 64-bit fields). */
constexpr std::int64_t kMvqiRecordAlign = 8;
constexpr std::size_t kMvqiNameBytes = 64; //!< fixed layer-name field

/** Offset + element count of one array section (element type from use). */
struct MvqiArray
{
    std::uint64_t off = 0;   //!< byte offset from file start
    std::int64_t count = 0;  //!< element count (not bytes)
};
static_assert(sizeof(MvqiArray) == 16);

/** File header; always the first 64 bytes of an image. */
struct MvqiHeader
{
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t header_bytes = 0; //!< sizeof(MvqiHeader)
    std::uint32_t flags = 0;        //!< bit 0: dense_reconstruct
    std::uint32_t n_codebooks = 0;
    std::uint32_t n_layers = 0;
    std::uint64_t codebook_toc_off = 0;
    std::uint64_t layer_toc_off = 0;
    std::uint64_t file_bytes = 0;   //!< must equal the actual file size
    std::uint8_t reserved[16] = {};
};
static_assert(sizeof(MvqiHeader) == 64);

/**
 * One codebook TOC entry. A quantized codebook (qbits > 0) stores each
 * codeword as its signed level round(value / scale), in
 * mvqiCodewordBytes(qbits) bytes; the reader decodes level * scale
 * (dequantizeLevel) once at open. An unquantized one stores raw fp32.
 */
struct MvqiCodebook
{
    std::int64_t k = 0;
    std::int64_t d = 0;
    std::int32_t qbits = 0; //!< 0 (raw fp32) .. 32
    float scale = 0.0f;     //!< finite and > 0 when qbits > 0
    std::uint64_t codewords_off = 0; //!< k*d stored values, 64-aligned
    std::uint64_t reserved[2] = {};
};
static_assert(sizeof(MvqiCodebook) == 48);

/** Stored bytes per codeword: the narrowest of 1, 2 or 4 that holds a
 *  signed qbits-bit level, or 4 (fp32) when qbits == 0. */
constexpr std::int64_t
mvqiCodewordBytes(std::int32_t qbits)
{
    return qbits == 0 ? 4 : qbits <= 8 ? 1 : qbits <= 16 ? 2 : 4;
}

/**
 * One pre-packed sparse operand: a GroupedSparseMatrix (one conv
 * group of one layer) flattened into offset-addressed sections. The
 * tiles section stores GroupedSparseMatrix::Tile structs verbatim (their
 * layout is static_asserted in mvqi_format.cpp), so a loaded operand
 * borrows every array straight from the image, and its value table is
 * the layer's dequantized codebook (k*d fp32). Tiles + remainder hold
 * every kept entry exactly once.
 */
struct MvqiOperand
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    MvqiArray tiles;       //!< GroupedSparseMatrix::Tile (48 B each)
    MvqiArray tile_cols;   //!< int32 shared-column pool
    MvqiArray tile_idx;    //!< uint16 codebook indices of tile entries
    MvqiArray band_ptr;    //!< int64, n_bands + 1
    MvqiArray rem_row_ptr; //!< int64, rows + 1
    MvqiArray rem_entries; //!< uint32 column << 16 | codebook index
};
static_assert(sizeof(MvqiOperand) == 112);

/** One layer TOC entry. */
struct MvqiLayer
{
    char name[kMvqiNameBytes] = {}; //!< NUL-terminated
    std::int64_t shape[4] = {1, 1, 1, 1}; //!< [K, C/groups, R, S]
    std::int64_t k = 0;             //!< cfg.k
    std::int64_t d = 0;             //!< cfg.d
    std::int32_t n = 0;             //!< pattern N
    std::int32_t m = 0;             //!< pattern M
    std::int32_t grouping = 0;      //!< core::Grouping enum value
    std::int32_t codebook_bits = 0;
    std::int32_t codebook_id = 0;
    std::int32_t groups = 1;        //!< conv groups baked into operands
    std::int64_t dense_flops = 0;
    std::int64_t ng = 0;
    MvqiArray assignments;          //!< uint16, ng
    MvqiArray mask_codes;           //!< uint16, ng * d/M
    std::uint64_t operands_off = 0; //!< `groups` operand records
    std::uint64_t reserved = 0;
};
static_assert(sizeof(MvqiLayer) == 200);

/** Writer knobs: the conv `groups` baked into each layer's pre-packed
 *  operands (the compressed container does not store conv geometry). */
struct MvqiWriteOptions
{
    std::int64_t default_groups = 1;
    std::map<std::string, std::int64_t> layer_groups; //!< by layer name
};

/**
 * Serialize `model` into an MVQI image: runs packGroupedRows per layer
 * ONCE here, at serialize time, so no load ever runs it again.
 * Deterministic: same model + options => identical bytes (the golden
 * fixture test depends on this). Fatal on a model that fails
 * CompressedModel::validate, layer names >= 64 bytes, invalid groups,
 * `layer_groups` entries that name no layer, layers past the 16-bit
 * limits of the layout (conv-group gemm K >= 65,536, codebook
 * k*d > 65,536 or C(M,N) > 65,536), and a quantized codebook (qbits > 0)
 * with a non-finite or non-positive scale or a codeword that is not
 * exactly dequantizeLevel(level, scale) for a level in its qbits range
 * — the image stores levels, so an off-grid value could not round-trip.
 */
std::vector<std::uint8_t> buildMvqiImage(const CompressedModel &model,
                                         const MvqiWriteOptions &opts = {});

/** buildMvqiImage + write to a file (fatal on I/O failure). */
void writeMvqiFile(const CompressedModel &model, const std::string &path,
                   const MvqiWriteOptions &opts = {});

/**
 * True when MappedFile will use the 64-byte-aligned heap fallback instead
 * of mmap. Resolved once from MVQ_MVQI_NO_MMAP via the env registry;
 * setMvqiHeapFallback is the programmatic override (tests exercising both
 * loaders in one process — registry reads are sticky by design).
 */
bool mvqiHeapFallback();
void setMvqiHeapFallback(bool on);

/**
 * Read-only image bytes: an mmap of a file on POSIX, or a 64-byte-aligned
 * heap copy — of the file elsewhere (or when MVQ_MVQI_NO_MMAP=1 forces
 * the fallback for testing), or of an image built in memory.
 */
class MappedFile
{
  public:
    /** Map `path`; fatal on open/stat/map failure or an empty file. */
    explicit MappedFile(const std::string &path);
    /** Copy an in-memory image (e.g. a converted `.mvq` stream) into
     *  aligned heap storage; `path` names it in diagnostics. */
    MappedFile(std::string path, const std::vector<std::uint8_t> &bytes);
    ~MappedFile();
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const std::uint8_t *data() const { return data_; }
    std::int64_t size() const { return size_; }
    const std::string &path() const { return path_; }
    /** True when backed by mmap (heap fallback otherwise). */
    bool mapped() const { return mapped_; }

  private:
    /** Point data_/size_ at fresh 64-byte-aligned heap storage of `size`
     *  bytes, owned by heap_ (freed even when a constructor throws). */
    void *allocHeap(std::int64_t size);

    std::string path_;
    const std::uint8_t *data_ = nullptr;
    std::int64_t size_ = 0;
    bool mapped_ = false;
    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };
    std::unique_ptr<void, FreeDeleter> heap_; //!< aligned heap storage
};

/**
 * Non-owning structurally validated view over an MVQI image. The
 * constructor is the corruption firewall: truncated file, bad magic,
 * unsupported version, misaligned sections, out-of-range or overflowing
 * TOC offsets, oversized names, inconsistent counts, and codebook
 * fields no decode can use (qbits outside [0, 32]; a non-finite or
 * non-positive scale when qbits > 0) all fail with a clear FatalError
 * naming `what` (typically the file path) — never undefined behaviour. Array accessors return pointers that were bounds-
 * and alignment-checked against the image during construction.
 *
 * Structural validation is O(layers + groups), independent of model
 * size; the O(nnz) semantic validation of each operand's indices happens
 * when the operand is borrowed (validateGroupedOperand, see
 * ModelArtifact::packedOperands).
 */
class MvqiView
{
  public:
    MvqiView(const std::uint8_t *data, std::int64_t size, std::string what);

    const MvqiHeader &header() const;
    std::int64_t codebookCount() const;
    std::int64_t layerCount() const;
    const MvqiCodebook &codebook(std::int64_t i) const;
    /**
     * Codebook i dequantized: k*d fp32 in row-major order, each level
     * decoded by dequantizeLevel. Fatal on a stored level outside the
     * codebook's qbits range.
     */
    std::vector<float> codewords(std::int64_t i) const;
    const MvqiLayer &layer(std::int64_t i) const;
    /** The operand record `group` of a layer. */
    MvqiOperand operand(std::int64_t layer_idx, std::int64_t group) const;

    /** Typed pointer to a validated array section. */
    template <typename T>
    const T *
    array(const MvqiArray &a) const
    {
        return reinterpret_cast<const T *>(data_ + a.off);
    }

    const std::uint8_t *data() const { return data_; }
    std::int64_t size() const { return size_; }
    const std::string &what() const { return what_; }

  private:
    void validate();
    /** Bounds-, overflow- and alignment-check one section; `align` 0
     *  means min(elem_bytes, 8). */
    void checkArray(const MvqiArray &a, std::int64_t elem_bytes,
                    const char *name, std::int64_t align = 0) const;

    const std::uint8_t *data_;
    std::int64_t size_;
    std::string what_;
};

/**
 * Bytes of an image by section kind, as `mvqi info` reports them. Every
 * byte belongs to exactly one kind, so total() equals the file size for
 * any image whose sections do not overlap (the writer's never do).
 */
struct MvqiSectionBytes
{
    std::int64_t codebooks = 0;   //!< stored codeword arrays
    std::int64_t assignments = 0; //!< per-subvector codeword ids
    std::int64_t mask_codes = 0;  //!< N:M mask codes
    std::int64_t tiles = 0;       //!< tiles, their pools, band_ptr
    std::int64_t remainder = 0;   //!< remainder CSR
    std::int64_t records = 0;     //!< header, TOCs and operand records
    std::int64_t padding = 0;     //!< bytes no section covers (alignment)

    std::int64_t
    total() const
    {
        return codebooks + assignments + mask_codes + tiles + remainder
            + records + padding;
    }
};

/** Split a validated image into MvqiSectionBytes. */
MvqiSectionBytes mvqiSectionBytes(const MvqiView &view);

} // namespace mvq::core::io

#endif // MVQ_CORE_IO_MVQI_FORMAT_HPP
