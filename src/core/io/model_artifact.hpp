/**
 * @file
 * ModelArtifact — the one API, and the one backend, every consumer of a
 * compressed-model file goes through (examples, the accelerator sim's
 * weight loader, the serving-oriented conv layers).
 *
 * An artifact is always an MVQI image (core/io/mvqi_format) held by a
 * MappedFile and structurally validated by an MvqiView:
 *
 *  - a `.mvqi` file is mmap'ed (or read into the 64-byte-aligned heap
 *    fallback under MVQ_MVQI_NO_MMAP=1) — no bit-stream decode and no
 *    packGroupedRows on the load path. Only kMvqiVersion is read; an
 *    image of any other version is rejected and rebuilt from its `.mvq`;
 *  - a `.mvq` bit-packed stream (core/serialize) is the archival format:
 *    opening one decodes it (deserializeModel) and converts it in memory
 *    with buildMvqiImage (conv groups = 1) into the same aligned heap
 *    storage. format() still reports Stream and sizeBytes() the file's
 *    on-disk size.
 *
 * Either way the open decodes each codebook's stored levels once into a
 * shared fp32 table, and packedOperands borrows views whose pointers
 * alias the image (the value table aside, which every operand of a
 * codebook shares), so the serving code, its cache, its lock and its
 * fault sites are the same whichever file was opened. Converting between
 * formats is saveArtifact(artifact.model()).
 */

#ifndef MVQ_CORE_IO_MODEL_ARTIFACT_HPP
#define MVQ_CORE_IO_MODEL_ARTIFACT_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/compressed_layer.hpp"
#include "core/io/mvqi_format.hpp"

namespace mvq::core::io {

/** The two on-disk representations of a compressed model. */
enum class ArtifactFormat
{
    Stream, //!< bit-packed stream (core/serialize), magic "MVQ1"
    Mvqi,   //!< flat mmap-able image (core/io/mvqi_format), magic "MVQI"
};

/** Human-readable format name ("stream" / "mvqi"). */
std::string artifactFormatName(ArtifactFormat f);

/**
 * Shared handle to one layer's packed gemm operands (one
 * GroupedSparseMatrix per conv group). The shared_ptr's control block
 * keeps the image bytes the operands borrow from alive, so holders may
 * outlive the artifact that produced them.
 */
using SharedOperands = std::shared_ptr<const std::vector<GroupedSparseMatrix>>;

/** One codebook dequantized to fp32 (k*d values), shared by the value
 *  table of every operand that reads it. */
using CodebookTable = std::shared_ptr<const std::vector<float>>;

/** A compressed-model file opened for reading. */
class ModelArtifact
{
  public:
    /**
     * Open `path`, sniffing the magic: an MVQI image is mapped, a `.mvq`
     * stream is decoded and converted to an image in memory. Either way
     * the image is structurally validated (MvqiView). Fatal on
     * unreadable files, unknown magic, or corrupt contents.
     */
    explicit ModelArtifact(const std::string &path);

    /** The format of the file that was opened. */
    ArtifactFormat format() const { return format_; }
    const std::string &path() const { return map_->path(); }
    /** Size of the opened file on disk. */
    std::int64_t sizeBytes() const { return size_bytes_; }

    /**
     * The fully materialized model: the decoded stream for a `.mvq`
     * file, otherwise reconstructed from the image on first call (and
     * cached, after CompressedModel::validate) — serving paths that only
     * need packedOperands never pay for it.
     */
    const CompressedModel &model() const;

    std::int64_t layerCount() const;
    std::string layerName(std::int64_t i) const;
    /** Original 4-D kernel shape of layer i. */
    Shape layerShape(std::int64_t i) const;

    /** Conv groups layer i's image operands were packed for (>= 1;
     *  always 1 for a `.mvq` file). */
    std::int64_t bakedGroups(std::int64_t i) const;

    /**
     * Layer i's packed sparse operands for a `groups`-way convolution;
     * `groups == 0` means the baked groups. Results are cached per
     * (layer, groups), so N conv instances built from one artifact share
     * one operand set.
     *
     * The baked group count is served as borrowed views over the image
     * (zero-copy; every operand's value table is the layer's
     * codebookTable; the returned handle keeps the image and the table
     * alive) after the O(nnz) validateGroupedOperand check. Any other
     * count falls back to materializing + repacking, which is correct
     * but defeats the zero-copy point: bake the right groups at write
     * time (MvqiWriteOptions::layer_groups).
     */
    SharedOperands packedOperands(std::int64_t i,
                                  std::int64_t groups = 0) const;

    /** Codebook i as decoded at open: the table every operand packed
     *  from this image that reads codebook i shares. */
    CodebookTable codebookTable(std::int64_t i) const;

    /** True when the image is mmap'ed (vs aligned heap storage). */
    bool mapped() const { return map_->mapped(); }
    /** The validated structural view (inspection tooling). */
    const MvqiView &view() const { return view_; }

  private:
    struct Opened;
    /** Sniff, then map the image or convert the stream into one. */
    static Opened openImage(const std::string &path);
    explicit ModelArtifact(Opened opened);

    /** model_ builder + cache lookup body; mu_ must be held. */
    const CompressedModel &modelLocked() const;

    ArtifactFormat format_;
    std::int64_t size_bytes_;
    std::shared_ptr<MappedFile> map_;
    MvqiView view_;
    std::vector<CodebookTable> tables_; //!< per codebook, decoded at open
    /** Serializes lazy materialization and the operand cache: model()
     *  and packedOperands() are called concurrently by serving threads
     *  sharing one artifact (see tests/concurrency_test.cpp). */
    mutable std::mutex mu_;
    /** Materialized model: seeded at open for a `.mvq` file, built on
     *  first model() call for an image. */
    mutable std::optional<CompressedModel> model_;
    mutable std::map<std::pair<std::int64_t, std::int64_t>, SharedOperands>
        cache_;
};

/** Open a compressed-model file (see ModelArtifact's constructor). */
std::unique_ptr<ModelArtifact> openArtifact(const std::string &path);

/**
 * Write `model` to `path` in the requested format. `mvqi_opts` applies
 * to ArtifactFormat::Mvqi only (conv groups to bake per layer).
 */
void saveArtifact(const CompressedModel &model, const std::string &path,
                  ArtifactFormat format,
                  const MvqiWriteOptions &mvqi_opts = {});

} // namespace mvq::core::io

#endif // MVQ_CORE_IO_MODEL_ARTIFACT_HPP
