/**
 * @file
 * `mvqi` — conversion / inspection CLI for compressed-model artifacts.
 *
 *   mvqi info <file>                     describe an artifact (either
 *                                        format; layer + codebook table
 *                                        with stored and in-memory
 *                                        codeword bytes, MVQI version,
 *                                        bytes per section)
 *   mvqi convert <in> <out> [options]    re-encode between the bit-packed
 *                                        stream and the MVQI image
 *   mvqi verify <file>                   load + fully validate every
 *                                        layer's packed operands
 *
 * convert options:
 *   --to stream|mvqi          target format (default: by <out> extension,
 *                             ".mvqi" => mvqi, anything else => stream)
 *   --groups N                conv groups baked into every MVQI layer
 *   --layer-groups name=N     per-layer override (repeatable)
 *   (neither given: each layer keeps the groups its input baked)
 *
 * An image of another MVQI version than this build writes is rejected;
 * rebuild it from its stream with `mvqi convert model.mvq model.mvqi`.
 *
 * Exit status: 0 on success, 1 on a usage error, 2 on a FatalError
 * (unreadable or corrupt input, an unknown --layer-groups name), whose
 * message goes to stderr.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"

namespace {

using namespace mvq;
using namespace mvq::core::io;

int
usage()
{
    std::cerr << "usage:\n"
                 "  mvqi info <file>\n"
                 "  mvqi convert <in> <out> [--to stream|mvqi] "
                 "[--groups N] [--layer-groups name=N]...\n"
                 "  mvqi verify <file>\n";
    return 1;
}

void
describeLayer(const ModelArtifact &art, std::int64_t i)
{
    const core::CompressedLayer &cl =
        art.model().layers[static_cast<std::size_t>(i)];
    std::cout << "  layer " << i << ": '" << cl.name << "' "
              << cl.weight_shape.str() << "  k=" << cl.cfg.k
              << " d=" << cl.cfg.d << " " << cl.cfg.pattern.n << ":"
              << cl.cfg.pattern.m << " ("
              << core::groupingName(cl.cfg.grouping) << ", codebook "
              << cl.codebook_id << ", ng=" << cl.ng() << ")";
    std::cout << "  [pre-packed, groups=" << art.bakedGroups(i) << "]\n";
}

/** Bytes per section kind of the served image (for a `.mvq` stream, the
 *  image it converts to in memory). The rows sum to the image size. */
void
describeSections(const MvqiView &v)
{
    const MvqiSectionBytes s = mvqiSectionBytes(v);
    const auto row = [](const char *kind, std::int64_t bytes) {
        std::cout << "    " << kind << ": " << bytes << " B\n";
    };
    std::cout << "  image sections (MVQI v" << v.header().version << ", "
              << v.size() << " B):\n";
    row("codebooks", s.codebooks);
    row("assignments", s.assignments);
    row("mask codes", s.mask_codes);
    row("tiles+pools", s.tiles);
    row("remainder CSR", s.remainder);
    row("TOCs/records", s.records);
    row("padding", s.padding);
    std::cout << "    total: " << s.total() << " B\n";
}

int
cmdInfo(const std::string &path)
{
    const auto art = openArtifact(path);
    std::cout << path << ": " << artifactFormatName(art->format())
              << " artifact, " << art->sizeBytes() << " bytes, "
              << art->layerCount() << " layers\n";
    const core::CompressedModel &m = art->model();
    std::cout << "  storage: " << m.storage().totalBits() / 8
              << " B payload, " << m.compressionRatio()
              << "x vs fp32, dense_reconstruct="
              << (m.dense_reconstruct ? "yes" : "no") << "\n";
    for (std::size_t b = 0; b < m.codebooks.size(); ++b) {
        // Stored: levels at the qbits width (fp32 when unquantized);
        // in memory: the fp32 table the open decodes them into.
        const core::Codebook &cb = m.codebooks[b];
        const std::int64_t per_value = mvqiCodewordBytes(cb.qbits);
        const auto id = static_cast<std::int64_t>(b);
        std::cout << "  codebook " << b << ": k=" << cb.k() << " d="
                  << cb.d() << " qbits=" << cb.qbits << " scale="
                  << cb.scale << "  stored " << per_value << " B/value ("
                  << cb.codewords.numel() * per_value << " B), table "
                  << art->codebookTable(id)->size() * sizeof(float)
                  << " B\n";
    }
    for (std::int64_t i = 0; i < art->layerCount(); ++i)
        describeLayer(*art, i);
    std::cout << "  backing: "
              << (art->mapped() ? "mmap" : "aligned heap copy")
              << ", MVQI v" << art->view().header().version << "\n";
    describeSections(art->view());
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    const std::string in = argv[2];
    const std::string out = argv[3];
    bool to_set = false;
    bool groups_set = false;
    ArtifactFormat to = ArtifactFormat::Stream;
    MvqiWriteOptions opts;
    for (int a = 4; a < argc; ++a) {
        const std::string arg = argv[a];
        const auto next = [&]() -> std::string {
            fatalIf(a + 1 >= argc, "missing value after ", arg);
            return argv[++a];
        };
        if (arg == "--to") {
            const std::string v = next();
            fatalIf(v != "stream" && v != "mvqi",
                    "--to expects 'stream' or 'mvqi', got ", v);
            to = v == "mvqi" ? ArtifactFormat::Mvqi
                             : ArtifactFormat::Stream;
            to_set = true;
        } else if (arg == "--groups") {
            opts.default_groups = std::atoll(next().c_str());
            groups_set = true;
        } else if (arg == "--layer-groups") {
            const std::string v = next();
            const auto eq = v.find('=');
            fatalIf(eq == std::string::npos,
                    "--layer-groups expects name=N, got ", v);
            opts.layer_groups[v.substr(0, eq)] =
                std::atoll(v.c_str() + eq + 1);
            groups_set = true;
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return usage();
        }
    }
    if (!to_set && out.size() >= 5
        && out.compare(out.size() - 5, 5, ".mvqi") == 0)
        to = ArtifactFormat::Mvqi;

    const auto art = openArtifact(in);
    if (!groups_set) {
        // An image re-encoded as-is keeps its baked conv groups.
        for (std::int64_t i = 0; i < art->layerCount(); ++i)
            opts.layer_groups[art->layerName(i)] = art->bakedGroups(i);
    }
    saveArtifact(art->model(), out, to, opts);
    std::cout << in << " (" << artifactFormatName(art->format()) << ", "
              << art->sizeBytes() << " B) -> " << out << " ("
              << artifactFormatName(to) << ", "
              << openArtifact(out)->sizeBytes() << " B)\n";
    return 0;
}

int
cmdVerify(const std::string &path)
{
    const auto art = openArtifact(path);
    std::int64_t nnz = 0;
    for (std::int64_t i = 0; i < art->layerCount(); ++i) {
        // packedOperands runs the full O(nnz) semantic validation
        // (validateGroupedOperand over the borrowed views).
        const SharedOperands ops = art->packedOperands(i);
        for (const GroupedSparseMatrix &g : *ops)
            nnz += g.rows.nnz();
    }
    std::cout << path << ": OK ("
              << artifactFormatName(art->format()) << ", "
              << art->layerCount() << " layers, " << nnz
              << " packed nonzeros validated)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "info")
            return cmdInfo(argv[2]);
        if (cmd == "convert")
            return cmdConvert(argc, argv);
        if (cmd == "verify")
            return cmdVerify(argv[2]);
    } catch (const mvq::FatalError &e) {
        std::cerr << "mvqi: " << e.what() << "\n";
        return 2;
    }
    return usage();
}
