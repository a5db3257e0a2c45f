/**
 * @file
 * Structure-aware mutation fuzzer for MVQI images. Where the byte-flip
 * sweep in mvqi_corruption_test XORs bytes at a stride, this test knows
 * the layout: it enumerates every offset, count and length field of the
 * header, the codebook and layer TOCs (with each codebook's qbits and
 * scale, which size and decode its levels) and every operand record of
 * the image the writer emits, then applies 1-3
 * seeded mutations per iteration — zero, all-ones, off by one, off by one
 * element or alignment unit, doubled, pointed at or just short of the end
 * of the file, another field's value, a random bit flip — sometimes
 * followed by truncating the file with a consistent file_bytes. Every
 * mutant goes through the full untrusted-input path (open, validate,
 * borrow, forward, repack) and must either work or fail with a
 * FatalError: a crash, a PanicError or any other exception fails the
 * test.
 *
 * Deterministic: a fixed seed and a fixed budget of mutants, 400 in a
 * plain build and 20,000 in an AddressSanitizer build, where an
 * out-of-bounds read is a hard failure. A failure names the iteration
 * and its mutations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "core/io/mvqi_format.hpp"
#include "mvqi_test_util.hpp"

namespace mvq::core {
namespace {

const char *kPath = "/tmp/mvq_fuzz_test.mvqi";

#if defined(__SANITIZE_ADDRESS__)
#define MVQ_FUZZ_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MVQ_FUZZ_UNDER_ASAN 1
#endif
#endif

#ifdef MVQ_FUZZ_UNDER_ASAN
constexpr std::int64_t kIterations = 20000;
#else
constexpr std::int64_t kIterations = 400;
#endif

/** One integer field of an image: where it lives and how wide it is. */
struct Field
{
    std::size_t off;
    int bytes; //!< 4 or 8
    std::string name;
};

/** The fields of an MvqiArray at `off` (offset, then element count). */
void
addArray(std::vector<Field> &f, std::size_t off, const std::string &name)
{
    f.push_back({off, 8, name + ".off"});
    f.push_back({off + 8, 8, name + ".count"});
}

/** Every offset, count and length field of a valid image, walking its
 *  TOCs and operand records. */
std::vector<Field>
structuralFields(const std::vector<std::uint8_t> &img)
{
    const io::MvqiView v(img.data(), static_cast<std::int64_t>(img.size()),
                         "fuzz base");
    const io::MvqiHeader &h = v.header();
    std::vector<Field> f = {
        {4, 4, "version"},        {16, 4, "n_codebooks"},
        {20, 4, "n_layers"},      {24, 8, "codebook_toc_off"},
        {32, 8, "layer_toc_off"}, {40, 8, "file_bytes"},
    };
    for (std::int64_t i = 0; i < v.codebookCount(); ++i) {
        const std::size_t base = h.codebook_toc_off
            + static_cast<std::size_t>(i) * sizeof(io::MvqiCodebook);
        const std::string n = "codebook" + std::to_string(i);
        f.push_back({base + offsetof(io::MvqiCodebook, k), 8, n + ".k"});
        f.push_back({base + offsetof(io::MvqiCodebook, d), 8, n + ".d"});
        f.push_back({base + offsetof(io::MvqiCodebook, qbits), 4,
                     n + ".qbits"});
        f.push_back({base + offsetof(io::MvqiCodebook, scale), 4,
                     n + ".scale"});
        f.push_back({base + offsetof(io::MvqiCodebook, codewords_off), 8,
                     n + ".codewords_off"});
    }
    for (std::int64_t i = 0; i < v.layerCount(); ++i) {
        const io::MvqiLayer &L = v.layer(i);
        const std::size_t base = h.layer_toc_off
            + static_cast<std::size_t>(i) * sizeof(io::MvqiLayer);
        const std::string n = "layer" + std::to_string(i);
        for (int j = 0; j < 4; ++j)
            f.push_back({base + offsetof(io::MvqiLayer, shape) + 8u * j, 8,
                         n + ".shape" + std::to_string(j)});
        f.push_back({base + offsetof(io::MvqiLayer, k), 8, n + ".k"});
        f.push_back({base + offsetof(io::MvqiLayer, d), 8, n + ".d"});
        f.push_back({base + offsetof(io::MvqiLayer, n), 4, n + ".n"});
        f.push_back({base + offsetof(io::MvqiLayer, m), 4, n + ".m"});
        f.push_back({base + offsetof(io::MvqiLayer, codebook_id), 4,
                     n + ".codebook_id"});
        f.push_back({base + offsetof(io::MvqiLayer, groups), 4,
                     n + ".groups"});
        f.push_back({base + offsetof(io::MvqiLayer, ng), 8, n + ".ng"});
        addArray(f, base + offsetof(io::MvqiLayer, assignments),
                 n + ".assignments");
        addArray(f, base + offsetof(io::MvqiLayer, mask_codes),
                 n + ".mask_codes");
        f.push_back({base + offsetof(io::MvqiLayer, operands_off), 8,
                     n + ".operands_off"});
        for (std::int32_t g = 0; g < L.groups; ++g) {
            const std::size_t r =
                L.operands_off + g * sizeof(io::MvqiOperand);
            const std::string o = n + ".op" + std::to_string(g);
            f.push_back({r + offsetof(io::MvqiOperand, rows), 8, o + ".rows"});
            f.push_back({r + offsetof(io::MvqiOperand, cols), 8, o + ".cols"});
            addArray(f, r + offsetof(io::MvqiOperand, tiles), o + ".tiles");
            addArray(f, r + offsetof(io::MvqiOperand, tile_cols),
                     o + ".tile_cols");
            addArray(f, r + offsetof(io::MvqiOperand, tile_idx),
                     o + ".tile_idx");
            addArray(f, r + offsetof(io::MvqiOperand, band_ptr),
                     o + ".band_ptr");
            addArray(f, r + offsetof(io::MvqiOperand, rem_row_ptr),
                     o + ".rem_row_ptr");
            addArray(f, r + offsetof(io::MvqiOperand, rem_entries),
                     o + ".rem_entries");
        }
    }
    return f;
}

std::uint64_t
readField(const std::vector<std::uint8_t> &img, const Field &f)
{
    std::uint64_t v = 0;
    std::memcpy(&v, img.data() + f.off, static_cast<std::size_t>(f.bytes));
    return v;
}

void
writeField(std::vector<std::uint8_t> &img, const Field &f, std::uint64_t v)
{
    std::memcpy(img.data() + f.off, &v, static_cast<std::size_t>(f.bytes));
}

/** Apply one seeded mutation to `f`; returns its description. */
std::string
mutateField(std::vector<std::uint8_t> &img, const std::vector<Field> &fields,
            const Field &f, Rng &rng)
{
    const std::uint64_t old = readField(img, f);
    const std::uint64_t size = img.size();
    static const std::uint64_t kSteps[] = {1, 2, 4, 8, 16, 48, 64, 112};
    const std::uint64_t step = kSteps[rng.intIn(0, 7)];
    std::uint64_t v = old;
    std::string what;
    switch (rng.intIn(0, 9)) {
      case 0: v = 0; what = "zero"; break;
      case 1: v = ~std::uint64_t{0}; what = "all-ones"; break;
      case 2: v = old + step; what = "+" + std::to_string(step); break;
      case 3: v = old - step; what = "-" + std::to_string(step); break;
      case 4: v = old * 2 + 1; what = "doubled"; break;
      case 5: v = size; what = "file size"; break;
      case 6: v = size - step; what = "file size -" + std::to_string(step);
        break;
      case 7: {
        const Field &src = fields[static_cast<std::size_t>(
            rng.intIn(0, static_cast<std::int64_t>(fields.size()) - 1))];
        v = readField(img, src);
        what = "copy of " + src.name;
        break;
      }
      case 8: {
        const int bit = static_cast<int>(rng.intIn(0, f.bytes * 8 - 1));
        v = old ^ (std::uint64_t{1} << bit);
        what = "bit " + std::to_string(bit);
        break;
      }
      default:
        v = static_cast<std::uint64_t>(rng.intIn(0, 1 << 20));
        what = "random " + std::to_string(v);
        break;
    }
    writeField(img, f, v);
    return f.name + " <- " + what;
}

TEST(MvqiFuzz, StructuralMutationsFailCleanly)
{
    const std::vector<std::uint8_t> base =
        io::buildMvqiImage(makeGoldenModel(), goldenWriteOptions());
    const std::vector<Field> fs = structuralFields(base);

    const std::int64_t iters = kIterations;
    Rng rng(0x5eed15);
    std::int64_t loaded = 0;
    std::int64_t rejected = 0;
    for (std::int64_t it = 0; it < iters; ++it) {
        std::vector<std::uint8_t> img = base;
        std::ostringstream log;
        log << "iteration " << it << ":";
        const std::int64_t n = rng.intIn(1, 3);
        for (std::int64_t k = 0; k < n; ++k) {
            const Field &f = fs[static_cast<std::size_t>(
                rng.intIn(0, static_cast<std::int64_t>(fs.size()) - 1))];
            log << " [" << mutateField(img, fs, f, rng) << "]";
        }
        if (rng.intIn(0, 7) == 0) {
            // A length mutation: cut the file and make file_bytes agree,
            // so only the section bounds checks stand in the way.
            const std::uint64_t keep = static_cast<std::uint64_t>(rng.intIn(
                64, static_cast<std::int64_t>(img.size()) - 1));
            img.resize(keep);
            std::memcpy(img.data() + 40, &keep, sizeof(keep));
            log << " [truncate to " << keep << "]";
        }
        SCOPED_TRACE(log.str());
        writeBytes(img, kPath);
        try {
            loadAndUse(kPath);
            ++loaded;
        } catch (const FatalError &) {
            ++rejected;
        }
        // Any other exception escapes into gtest and fails the test.
    }
    std::remove(kPath);
    EXPECT_EQ(loaded + rejected, iters);
    EXPECT_GT(rejected, 0);
    std::cout << "mvqi fuzz: " << iters << " mutants, " << loaded
              << " loaded, " << rejected << " rejected\n";
}

} // namespace
} // namespace mvq::core
