// Known-bad snippet for mvq_lint --selftest: a bench hand-rolls a
// compressed layer's symbols instead of calling
// models::synthesizeCompressed. NOT compiled; linted only.
#include "core/compressed_layer.hpp"

void
fillSymbols(mvq::core::CompressedLayer &l, std::int64_t ng)
{
    for (std::int64_t j = 0; j < ng; ++j) {
        l.assignments.push_back(static_cast<std::int32_t>(j % 256));
        l.mask_codes.push_back(static_cast<std::uint32_t>(j % 1820));
    }
}
