/**
 * @file
 * The materializing conv composition the layer forwards fuse away, kept
 * as a test oracle: per (batch, group) pair, im2col() the input slab and
 * run one caller-supplied gemm from the cols matrix into that pair's
 * output slab. Conv2d / CompressedConv2d forwards are checked against it.
 */

#ifndef MVQ_TESTS_CONV_ORACLE_HPP
#define MVQ_TESTS_CONV_ORACLE_HPP

#include <cstdint>
#include <functional>

#include "tensor/ops.hpp"

namespace mvq {

/**
 * NCHW conv output of `x` with `out_c` channels in `groups` groups;
 * `g.in_c` is the per-group input channel count. `group_gemm(grp, cols,
 * out)` must write the group's [out_c / groups, outH * outW] slab at
 * `out` from the [g.in_c * k_h * k_w, outH * outW] matrix at `cols`.
 */
inline Tensor
im2colConv(const Tensor &x, std::int64_t out_c, std::int64_t groups,
           const ConvGeom &g,
           const std::function<void(std::int64_t grp, const float *cols,
                                    float *out)> &group_gemm)
{
    const std::int64_t ohw = g.outH() * g.outW();
    const std::int64_t kg = out_c / groups;
    Tensor out(Shape({x.dim(0), out_c, g.outH(), g.outW()}));
    for (std::int64_t n = 0; n < x.dim(0); ++n) {
        for (std::int64_t grp = 0; grp < groups; ++grp) {
            const Tensor cols = im2col(x, n, g, grp * g.in_c);
            group_gemm(grp, cols.data(),
                       out.data() + (n * out_c + grp * kg) * ohw);
        }
    }
    return out;
}

} // namespace mvq

#endif // MVQ_TESTS_CONV_ORACLE_HPP
