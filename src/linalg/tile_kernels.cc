/**
 * @file
 * Portable and AVX-512F column-tile kernels, and the run-time choice
 * between them.
 */
#include "linalg/tile_kernels.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DOSA_AVX512_TILES 1
#include <immintrin.h>
#endif

namespace dosa::detail {

namespace {

template <size_t W, class Body>
void
tailTiles(size_t c0, size_t count, Body &body)
{
    if (count - c0 >= W) {
        body.template operator()<W>(c0);
        c0 += W;
    }
    if constexpr (W > 1)
        tailTiles<W / 2>(c0, count, body);
}

/**
 * Cover columns [0, count) with full MaxW-wide tiles and then at most
 * one tile each of MaxW/2, MaxW/4, ..., 1 columns, calling
 * `body.template operator()<W>(c0)` for each. A tile's width is a
 * compile-time constant, so a body that keeps one accumulator per
 * column in a `double acc[W]` gets them in registers. Columns must be
 * independent: tiling then never changes a result bit.
 */
template <size_t MaxW, class Body>
void
forEachColumnTile(size_t count, Body &&body)
{
    size_t c0 = 0;
    for (; c0 + MaxW <= count; c0 += MaxW)
        body.template operator()<MaxW>(c0);
    tailTiles<MaxW / 2>(c0, count, body);
}

/** Forward substitution over columns [c0, c0 + W) of the block. */
template <size_t W>
void
forwardTile(const Matrix &l, double *block, size_t nrhs, size_t c0)
{
    // Row i's running accumulators stay in registers across the k
    // loop, so each column's chain pays one subtract latency per k
    // rather than a store and reload.
    for (size_t i = 0; i < l.rows(); ++i) {
        double *yi = block + i * nrhs + c0;
        double acc[W];
        for (size_t c = 0; c < W; ++c)
            acc[c] = yi[c];
        for (size_t k = 0; k < i; ++k) {
            const double lik = l(i, k);
            const double *yk = block + k * nrhs + c0;
            for (size_t c = 0; c < W; ++c)
                acc[c] -= lik * yk[c];
        }
        const double lii = l(i, i);
        for (size_t c = 0; c < W; ++c)
            yi[c] = acc[c] / lii;
    }
}

/** Squared distances of queries [c0, c0 + W) of the tile. */
template <size_t W>
void
distanceTile(const double *x, size_t n, size_t dim, const double *qt,
             size_t w, size_t c0, double *d2)
{
    for (size_t i = 0; i < n; ++i) {
        const double *xi = x + i * dim;
        double acc[W] = {};
        for (size_t f = 0; f < dim; ++f) {
            const double *qf = qt + f * w + c0;
            for (size_t c = 0; c < W; ++c) {
                double d = qf[c] - xi[f];
                acc[c] += d * d;
            }
        }
        for (size_t c = 0; c < W; ++c)
            d2[i * w + c0 + c] = acc[c];
    }
}

#ifdef DOSA_AVX512_TILES

// The same loops over V independent 8-lane vectors. Intrinsics are
// plain vector arithmetic to the compiler, so without
// -ffp-contract=off a multiply feeding an add may become one FMA and
// round once instead of twice. The loops over v are unrolled
// explicitly: -O2 leaves them rolled, which keeps the accumulators
// in memory and halves the solve's speed.

template <size_t V>
__attribute__((target("avx512f"))) void
forwardTileAvx512(const Matrix &l, double *block, size_t nrhs, size_t c0)
{
    const size_t n = l.rows();
    const double *lrow = l.data().data();
    for (size_t i = 0; i < n; ++i, lrow += n) {
        double *yi = block + i * nrhs + c0;
        __m512d acc[V];
#pragma GCC unroll 4
        for (size_t v = 0; v < V; ++v)
            acc[v] = _mm512_loadu_pd(yi + 8 * v);
        for (size_t k = 0; k < i; ++k) {
            const __m512d lik = _mm512_set1_pd(lrow[k]);
            const double *yk = block + k * nrhs + c0;
#pragma GCC unroll 4
            for (size_t v = 0; v < V; ++v)
                acc[v] = _mm512_sub_pd(acc[v], _mm512_mul_pd(lik,
                        _mm512_loadu_pd(yk + 8 * v)));
        }
        const __m512d lii = _mm512_set1_pd(lrow[i]);
#pragma GCC unroll 4
        for (size_t v = 0; v < V; ++v)
            _mm512_storeu_pd(yi + 8 * v, _mm512_div_pd(acc[v], lii));
    }
}

template <size_t V>
__attribute__((target("avx512f"))) void
distanceTileAvx512(const double *x, size_t n, size_t dim, const double *qt,
                   size_t w, size_t c0, double *d2)
{
    for (size_t i = 0; i < n; ++i) {
        const double *xi = x + i * dim;
        __m512d acc[V];
#pragma GCC unroll 4
        for (size_t v = 0; v < V; ++v)
            acc[v] = _mm512_setzero_pd();
        for (size_t f = 0; f < dim; ++f) {
            const __m512d xf = _mm512_set1_pd(xi[f]);
            const double *qf = qt + f * w + c0;
#pragma GCC unroll 4
            for (size_t v = 0; v < V; ++v) {
                const __m512d d = _mm512_sub_pd(
                        _mm512_loadu_pd(qf + 8 * v), xf);
                acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(d, d));
            }
        }
#pragma GCC unroll 4
        for (size_t v = 0; v < V; ++v)
            _mm512_storeu_pd(d2 + i * w + c0 + 8 * v, acc[v]);
    }
}

#endif // DOSA_AVX512_TILES

} // namespace

TileIsa
hostTileIsa()
{
#ifdef DOSA_AVX512_TILES
    static const TileIsa isa = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") ? TileIsa::Avx512
                                                 : TileIsa::Portable;
    }();
    return isa;
#else
    return TileIsa::Portable;
#endif
}

// Under Avx512, tiles of 32, 16 and 8 columns run as 4, 2 and 1
// vectors and a tail of under 8 columns takes the portable tiles.

void
forwardSubstitute([[maybe_unused]] TileIsa isa, const Matrix &l,
                  double *block, size_t nrhs)
{
#ifdef DOSA_AVX512_TILES
    if (isa == TileIsa::Avx512) {
        forEachColumnTile<32>(nrhs, [&]<size_t W>(size_t c0) {
            if constexpr (W >= 8)
                forwardTileAvx512<W / 8>(l, block, nrhs, c0);
            else
                forwardTile<W>(l, block, nrhs, c0);
        });
        return;
    }
#endif
    forEachColumnTile<8>(nrhs, [&]<size_t W>(size_t c0) {
        forwardTile<W>(l, block, nrhs, c0);
    });
}

void
squaredDistances([[maybe_unused]] TileIsa isa, const double *x, size_t n,
                 size_t dim, const double *qt, size_t w, double *d2)
{
#ifdef DOSA_AVX512_TILES
    if (isa == TileIsa::Avx512) {
        forEachColumnTile<32>(w, [&]<size_t W>(size_t c0) {
            if constexpr (W >= 8)
                distanceTileAvx512<W / 8>(x, n, dim, qt, w, c0, d2);
            else
                distanceTile<W>(x, n, dim, qt, w, c0, d2);
        });
        return;
    }
#endif
    forEachColumnTile<8>(w, [&]<size_t W>(size_t c0) {
        distanceTile<W>(x, n, dim, qt, w, c0, d2);
    });
}

} // namespace dosa::detail
