"""C source of the fused per-level family kernels.

The numpy engines in :mod:`repro.netlist.plan` execute one level as a
chain of whole-matrix passes: gather the stacked inputs, apply the
inversion masks, combine values, combine events, mask the gathered
settles, take the max-plus and add the delay tile -- each a separate
trip over a ``(rows, N)`` plane, which is why the settle pipeline runs
at memory bandwidth.  The kernels below fuse that chain: one pass per
gate over its input rows computes values, events and settles together,
so every byte of the level's state is touched exactly once.

The source is *generated* from the template here (no vendored binary
or hand-maintained .so): :func:`render_source` instantiates it, with
``double`` settles, and the build layer compiles it on demand, keyed
by the SHA-256 of exactly what the compiler saw (see
:func:`source_hash`).  The semantics are line-for-line the compiled
numpy engines':

* and-family: ``((a ^ ma) & (b ^ mb)) ^ mo`` with the uniform
  sensitized rule ``eff_a = ea & (eb | (b ^ mb))``;
* xor-family: never masks;
* mux (ins stacked ``[a..., b..., s...]``): the select rules of the
  reference engine, including the stable-select data mask and the
  equal-stable-legs select mask.

Sensitized settle rows are stored *raw* (``latest + delay``) exactly
like the numpy engine -- the caller masks by events at extraction --
and masking a gathered settle is a select (``eff ? s : 0``), which is
bit-identical to the engine's multiply-by-bool for the non-negative
finite settles both engines produce.

The stage kernels (stimulus unpack, the two propagate models, output
extract) are ``static``: the library exports exactly one entry point,
``repro_run``, which composes them over one column range.  ABI 3
gives that range an output row stride; a propagate passes the one
range covering the whole block.  The kernels are bit-identical to
``engine="compiled"``.
"""

from __future__ import annotations

import hashlib

#: Bumped whenever the kernel ABI (signatures, descriptor layout)
#: changes; part of the source text, so it also rotates the cache key.
KERNEL_ABI = 3

_TEMPLATE = r"""
/* Fused per-level family kernels over the CompiledPlan SoA arrays.
 * Generated by repro.native.source (ABI {abi}); timing dtype: double.
 *
 * Layout contract (see repro.native.lowering.NativeDesc):
 *   - state matrices are (n_nets, N) with a common row stride
 *     (elements) and unit column stride; shard calls pass the column
 *     base pointer and their own n_cols;
 *   - `ins` stacks each op's input rows [a..., b...] (muxes append
 *     [s...]); `ins_off[o]` is op o's offset into it;
 *   - `flags`/`delays` are indexed by output row minus `gate_row0`
 *     (flags bit0 = mask a, bit1 = mask b, bit2 = mask out);
 *   - within an op, every input row is strictly below `lo[o]`
 *     (levelized renumbering), so the restrict-qualified output rows
 *     never alias the inputs.
 */
#include <stdint.h>

#define REAL double

static inline REAL rmax(REAL a, REAL b) {{ return a > b ? a : b; }}

int repro_kernel_abi(void) {{ return {abi}; }}

static void repro_propagate_sensitized(
    int64_t n_ops, const int32_t *family,
    const int64_t *lo, const int64_t *hi, const int64_t *ins_off,
    const int32_t *ins, const uint8_t *flags, int64_t gate_row0,
    uint8_t *values, uint8_t *events, REAL *settles,
    const REAL *delays, int64_t stride, int64_t n_cols)
{{
    for (int64_t o = 0; o < n_ops; o++) {{
        const int64_t row_lo = lo[o];
        const int64_t n = hi[o] - row_lo;
        const int32_t *ia = ins + ins_off[o];
        const int32_t *ib = ia + n;
        const int32_t *isel = ib + n;
        const int32_t fam = family[o];
        for (int64_t g = 0; g < n; g++) {{
            const int64_t out = row_lo + g;
            uint8_t *restrict vo = values + out * stride;
            uint8_t *restrict eo = events + out * stride;
            REAL *restrict so = settles + out * stride;
            const REAL d = delays[out - gate_row0];
            const uint8_t fl = flags[out - gate_row0];
            const uint8_t ma = fl & 1u;
            const uint8_t mb = (fl >> 1) & 1u;
            const uint8_t mo = (fl >> 2) & 1u;
            const uint8_t *va = values + (int64_t)ia[g] * stride;
            const uint8_t *vb = values + (int64_t)ib[g] * stride;
            const uint8_t *ea = events + (int64_t)ia[g] * stride;
            const uint8_t *eb = events + (int64_t)ib[g] * stride;
            const REAL *sa = settles + (int64_t)ia[g] * stride;
            const REAL *sb = settles + (int64_t)ib[g] * stride;
            if (fam == 0) {{          /* and-family */
                #pragma omp simd
                for (int64_t j = 0; j < n_cols; j++) {{
                    const uint8_t a = va[j] ^ ma, b = vb[j] ^ mb;
                    const uint8_t eaj = ea[j], ebj = eb[j];
                    const uint8_t effa = eaj & (ebj | b);
                    const uint8_t effb = ebj & (eaj | a);
                    vo[j] = (a & b) ^ mo;
                    eo[j] = effa | effb;
                    so[j] = rmax(effa ? sa[j] : (REAL)0,
                                 effb ? sb[j] : (REAL)0) + d;
                }}
            }} else if (fam == 1) {{  /* xor-family: never masks */
                #pragma omp simd
                for (int64_t j = 0; j < n_cols; j++) {{
                    const uint8_t eaj = ea[j], ebj = eb[j];
                    vo[j] = (va[j] ^ vb[j]) ^ mo;
                    eo[j] = eaj | ebj;
                    so[j] = rmax(eaj ? sa[j] : (REAL)0,
                                 ebj ? sb[j] : (REAL)0) + d;
                }}
            }} else {{                /* mux: ins [a..., b..., s...] */
                const uint8_t *vs = values + (int64_t)isel[g] * stride;
                const uint8_t *es = events + (int64_t)isel[g] * stride;
                const REAL *ss = settles + (int64_t)isel[g] * stride;
                #pragma omp simd
                for (int64_t j = 0; j < n_cols; j++) {{
                    const uint8_t a = va[j], b = vb[j], s = vs[j];
                    const uint8_t eaj = ea[j], ebj = eb[j], esj = es[j];
                    const uint8_t diff = a ^ b;
                    const uint8_t away_a = (esj ^ 1u) & s;
                    const uint8_t away_b = (esj ^ 1u) & (s ^ 1u);
                    const uint8_t legs_eq =
                        (eaj ^ 1u) & (ebj ^ 1u) & (diff ^ 1u);
                    const uint8_t effa = eaj & (away_a ^ 1u);
                    const uint8_t effb = ebj & (away_b ^ 1u);
                    const uint8_t effs = esj & (legs_eq ^ 1u);
                    vo[j] = a ^ (s & diff);
                    eo[j] = effa | effb | effs;
                    so[j] = rmax(rmax(effa ? sa[j] : (REAL)0,
                                      effb ? sb[j] : (REAL)0),
                                 effs ? ss[j] : (REAL)0) + d;
                }}
            }}
        }}
    }}
}}

static void repro_propagate_value_change(
    int64_t n_ops, const int32_t *family,
    const int64_t *lo, const int64_t *hi, const int64_t *ins_off,
    const int32_t *ins, const uint8_t *flags, int64_t gate_row0,
    uint8_t *prev, uint8_t *values, uint8_t *events, REAL *settles,
    const REAL *delays, int64_t stride, int64_t n_cols)
{{
    for (int64_t o = 0; o < n_ops; o++) {{
        const int64_t row_lo = lo[o];
        const int64_t n = hi[o] - row_lo;
        const int32_t *ia = ins + ins_off[o];
        const int32_t *ib = ia + n;
        const int32_t *isel = ib + n;
        const int32_t fam = family[o];
        for (int64_t g = 0; g < n; g++) {{
            const int64_t out = row_lo + g;
            uint8_t *restrict po = prev + out * stride;
            uint8_t *restrict vo = values + out * stride;
            uint8_t *restrict eo = events + out * stride;
            REAL *restrict so = settles + out * stride;
            const REAL d = delays[out - gate_row0];
            const uint8_t fl = flags[out - gate_row0];
            const uint8_t ma = fl & 1u;
            const uint8_t mb = (fl >> 1) & 1u;
            const uint8_t mo = (fl >> 2) & 1u;
            const uint8_t *pa = prev + (int64_t)ia[g] * stride;
            const uint8_t *pb = prev + (int64_t)ib[g] * stride;
            const uint8_t *va = values + (int64_t)ia[g] * stride;
            const uint8_t *vb = values + (int64_t)ib[g] * stride;
            const REAL *sa = settles + (int64_t)ia[g] * stride;
            const REAL *sb = settles + (int64_t)ib[g] * stride;
            if (fam == 0) {{          /* and-family */
                #pragma omp simd
                for (int64_t j = 0; j < n_cols; j++) {{
                    const uint8_t p = ((pa[j] ^ ma) & (pb[j] ^ mb)) ^ mo;
                    const uint8_t q = ((va[j] ^ ma) & (vb[j] ^ mb)) ^ mo;
                    const uint8_t ch = p ^ q;
                    po[j] = p;
                    vo[j] = q;
                    eo[j] = ch;
                    so[j] = ch ? rmax(sa[j], sb[j]) + d : (REAL)0;
                }}
            }} else if (fam == 1) {{  /* xor-family */
                #pragma omp simd
                for (int64_t j = 0; j < n_cols; j++) {{
                    const uint8_t p = (pa[j] ^ pb[j]) ^ mo;
                    const uint8_t q = (va[j] ^ vb[j]) ^ mo;
                    const uint8_t ch = p ^ q;
                    po[j] = p;
                    vo[j] = q;
                    eo[j] = ch;
                    so[j] = ch ? rmax(sa[j], sb[j]) + d : (REAL)0;
                }}
            }} else {{                /* mux: ins [a..., b..., s...] */
                const uint8_t *ps = prev + (int64_t)isel[g] * stride;
                const uint8_t *vs = values + (int64_t)isel[g] * stride;
                const REAL *ss = settles + (int64_t)isel[g] * stride;
                #pragma omp simd
                for (int64_t j = 0; j < n_cols; j++) {{
                    const uint8_t p = pa[j] ^ (ps[j] & (pa[j] ^ pb[j]));
                    const uint8_t q = va[j] ^ (vs[j] & (va[j] ^ vb[j]));
                    const uint8_t ch = p ^ q;
                    po[j] = p;
                    vo[j] = q;
                    eo[j] = ch;
                    so[j] = ch ? rmax(rmax(ss[j], sa[j]), sb[j]) + d
                               : (REAL)0;
                }}
            }}
        }}
    }}
}}

/* Fused stimulus: unpack packed input words straight into the input
 * rows of the workspace -- value, event (prev != new) and settle
 * (event ? arrival : 0) in one pass per bus bit -- and seed the
 * constant rows 0/1.  Bit b of input bus w lives in `bit_row[k]` for
 * the k with bit_word[k] == w, bit_shift[k] == b; `prev_words` /
 * `new_words` are (n_buses, n_cols) uint64 with row stride
 * `words_stride`.  When `fill_prev` is nonzero (value-change model)
 * the unpacked previous values are also stored into `prev`; the
 * sensitized model passes fill_prev = 0 and prev may be NULL. */
static void repro_stimulus(
    int64_t n_bits, const int64_t *bit_row, const int64_t *bit_word,
    const int64_t *bit_shift,
    const uint64_t *prev_words, const uint64_t *new_words,
    int64_t words_stride, const REAL *arrival, int64_t fill_prev,
    uint8_t *prev, uint8_t *values, uint8_t *events, REAL *settles,
    int64_t stride, int64_t n_cols)
{{
    const REAL arr = *arrival;
    for (int64_t r = 0; r < 2; r++) {{  /* constant rows 0 and 1 */
        uint8_t *restrict vo = values + r * stride;
        uint8_t *restrict eo = events + r * stride;
        REAL *restrict so = settles + r * stride;
        #pragma omp simd
        for (int64_t j = 0; j < n_cols; j++) {{
            vo[j] = (uint8_t)r;
            eo[j] = 0u;
            so[j] = (REAL)0;
        }}
        if (fill_prev) {{
            uint8_t *restrict po = prev + r * stride;
            #pragma omp simd
            for (int64_t j = 0; j < n_cols; j++) po[j] = (uint8_t)r;
        }}
    }}
    for (int64_t k = 0; k < n_bits; k++) {{
        const uint64_t *pw = prev_words + bit_word[k] * words_stride;
        const uint64_t *nw = new_words + bit_word[k] * words_stride;
        const int64_t shift = bit_shift[k];
        uint8_t *restrict vo = values + bit_row[k] * stride;
        uint8_t *restrict eo = events + bit_row[k] * stride;
        REAL *restrict so = settles + bit_row[k] * stride;
        if (fill_prev) {{
            uint8_t *restrict po = prev + bit_row[k] * stride;
            #pragma omp simd
            for (int64_t j = 0; j < n_cols; j++) {{
                const uint8_t p = (uint8_t)((pw[j] >> shift) & 1u);
                const uint8_t q = (uint8_t)((nw[j] >> shift) & 1u);
                const uint8_t ch = p ^ q;
                po[j] = p;
                vo[j] = q;
                eo[j] = ch;
                so[j] = ch ? arr : (REAL)0;
            }}
        }} else {{
            #pragma omp simd
            for (int64_t j = 0; j < n_cols; j++) {{
                const uint8_t p = (uint8_t)((pw[j] >> shift) & 1u);
                const uint8_t q = (uint8_t)((nw[j] >> shift) & 1u);
                const uint8_t ch = p ^ q;
                vo[j] = q;
                eo[j] = ch;
                so[j] = ch ? arr : (REAL)0;
            }}
        }}
    }}
}}

/* Fused extract: gather every output bus straight out of the
 * workspace rows -- values packed back into (n_out_buses, n_cols)
 * uint64 words, per-bit arrivals into a dense (n_bits, n_cols) REAL
 * matrix.  `mask_events` selects the sensitized rule (arrival =
 * event ? settle : 0 -- bit-identical to the numpy engine's
 * multiply-by-bool for the non-negative finite settles it produces);
 * the value-change engine stores settles already masked, so the raw
 * row is copied.  Output buffers have unit column stride and row
 * stride `out_stride` (>= n_cols: a shard writes its own columns of
 * the full-width buffers); the word rows are rebuilt from zero here,
 * so out_words need not arrive zeroed. */
static void repro_extract(
    int64_t n_bits, const int64_t *bit_row, const int64_t *bit_word,
    const int64_t *bit_shift, int64_t n_words,
    const uint8_t *values, const uint8_t *events, const REAL *settles,
    int64_t stride, int64_t mask_events, int64_t n_cols,
    uint64_t *out_words, REAL *out_arrivals, int64_t out_stride)
{{
    for (int64_t w = 0; w < n_words; w++) {{
        uint64_t *restrict ow = out_words + w * out_stride;
        #pragma omp simd
        for (int64_t j = 0; j < n_cols; j++) ow[j] = 0u;
    }}
    for (int64_t k = 0; k < n_bits; k++) {{
        const uint8_t *vr = values + bit_row[k] * stride;
        const uint8_t *er = events + bit_row[k] * stride;
        const REAL *sr = settles + bit_row[k] * stride;
        const int64_t shift = bit_shift[k];
        uint64_t *restrict ow = out_words + bit_word[k] * out_stride;
        REAL *restrict oa = out_arrivals + k * out_stride;
        if (mask_events) {{
            #pragma omp simd
            for (int64_t j = 0; j < n_cols; j++) {{
                ow[j] |= (uint64_t)vr[j] << shift;
                oa[j] = er[j] ? sr[j] : (REAL)0;
            }}
        }} else {{
            #pragma omp simd
            for (int64_t j = 0; j < n_cols; j++) {{
                ow[j] |= (uint64_t)vr[j] << shift;
                oa[j] = sr[j];
            }}
        }}
    }}
}}

/* The library's one entry point: stimulus -> levelized propagate ->
 * extract over one column range, in ONE call.  Pure composition of the
 * static stage kernels above -- no new logic to diverge -- so the
 * output rows are still cache-hot from the last level when the
 * extract pass reads them.  `value_change` selects the glitch model
 * end to end: it is the stimulus `fill_prev`, the propagate kernel,
 * and the inverse of the extract `mask_events` (the value-change
 * engine stores settles already masked).  Every matrix pointer is the
 * range's first column; `words_stride`, `stride` and `out_stride` are
 * the full-width row strides, so N disjoint ranges across threads
 * compose to exactly the serial call. */
void repro_run(
    int64_t n_in_bits, const int64_t *in_row, const int64_t *in_word,
    const int64_t *in_shift,
    const uint64_t *prev_words, const uint64_t *new_words,
    int64_t words_stride, const REAL *arrival,
    int64_t n_ops, const int32_t *family,
    const int64_t *lo, const int64_t *hi, const int64_t *ins_off,
    const int32_t *ins, const uint8_t *flags, int64_t gate_row0,
    const REAL *delays,
    int64_t n_out_bits, const int64_t *out_row,
    const int64_t *out_word, const int64_t *out_shift,
    int64_t n_out_words, uint64_t *out_words, REAL *out_arrivals,
    int64_t out_stride, int64_t value_change, uint8_t *prev,
    uint8_t *values, uint8_t *events, REAL *settles,
    int64_t stride, int64_t n_cols)
{{
    repro_stimulus(n_in_bits, in_row, in_word, in_shift, prev_words,
                   new_words, words_stride, arrival, value_change,
                   prev, values, events, settles, stride, n_cols);
    if (value_change)
        repro_propagate_value_change(n_ops, family, lo, hi, ins_off,
                                     ins, flags, gate_row0, prev,
                                     values, events, settles, delays,
                                     stride, n_cols);
    else
        repro_propagate_sensitized(n_ops, family, lo, hi, ins_off,
                                   ins, flags, gate_row0, values,
                                   events, settles, delays, stride,
                                   n_cols);
    repro_extract(n_out_bits, out_row, out_word, out_shift,
                  n_out_words, values, events, settles, stride,
                  value_change ? 0 : 1, n_cols, out_words,
                  out_arrivals, out_stride);
}}
"""


def render_source() -> str:
    """Instantiate the kernel template."""
    return _TEMPLATE.format(abi=KERNEL_ABI)


def source_hash(source: str, compiler_version: str,
                cflags: tuple[str, ...]) -> str:
    """SHA-256 over exactly what the compiler saw.

    Covers the rendered source text, the compiler identity string and
    the flag vector: changing any of them (template edit, toolchain
    upgrade, new flags) keys a fresh build instead of serving a stale
    cached library.
    """
    blob = "\x00".join([source, compiler_version, *cflags])
    return hashlib.sha256(blob.encode()).hexdigest()
