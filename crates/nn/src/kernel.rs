//! The one dense matrix-product kernel behind every batched pass.
//!
//! `out[r][c] = init(r, c) + Σ_j a(r, j)·b[j][c]` over register tiles of
//! `MR` rows by up to `NR` columns.
//!
//! # Bit-identity rules
//!
//! A batched pass must reproduce the per-sample code bit for bit, so the
//! trained agent never changes (DESIGN.md §4l):
//!
//! 1. Each (sample, output) dot product sums over inputs in index order,
//!    starting from `-0.0`, the start value of `Iterator::sum::<f64>` on
//!    rustc 1.95. The bias is then added as `b + acc`.
//! 2. `gw` and `gb` accumulate samples in sample order.
//! 3. The input gradient sums over outputs in order, starting from `+0.0`.
//! 4. No `mul_add`, no `target-cpu` or other target-feature flags, no
//!    reassociation.
//!
//! So every `(r, c)` keeps its own accumulator and adds its `j` terms one
//! at a time in order. A tile vectorises across the columns of `b`
//! (outputs or inputs), never across a summation.
//!
//! Before a row block is multiplied, its `a` values are packed into a
//! stack panel in `j`-major order, each value stored twice so one load
//! yields it in both SIMD lanes. The panel holds `KC` values of `j`; a
//! longer sum is taken `KC` terms at a time, parking the partial sums in
//! `out` in between, which changes no bit of the result.

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile.
const NR: usize = 4;
/// Summation terms per packed panel.
const KC: usize = 128;

/// How the left operand `a` is laid out in its buffer.
#[derive(Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// `a(r, j) = data[r·ld + j]`: one row per output row.
    Rows(&'a [f64], usize),
    /// `a(r, j) = data[j·ld + r]`: the transpose of a row-major matrix.
    Cols(&'a [f64], usize),
}

/// Where each accumulator starts.
#[derive(Clone, Copy)]
pub(crate) enum Init {
    /// A fixed start value (`-0.0` for a forward dot product, the start
    /// value of `Iterator::sum::<f64>`; `+0.0` for an input gradient).
    Value(f64),
    /// The current contents of `out` (parameter-gradient accumulation).
    Accumulate,
}

/// `out (rows × cols, row-major) = init + a (rows × k) · b (k × cols,
/// row-major)`, each entry summed over `j` in order.
pub(crate) fn gemm(
    a: Lhs<'_>,
    b: &[f64],
    rows: usize,
    k: usize,
    cols: usize,
    out: &mut [f64],
    init: Init,
) {
    assert!(
        b.len() >= k * cols && out.len() >= rows * cols,
        "gemm shape"
    );
    let mut panel = [[0.0f64; 2]; KC * MR];
    let mut k0 = 0;
    loop {
        let kc = KC.min(k - k0);
        let init = if k0 == 0 { init } else { Init::Accumulate };
        let b = &b[k0 * cols..(k0 + kc) * cols];
        let mut r = 0;
        while r < rows {
            let rb = if r + MR <= rows { MR } else { 1 };
            let panel = &mut panel[..kc * rb];
            pack(a, r, rb, k0, panel);
            let out = &mut out[r * cols..(r + rb) * cols];
            if rb == MR {
                row_block::<MR>(panel, b, cols, out, init);
            } else {
                row_block::<1>(panel, b, cols, out, init);
            }
            r += rb;
        }
        k0 += kc;
        if k0 >= k {
            break;
        }
    }
}

/// `panel[j·rb + rr] = a(r0 + rr, k0 + j)`, twice.
fn pack(a: Lhs<'_>, r0: usize, rb: usize, k0: usize, panel: &mut [[f64; 2]]) {
    for (j, col) in panel.chunks_exact_mut(rb).enumerate() {
        for (rr, v) in col.iter_mut().enumerate() {
            let x = match a {
                Lhs::Rows(data, ld) => data[(r0 + rr) * ld + k0 + j],
                Lhs::Cols(data, ld) => data[(k0 + j) * ld + r0 + rr],
            };
            *v = [x; 2];
        }
    }
}

#[inline(always)]
fn row_block<const R: usize>(
    panel: &[[f64; 2]],
    b: &[f64],
    cols: usize,
    out: &mut [f64],
    init: Init,
) {
    let mut c = 0;
    while c + NR <= cols {
        tile::<R, NR>(panel, b, cols, c, out, init);
        c += NR;
    }
    if c + 2 <= cols {
        tile::<R, 2>(panel, b, cols, c, out, init);
        c += 2;
    }
    if c < cols {
        tile::<R, 1>(panel, b, cols, c, out, init);
    }
}

#[inline(always)]
fn tile<const R: usize, const C: usize>(
    panel: &[[f64; 2]],
    b: &[f64],
    cols: usize,
    c0: usize,
    out: &mut [f64],
    init: Init,
) {
    let mut acc: [[f64; C]; R] = match init {
        Init::Value(v) => [[v; C]; R],
        Init::Accumulate => {
            std::array::from_fn(|rr| out[rr * cols + c0..][..C].try_into().expect("tile"))
        }
    };
    for (ap, brow) in panel.chunks_exact(R).zip(b.chunks_exact(cols)) {
        let bv: &[f64; C] = brow[c0..c0 + C].try_into().expect("tile");
        for rr in 0..R {
            for cc in 0..C {
                acc[rr][cc] += ap[rr][cc % 2] * bv[cc];
            }
        }
    }
    for (rr, row) in acc.iter().enumerate() {
        out[rr * cols + c0..][..C].copy_from_slice(row);
    }
}
