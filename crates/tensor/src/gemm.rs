//! The register-tiled GEMM behind [`matmul`](crate::matmul),
//! [`conv2d`](crate::conv2d) and [`conv2d_at`](crate::conv2d_at).
//!
//! Each output `C[i][j]` is an `f64` accumulator that starts at `+0` and
//! adds `A[i][k]·B[k][j]` for `k = 0..N` in order — the same sum, in the
//! same order, as the scalar reference loop, so the result is
//! bit-identical (DESIGN.md §16). Tiling only changes *which* outputs
//! are in flight together: 4 rows × 8 columns of accumulators stay in
//! registers across the whole `k` sweep, and the 8 columns are
//! independent vector lanes (the 1- and 2-row panels left over at the
//! bottom use 32- and 16-column tiles, keeping as many add chains in
//! flight).
//!
//! `conv2d` is an implicit GEMM: its filter bank is widened to `f64`
//! once per call into zero-padded [`Panels`] of 8 columns, so the `k`
//! loop only loads, and its left operand is a zero-padded `f64` copy of
//! each image whose receptive fields the tiles read in place (an
//! [`Lhs`]). `matmul` streams its weights instead ([`Weights`]).
//!
//! One body is compiled twice — portable, and under
//! `#[target_feature(enable = "avx2,fma")]` — and the variant is chosen
//! once per process with `is_x86_feature_detected!`. The FMA variant
//! accumulates with `mul_add`: an `f32 × f32` product is exact in `f64`,
//! so rounding `acc + a·b` once is what the unfused add does too.

use crate::scalar;
use std::sync::OnceLock;

/// Rows of accumulators per register tile.
const MR: usize = 4;
/// Columns of accumulators per register tile (one vector lane each).
const NR: usize = 8;

/// The weight operand `B (N × P)` widened to `f64` once per call:
/// panel `q` holds columns `q·NR .. q·NR + NR` as `N` rows of `NR`
/// lanes, with the lanes past column `P` zero.
pub(crate) struct Panels {
    data: Vec<[f64; NR]>,
    n: usize,
    p: usize,
}

impl Panels {
    /// Packs row-major `b` (`N·P`).
    pub(crate) fn pack(b: &[f32], n: usize, p: usize) -> Panels {
        debug_assert_eq!(b.len(), n * p);
        let mut data = vec![[0.0f64; NR]; p.div_ceil(NR) * n];
        // With no columns `b` is empty; `max(1)` only keeps
        // `chunks_exact` from rejecting a zero width.
        for (k, row) in b.chunks_exact(p.max(1)).enumerate() {
            let mut cols = row.chunks_exact(NR);
            for (q, c) in (&mut cols).enumerate() {
                let c: &[f32; NR] = c.try_into().expect("NR columns");
                data[q * n + k] = c.map(f64::from);
            }
            let tail = cols.remainder();
            if !tail.is_empty() {
                for (d, &v) in data[p / NR * n + k].iter_mut().zip(tail) {
                    *d = v as f64;
                }
            }
        }
        Panels { data, n, p }
    }

    fn panel(&self, q: usize) -> &[[f64; NR]] {
        &self.data[q * self.n..][..self.n]
    }
}

/// The weight operand `B (N × P)` as the tiles read it.
#[derive(Clone, Copy)]
pub(crate) enum Weights<'a> {
    /// Widened once per call into panels, which every row panel of the
    /// left operand re-reads (`conv2d`'s output locations).
    Packed(&'a Panels),
    /// Row-major `f32`, widened as the tiles read it (`matmul`). A
    /// dense forward's batch is a few rows, so its weights are read by
    /// one or two row panels, and packing a large bank — 384×32 is
    /// 96 KiB of `f64`, twice a typical L1d — costs more than the GEMM
    /// it would feed (DESIGN.md §16).
    Streamed { b: &'a [f32], p: usize },
}

impl Weights<'_> {
    fn cols(&self) -> usize {
        match self {
            Weights::Packed(panels) => panels.p,
            Weights::Streamed { p, .. } => *p,
        }
    }
}

/// Where the rows of the left operand `A (M × N)` lie in a widened
/// buffer. Row `i` is `segs` runs of `seg_len` values (so
/// `N = segs · seg_len`); run `g` starts at `start(i) + g · seg_stride`,
/// where `start(i) = ⌊i / per_line⌋ · line_step + (i mod per_line) ·
/// step`.
///
/// A plain matrix is one run per row ([`Lhs::matrix`]). A convolution's
/// output location `(i, j)` reads one run of `F·C` values per filter
/// row out of the zero-padded image, in the `(f1, f2, z)` order of the
/// reference patch matrix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub(crate) src: &'a [f64],
    pub(crate) per_line: usize,
    pub(crate) line_step: usize,
    pub(crate) step: usize,
    pub(crate) segs: usize,
    pub(crate) seg_len: usize,
    pub(crate) seg_stride: usize,
}

impl<'a> Lhs<'a> {
    /// A row-major `(M, N)` matrix.
    pub(crate) fn matrix(src: &'a [f64], n: usize) -> Self {
        Lhs {
            src,
            per_line: 1,
            line_step: n,
            step: 0,
            segs: 1,
            seg_len: n,
            seg_stride: 0,
        }
    }

    fn start(&self, i: usize) -> usize {
        i / self.per_line * self.line_step + i % self.per_line * self.step
    }
}

/// A GEMM body: `out (M·P) = lhs (M·N) × weights (N·P)`.
type GemmFn = fn(&Lhs, usize, Weights, &mut [f32]);

/// `out (M·P) = a (M·N) × b (N·P)` over row-major slices: the tiled
/// kernel when every weight is finite, else the scalar reference loop.
///
/// With finite weights the reference loop's `a == 0` skip is a no-op
/// (an exact `±0` product added to an accumulator that is never `-0`);
/// with an infinite weight it is not (`0 × inf` is NaN), so those calls
/// keep the reference loop.
pub(crate) fn matmul(a: &[f32], m: usize, n: usize, b: &[f32], p: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(out.len(), m * p);
    if !tiled_allowed(b) {
        return scalar::gemm(a, m, n, b, p, out);
    }
    // Widened one row panel at a time: a scratch the size of the whole
    // left operand (143×144 for a dense layer's dummy rows) costs more
    // to allocate and fault in than the panel-sized one.
    let mut wide = vec![0.0f64; MR.min(m) * n];
    for i in (0..m).step_by(MR) {
        let rows = MR.min(m - i);
        for (w, &v) in wide.iter_mut().zip(&a[i * n..(i + rows) * n]) {
            *w = v as f64;
        }
        let out = &mut out[i * p..(i + rows) * p];
        run(
            &Lhs::matrix(&wide, n),
            rows,
            Weights::Streamed { b, p },
            out,
        );
    }
}

/// Whether a call with weights `b` may take the tiled kernel: every
/// weight is finite and the caller is not inside
/// [`scalar::with_reference_kernels`].
pub(crate) fn tiled_allowed(b: &[f32]) -> bool {
    !scalar::reference_forced() && all_finite(b)
}

/// Runs this host's tiled body: `out (M·P) = lhs × weights`.
pub(crate) fn run(lhs: &Lhs, m: usize, weights: Weights, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * weights.cols());
    tiled()(lhs, m, weights, out)
}

/// Branch-free finiteness scan (vectorizes; no early exit).
fn all_finite(values: &[f32]) -> bool {
    const EXP: u32 = 0x7F80_0000;
    values
        .iter()
        .fold(true, |ok, v| ok & (v.to_bits() & EXP != EXP))
}

/// The tiled body for this host, detected once: the last of
/// [`bodies`].
fn tiled() -> GemmFn {
    static CHOSEN: OnceLock<GemmFn> = OnceLock::new();
    *CHOSEN.get_or_init(|| bodies().pop().expect("the portable body").1)
}

/// Every tiled body this host can run, by name, portable first; the
/// proptests check each of them against the reference loop.
pub(crate) fn bodies() -> Vec<(&'static str, GemmFn)> {
    let mut out: Vec<(&'static str, GemmFn)> = vec![("portable", tiled_portable)];
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        out.push(("avx2+fma", tiled_fma_checked));
    }
    out
}

/// The tiled body compiled for the baseline target (unfused adds).
fn tiled_portable(lhs: &Lhs, m: usize, weights: Weights, out: &mut [f32]) {
    tiled_body::<false>(lhs, m, weights, out)
}

/// The tiled body compiled with AVX2 and FMA enabled.
///
/// # Safety
///
/// The host must support AVX2 and FMA.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn tiled_fma(lhs: &Lhs, m: usize, weights: Weights, out: &mut [f32]) {
    tiled_body::<true>(lhs, m, weights, out)
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn tiled_fma_checked(lhs: &Lhs, m: usize, weights: Weights, out: &mut [f32]) {
    // SAFETY: `bodies` lists this entry only after detecting AVX2 and
    // FMA.
    unsafe { tiled_fma(lhs, m, weights, out) }
}

#[inline(always)]
fn tiled_body<const FMA: bool>(lhs: &Lhs, m: usize, weights: Weights, out: &mut [f32]) {
    let full = m / MR * MR;
    for i in (0..full).step_by(MR) {
        rows::<MR, 1, FMA>(lhs, i, weights, out);
    }
    // Fewer rows leave accumulator registers free: widen the tile so
    // enough independent add chains stay in flight.
    match m - full {
        1 => rows::<1, 4, FMA>(lhs, full, weights, out),
        2 => rows::<2, 2, FMA>(lhs, full, weights, out),
        3 => rows::<3, 1, FMA>(lhs, full, weights, out),
        _ => {}
    }
}

/// Output rows `i .. i + R`: tiles `Q` panels wide, then one-panel
/// tiles over whatever is left.
#[inline(always)]
fn rows<const R: usize, const Q: usize, const FMA: bool>(
    lhs: &Lhs,
    i: usize,
    weights: Weights,
    out: &mut [f32],
) {
    let p = weights.cols();
    let mut starts = [0; R];
    for (r, start) in starts.iter_mut().enumerate() {
        *start = lhs.start(i + r);
    }
    let out = &mut out[i * p..(i + R) * p];
    let mut q = 0;
    while (q + Q) * NR <= p {
        tile::<R, Q, FMA>(lhs, &starts, weights, q, Q * NR, out);
        q += Q;
    }
    while q * NR < p {
        tile::<R, 1, FMA>(lhs, &starts, weights, q, NR.min(p - q * NR), out);
        q += 1;
    }
}

/// One `R × Q·NR` register tile over panels `q0 .. q0 + Q`, of which
/// the first `width` columns are real; the rest accumulate zero weights
/// and are dropped.
#[inline(always)]
fn tile<const R: usize, const Q: usize, const FMA: bool>(
    lhs: &Lhs,
    starts: &[usize; R],
    weights: Weights,
    q0: usize,
    width: usize,
    out: &mut [f32],
) {
    let len = lhs.seg_len;
    let mut acc = [[[0.0f64; NR]; Q]; R];
    for g in 0..lhs.segs {
        // Plain loops rather than `array::from_fn`, so every slice's
        // length stays visible and the `t` loop carries no bounds check.
        let mut a: [&[f64]; R] = [&[]; R];
        for (r, a) in a.iter_mut().enumerate() {
            *a = &lhs.src[starts[r] + g * lhs.seg_stride..][..len];
        }
        let k0 = g * len;
        acc = match weights {
            Weights::Packed(panels) => {
                let mut b: [&[[f64; NR]]; Q] = [&[]; Q];
                for (q, b) in b.iter_mut().enumerate() {
                    *b = &panels.panel(q0 + q)[k0..][..len];
                }
                run_seg::<R, Q, FMA>(acc, &a, len, |t| std::array::from_fn(|q| b[q][t]))
            }
            Weights::Streamed { b, p } => {
                let (b, c0) = (&b[k0 * p..][..len * p], q0 * NR);
                // A full tile's column count is a constant, so its
                // widening compiles to plain vector converts.
                if width == Q * NR {
                    run_seg::<R, Q, FMA>(acc, &a, len, |t| widen(&b[t * p + c0..][..Q * NR]))
                } else {
                    run_seg::<R, Q, FMA>(acc, &a, len, |t| widen(&b[t * p + c0..][..width]))
                }
            }
        };
    }
    let p = weights.cols();
    for (r, acc) in acc.iter().enumerate() {
        let dst = &mut out[r * p + q0 * NR..][..width];
        for (dst, &v) in dst.iter_mut().zip(acc.iter().flatten()) {
            *dst = v as f32;
        }
    }
}

/// The tile's lanes of one weight row: `cols` widened, zero past its
/// end.
#[inline(always)]
fn widen<const Q: usize>(cols: &[f32]) -> [[f64; NR]; Q] {
    let mut lanes = [[0.0; NR]; Q];
    for (lane, &v) in lanes.as_flattened_mut().iter_mut().zip(cols) {
        *lane = v as f64;
    }
    lanes
}

/// `a·b + acc`, fused or not: the same bits either way, because the
/// product of two widened `f32`s is exact.
#[inline(always)]
fn madd<const FMA: bool>(a: f64, b: f64, acc: f64) -> f64 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Adds `len` consecutive `k` terms into the tile's accumulators, which
/// are taken and returned by value so they stay in registers across the
/// loop. `weights(t)` is the tile's `Q` panels of lanes at the `t`-th
/// term.
// `t` indexes all `R` rows and the weight source at once.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn run_seg<const R: usize, const Q: usize, const FMA: bool>(
    mut acc: [[[f64; NR]; Q]; R],
    a: &[&[f64]; R],
    len: usize,
    weights: impl Fn(usize) -> [[f64; NR]; Q],
) -> [[[f64; NR]; Q]; R] {
    for t in 0..len {
        let bt = weights(t);
        for r in 0..R {
            let ar = a[r][t];
            for q in 0..Q {
                for l in 0..NR {
                    acc[r][q][l] = madd::<FMA>(ar, bt[q][l], acc[r][q][l]);
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, relu_like, Awkward, OneOf};
    use proptest::prelude::*;

    const MAX_M: usize = 13;
    const MAX_N: usize = 40;
    const MAX_P: usize = 40;
    const FINITE: Awkward = Awkward { non_finite: false };
    const ANY: Awkward = Awkward { non_finite: true };
    /// Column counts: single, narrow tail, one tile, tile + tail, the
    /// 2- and 4-tile wide tiles of the short-row panels, and past them.
    const PS: OneOf<usize> = OneOf(&[1, 3, 8, 10, 16, 24, 32, 40]);

    fn reference(a: &[f32], m: usize, n: usize, b: &[f32], p: usize) -> Vec<u32> {
        let mut out = vec![0.0f32; m * p];
        scalar::gemm(a, m, n, b, p, &mut out);
        bits(&out)
    }

    #[test]
    fn the_fma_body_is_dispatched_and_tested_where_the_host_has_it() {
        let names: Vec<&str> = bodies().iter().map(|&(name, _)| name).collect();
        assert_eq!(names[0], "portable");
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            assert_eq!(names, ["portable", "avx2+fma"]);
        }
    }

    /// Every body, over both weight sources, against the reference loop.
    fn check_bodies(a: &[f32], m: usize, n: usize, b: &[f32], p: usize) {
        let (a, b) = (&a[..m * n], &b[..n * p]);
        let want = reference(a, m, n, b, p);
        let wide: Vec<f64> = a.iter().map(|&v| v as f64).collect();
        let panels = Panels::pack(b, n, p);
        for (name, body) in bodies() {
            for (source, weights) in [
                ("packed", Weights::Packed(&panels)),
                ("streamed", Weights::Streamed { b, p }),
            ] {
                let mut out = vec![f32::NAN; m * p];
                body(&Lhs::matrix(&wide, n), m, weights, &mut out);
                assert_eq!(
                    bits(&out),
                    want,
                    "{name} body, {source} weights, m={m} n={n} p={p}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tiled_bodies_match_reference_bits(
            m in 1usize..MAX_M + 1,
            n in 0usize..MAX_N + 1,
            p in PS,
            a in proptest::collection::vec(ANY, MAX_M * MAX_N),
            b in proptest::collection::vec(FINITE, MAX_N * MAX_P),
        ) {
            check_bodies(&a, m, n, &b, p);
        }

        #[test]
        fn tiled_bodies_match_reference_on_relu_like_inputs(
            m in 1usize..MAX_M + 1,
            n in 0usize..MAX_N + 1,
            p in PS,
            a in proptest::collection::vec(FINITE, MAX_M * MAX_N),
            b in proptest::collection::vec(FINITE, MAX_N * MAX_P),
        ) {
            check_bodies(&relu_like(&a), m, n, &b, p);
        }

        #[test]
        fn dispatch_matches_reference_with_non_finite_weights(
            m in 1usize..MAX_M + 1,
            n in 0usize..MAX_N + 1,
            p in PS,
            a in proptest::collection::vec(ANY, MAX_M * MAX_N),
            b in proptest::collection::vec(ANY, MAX_N * MAX_P),
        ) {
            let (a, b) = (&a[..m * n], &b[..n * p]);
            let mut out = vec![0.0f32; m * p];
            matmul(a, m, n, b, p, &mut out);
            prop_assert_eq!(bits(&out), reference(a, m, n, b, p));
        }
    }

    #[test]
    fn panels_zero_pad_the_last_columns() {
        let b: Vec<f32> = (0..2 * 10).map(|v| v as f32).collect();
        let panels = Panels::pack(&b, 2, 10);
        assert_eq!(panels.data.len(), 2 * 2);
        assert_eq!(
            panels.panel(0)[1],
            [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
        );
        assert_eq!(panels.panel(1)[0], [8.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(
            panels.panel(1)[1],
            [18.0, 19.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn non_finite_weights_select_the_reference_loop() {
        // 0 × inf is NaN: the reference loop skips the zero term and the
        // tiled bodies would not, so such weights must not reach them.
        let (a, b) = ([0.0f32, 1.0], [f32::INFINITY, 2.0]);
        let mut out = [0.0f32];
        matmul(&a, 1, 2, &b, 1, &mut out);
        assert_eq!(out[0], 2.0);
        let mut tiled = [0.0f32];
        let wide = [0.0f64, 1.0];
        let weights = Weights::Streamed { b: &b, p: 1 };
        tiled_portable(&Lhs::matrix(&wide, 2), 1, weights, &mut tiled);
        assert!(tiled[0].is_nan());
    }

    #[test]
    fn finiteness_scan() {
        assert!(all_finite(&[]));
        assert!(all_finite(&[0.0, -0.0, f32::MIN_POSITIVE / 2.0, f32::MAX]));
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            assert!(!all_finite(&[1.0, bad, 2.0]));
        }
    }
}
