//! The register-tiled GEMM behind [`matmul`](crate::matmul) and
//! [`conv2d`](crate::conv2d).
//!
//! Each output `C[i][j]` is an `f64` accumulator that starts at `+0` and
//! adds `A[i][k]·B[k][j]` for `k = 0..N` in order — the same sum, in the
//! same order, as the scalar reference loop, so the result is
//! bit-identical (DESIGN.md §16). Tiling only changes *which* outputs
//! are in flight together: 4 rows × 8 columns of accumulators stay in
//! registers across the whole `k` sweep, and the 8 columns are
//! independent vector lanes (the 1- and 2-row panels left over at the
//! bottom use 32- and 16-column tiles, keeping as many add chains in
//! flight). Products are not fused: an `f32 × f32`
//! product is exact in `f64`, so `mul_add` could not change a bit, but
//! on a target without FMA it compiles to a slow library call.
//!
//! One body is compiled twice — portable, and under
//! `#[target_feature(enable = "avx2")]` — and the variant is chosen once
//! per process with `is_x86_feature_detected!`.

use crate::scalar;
use std::sync::OnceLock;

/// Rows of accumulators per register tile.
const MR: usize = 4;
/// Columns of accumulators per register tile (one vector lane each).
const NR: usize = 8;

/// A GEMM body over row-major slices: `out (M·P) = a (M·N) × b (N·P)`.
type GemmFn = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);

/// The kernel one call runs, chosen from its weight operand `b`.
#[derive(Clone, Copy)]
pub(crate) struct Gemm(GemmFn);

impl Gemm {
    /// The tiled kernel when every weight is finite, else the scalar
    /// reference loop. With finite weights the reference loop's
    /// `a == 0` skip is a no-op (an exact `±0` product added to an
    /// accumulator that is never `-0`); with an infinite weight it is
    /// not (`0 × inf` is NaN), so those calls keep the reference loop.
    pub(crate) fn for_weights(b: &[f32]) -> Gemm {
        if scalar::reference_forced() || !all_finite(b) {
            Gemm(scalar::gemm)
        } else {
            Gemm(tiled())
        }
    }

    /// Runs the kernel; slice lengths must be `M·N`, `N·P` and `M·P`.
    pub(crate) fn run(self, a: &[f32], m: usize, n: usize, b: &[f32], p: usize, out: &mut [f32]) {
        debug_assert_eq!(a.len(), m * n);
        debug_assert_eq!(b.len(), n * p);
        debug_assert_eq!(out.len(), m * p);
        (self.0)(a, m, n, b, p, out)
    }
}

/// Branch-free finiteness scan (vectorizes; no early exit).
fn all_finite(values: &[f32]) -> bool {
    const EXP: u32 = 0x7F80_0000;
    values
        .iter()
        .fold(true, |ok, v| ok & (v.to_bits() & EXP != EXP))
}

/// The tiled body for this host, detected once.
fn tiled() -> GemmFn {
    static CHOSEN: OnceLock<GemmFn> = OnceLock::new();
    *CHOSEN.get_or_init(|| {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            return tiled_avx2_checked;
        }
        tiled_portable
    })
}

/// The tiled body compiled for the baseline target.
fn tiled_portable(a: &[f32], m: usize, n: usize, b: &[f32], p: usize, out: &mut [f32]) {
    tiled_body(a, m, n, b, p, out)
}

/// The tiled body compiled with AVX2 enabled.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn tiled_avx2(a: &[f32], m: usize, n: usize, b: &[f32], p: usize, out: &mut [f32]) {
    tiled_body(a, m, n, b, p, out)
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn tiled_avx2_checked(a: &[f32], m: usize, n: usize, b: &[f32], p: usize, out: &mut [f32]) {
    // SAFETY: `tiled` selects this entry only after detecting AVX2.
    unsafe { tiled_avx2(a, m, n, b, p, out) }
}

#[inline(always)]
fn tiled_body(a: &[f32], m: usize, n: usize, b: &[f32], p: usize, out: &mut [f32]) {
    // Rows are widened to f64 once per panel, vectorized, instead of
    // once per tile inside the k loop.
    let mut wide = vec![0.0f64; m.min(MR) * n];
    let full = m / MR * MR;
    for i in (0..full).step_by(MR) {
        let (a, out) = (&a[i * n..(i + MR) * n], &mut out[i * p..(i + MR) * p]);
        panel::<MR, NR>(a, n, b, p, out, &mut wide);
    }
    // Fewer rows leave accumulator registers free: widen the tile so
    // enough independent add chains stay in flight.
    let (a, out) = (&a[full * n..], &mut out[full * p..]);
    match m - full {
        1 => panel::<1, { 4 * NR }>(a, n, b, p, out, &mut wide),
        2 => panel::<2, { 2 * NR }>(a, n, b, p, out, &mut wide),
        3 => panel::<3, NR>(a, n, b, p, out, &mut wide),
        _ => {}
    }
}

/// `R` rows of the product: tiles `W` columns wide, then `NR`-wide tiles
/// over whatever is left.
#[inline(always)]
fn panel<const R: usize, const W: usize>(
    a: &[f32],
    n: usize,
    b: &[f32],
    p: usize,
    out: &mut [f32],
    wide: &mut [f64],
) {
    for (dst, &v) in wide[..R * n].iter_mut().zip(a) {
        *dst = v as f64;
    }
    let rows: [&[f64]; R] = std::array::from_fn(|r| &wide[r * n..][..n]);
    let mut j = 0;
    while j + W <= p {
        tile::<R, W>(&rows, n, b, p, j, W, out);
        j += W;
    }
    while j < p {
        tile::<R, NR>(&rows, n, b, p, j, NR.min(p - j), out);
        j += NR;
    }
}

/// One `R × W` register tile at column `j`, of which the first `width`
/// columns are real; the rest accumulate zero weights and are dropped.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    rows: &[&[f64]; R],
    n: usize,
    b: &[f32],
    p: usize,
    j: usize,
    width: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f64; W]; R];
    for k in 0..n {
        let src = &b[k * p + j..][..width];
        let mut bk = [0.0f64; W];
        for (dst, &v) in bk.iter_mut().zip(src) {
            *dst = v as f64;
        }
        for r in 0..R {
            let ak = rows[r][k];
            for (acc, &bv) in acc[r].iter_mut().zip(&bk) {
                *acc += ak * bv;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (dst, &v) in out[r * p + j..][..width].iter_mut().zip(acc) {
            *dst = v as f32;
        }
    }
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

    /// Every tiled body this host can run, by name.
    fn bodies() -> Vec<(&'static str, GemmFn)> {
        let mut out: Vec<(&'static str, GemmFn)> = vec![("portable", tiled_portable)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            out.push(("avx2", tiled_avx2_checked));
        }
        out
    }

    fn check_bodies(a: &[f32], m: usize, n: usize, b: &[f32], p: usize) {
        let (a, b) = (&a[..m * n], &b[..n * p]);
        let want = reference(a, m, n, b, p);
        for (name, body) in bodies() {
            let mut out = vec![f32::NAN; m * p];
            body(a, m, n, b, p, &mut out);
            assert_eq!(bits(&out), want, "{name} body, m={m} n={n} p={p}");
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
            Gemm::for_weights(b).run(a, m, n, b, p, &mut out);
            prop_assert_eq!(bits(&out), reference(a, m, n, b, p));
        }
    }

    #[test]
    fn non_finite_weights_select_the_reference_loop() {
        // 0 × inf is NaN: the reference loop skips the zero term and the
        // tiled bodies would not, so such weights must not reach them.
        let (a, b) = ([0.0f32, 1.0], [f32::INFINITY, 2.0]);
        let mut out = [0.0f32];
        Gemm::for_weights(&b).run(&a, 1, 2, &b, 1, &mut out);
        assert_eq!(out[0], 2.0);
        let mut tiled = [0.0f32];
        tiled_portable(&a, 1, 2, &b, 1, &mut tiled);
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
