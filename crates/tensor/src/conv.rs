use crate::gemm::{self, Lhs, Panels, Weights};
use crate::{Result, Tensor, TensorError};

/// Spatial padding policy for convolution and pooling, mirroring the two
/// modes used by the paper's networks: *valid* (MNIST net, Table I) and
/// *same* (both CIFAR-10 nets, Tables II-III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// No padding; output shrinks by `F - 1` per spatial dimension.
    Valid,
    /// Zero-padding chosen so that `G = ceil(H / S)` (TensorFlow
    /// semantics, asymmetric when the total pad is odd).
    Same,
}

/// Convolution geometry: square filter size, stride, and padding policy.
///
/// The paper's output-size relation `G = (M − F + 2P)/S + 1` (§IV-B) is
/// implemented by [`ConvSpec::output_dim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Filter side length `F` (filters are `F × F × Z`).
    pub filter: usize,
    /// Stride `S` along both spatial axes.
    pub stride: usize,
    /// Padding policy.
    pub padding: Padding,
}

impl ConvSpec {
    /// Creates a spec, validating the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if `filter` or `stride`
    /// is zero.
    pub fn new(filter: usize, stride: usize, padding: Padding) -> Result<Self> {
        if filter == 0 {
            return Err(TensorError::InvalidGeometry(
                "filter size must be positive".into(),
            ));
        }
        if stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be positive".into(),
            ));
        }
        Ok(ConvSpec {
            filter,
            stride,
            padding,
        })
    }

    /// Output length `G` and leading pad amount for an input of spatial
    /// length `input`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] for a zero-length input
    /// and when a valid-padding filter does not fit in the input.
    pub fn output_dim(&self, input: usize) -> Result<(usize, usize)> {
        if input == 0 {
            return Err(TensorError::InvalidGeometry(
                "convolution input must have positive length".into(),
            ));
        }
        match self.padding {
            Padding::Valid => {
                if input < self.filter {
                    return Err(TensorError::InvalidGeometry(format!(
                        "valid padding requires input {} >= filter {}",
                        input, self.filter
                    )));
                }
                Ok(((input - self.filter) / self.stride + 1, 0))
            }
            Padding::Same => {
                let g = input.div_ceil(self.stride);
                let needed = (g - 1) * self.stride + self.filter;
                let total_pad = needed.saturating_sub(input);
                Ok((g, total_pad / 2))
            }
        }
    }
}

/// Extracts convolution patches from a single `(H, W, C)` image into a
/// `(G_h·G_w, F·F·C)` matrix (`im2col`).
///
/// Row `i·G_w + j` holds the receptive field of output location `(i, j)`
/// flattened in `(f1, f2, z)` order — exactly the order in which a
/// row-major `(F, F, Z, Y)` filter tensor flattens to a `(F·F·C, Y)`
/// matrix, so `conv = im2col(x) × filters`. This matrix *is* the
/// coefficient matrix of the linear system MILR solves to recover filters
/// (paper §IV-B-b): each row is one equation, each filter one unknown
/// column vector.
///
/// # Errors
///
/// Returns an error unless `input` is rank 3 and the geometry fits.
pub fn im2col(input: &Tensor, spec: &ConvSpec) -> Result<Tensor> {
    if input.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            op: "im2col",
            expected: 3,
            actual: input.ndim(),
        });
    }
    let dims = input.shape().dims();
    let walker = PatchWalker::new(dims[0], dims[1], dims[2], spec)?;
    let mut out = vec![0.0f32; walker.locations() * walker.patch_len()];
    walker.fill(input.data(), &mut out);
    Tensor::from_vec(out, &[walker.locations(), walker.patch_len()])
}

/// Where each output location's receptive field lies in one `(H, W, C)`
/// image: the geometry half of `im2col`, shared by [`im2col`],
/// [`conv2d`] and [`conv2d_at`].
///
/// `im2col` and `conv2d_at` copy receptive fields out as patch rows;
/// `conv2d` instead widens the image once into a zero-padded `f64`
/// plane ([`PatchWalker::widen`]) and reads every receptive field in
/// place ([`PatchWalker::lhs`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PatchWalker {
    h: usize,
    w: usize,
    c: usize,
    f: usize,
    s: usize,
    gh: usize,
    gw: usize,
    pad_h: usize,
    pad_w: usize,
}

impl PatchWalker {
    fn new(h: usize, w: usize, c: usize, spec: &ConvSpec) -> Result<Self> {
        let (gh, pad_h) = spec.output_dim(h)?;
        let (gw, pad_w) = spec.output_dim(w)?;
        Ok(PatchWalker {
            h,
            w,
            c,
            f: spec.filter,
            s: spec.stride,
            gh,
            gw,
            pad_h,
            pad_w,
        })
    }

    /// Output locations `G_h·G_w` (rows of the patch matrix).
    fn locations(&self) -> usize {
        self.gh * self.gw
    }

    /// Patch length `F·F·C` (columns of the patch matrix).
    pub(crate) fn patch_len(&self) -> usize {
        self.f * self.f * self.c
    }

    /// Writes the patch matrix of `image` into `dst`, row `i·G_w + j`
    /// per output location.
    fn fill(&self, image: &[f32], dst: &mut [f32]) {
        let len = self.patch_len();
        for loc in 0..self.locations() {
            let row = &mut dst[loc * len..][..len];
            self.write_patch(image, loc / self.gw, loc % self.gw, row);
        }
    }

    /// Writes the receptive field of output location `(i, j)` into
    /// `dst` in `(f1, f2, z)` order, zero where the filter overhangs
    /// the padded border. Each filter row is one contiguous copy.
    fn write_patch(&self, image: &[f32], i: usize, j: usize, dst: &mut [f32]) {
        let (c, f) = (self.c, self.f);
        if c == 0 {
            return;
        }
        // Signed arithmetic: padding can place the filter off the image
        // edge, where the contribution is zero.
        let x0 = (j * self.s) as isize - self.pad_w as isize;
        let lo = (-x0).clamp(0, f as isize) as usize;
        let hi = (self.w as isize - x0).clamp(lo as isize, f as isize) as usize;
        for (f1, row) in dst.chunks_exact_mut(f * c).enumerate() {
            let y = (i * self.s + f1) as isize - self.pad_h as isize;
            if y < 0 || y >= self.h as isize {
                row.fill(0.0);
                continue;
            }
            row[..lo * c].fill(0.0);
            row[hi * c..].fill(0.0);
            if hi > lo {
                let src = (y as usize * self.w + (x0 + lo as isize) as usize) * c;
                row[lo * c..hi * c].copy_from_slice(&image[src..src + (hi - lo) * c]);
            }
        }
    }

    /// Rows and columns of the zero-padded plane: the leading pad, the
    /// image, then enough trailing zeros for the last receptive field.
    fn padded_dims(&self) -> (usize, usize) {
        let hp = (self.pad_h + self.h).max((self.gh - 1) * self.s + self.f);
        let wp = (self.pad_w + self.w).max((self.gw - 1) * self.s + self.f);
        (hp, wp)
    }

    /// A zeroed plane for [`widen`](Self::widen).
    fn padded_scratch(&self) -> Vec<f64> {
        let (hp, wp) = self.padded_dims();
        vec![0.0; hp * wp * self.c]
    }

    /// Writes `image` widened to `f64` into the interior of `plane`
    /// (from [`padded_scratch`](Self::padded_scratch)). The border is
    /// never written, so it stays zero across images.
    fn widen(&self, image: &[f32], plane: &mut [f64]) {
        let (_, wp) = self.padded_dims();
        let row = self.w * self.c;
        if row == 0 {
            return;
        }
        for (y, src) in image.chunks_exact(row).enumerate() {
            let dst = &mut plane[((y + self.pad_h) * wp + self.pad_w) * self.c..][..row];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v as f64;
            }
        }
    }

    /// The patch matrix of a widened `plane`, read in place: location
    /// `(i, j)` is `F` runs of `F·C` values, one per filter row — the
    /// `(f1, f2, z)` order of [`write_patch`](Self::write_patch), with
    /// the overhang read as the plane's zero border.
    fn lhs<'a>(&self, plane: &'a [f64]) -> Lhs<'a> {
        let (_, wp) = self.padded_dims();
        Lhs {
            src: plane,
            per_line: self.gw,
            line_step: self.s * wp * self.c,
            step: self.s * self.c,
            segs: self.f,
            seg_len: self.f * self.c,
            seg_stride: wp * self.c,
        }
    }
}

/// Validated `conv2d` operands: batch size, patch geometry and filter
/// count.
pub(crate) struct ConvOperands {
    pub(crate) batch: usize,
    pub(crate) walker: PatchWalker,
    pub(crate) y: usize,
}

impl ConvOperands {
    /// Checks an input `(B, H, W, C)` against filters `(F, F, C, Y)`.
    pub(crate) fn check(input: &Tensor, filters: &Tensor, spec: &ConvSpec) -> Result<Self> {
        if input.ndim() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d",
                expected: 4,
                actual: input.ndim(),
            });
        }
        if filters.ndim() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d filters",
                expected: 4,
                actual: filters.ndim(),
            });
        }
        let &[b, h, w, c] = input.shape().dims() else {
            unreachable!("rank checked")
        };
        let &[f1, f2, z, y] = filters.shape().dims() else {
            unreachable!("rank checked")
        };
        if f1 != spec.filter || f2 != spec.filter {
            return Err(TensorError::InvalidGeometry(format!(
                "filter tensor is {f1}x{f2} but spec says {0}x{0}",
                spec.filter
            )));
        }
        if z != c {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d channels",
                lhs: input.shape().dims().to_vec(),
                rhs: filters.shape().dims().to_vec(),
            });
        }
        Ok(ConvOperands {
            batch: b,
            walker: PatchWalker::new(h, w, c, spec)?,
            y,
        })
    }

    /// Output shape `(B, G_h, G_w, Y)`.
    pub(crate) fn out_dims(&self) -> [usize; 4] {
        [self.batch, self.walker.gh, self.walker.gw, self.y]
    }

    /// Elements of one input image.
    fn image_len(&self) -> usize {
        self.walker.h * self.walker.w * self.walker.c
    }
}

/// 2-D convolution over a batch: input `(B, H, W, C)`, filters
/// `(F, F, C, Y)`, output `(B, G_h, G_w, Y)`.
///
/// Implements the paper's Equation 4 as an implicit GEMM: the filter
/// bank is packed once into `f64` column panels (a row-major
/// `(F, F, C, Y)` tensor already is the `(F·F·C, Y)` matrix), each image
/// is widened once into a zero-padded `f64` plane, and the
/// register-tiled kernel reads every receptive field straight from that
/// plane, writing into the output — no `im2col` matrix is built.
/// Bit-identical to [`scalar::conv2d`](crate::scalar::conv2d), which
/// also serves filter banks holding an infinite or NaN weight
/// (DESIGN.md §16).
///
/// # Errors
///
/// Returns an error for rank/channel mismatches or impossible geometry.
pub fn conv2d(input: &Tensor, filters: &Tensor, spec: &ConvSpec) -> Result<Tensor> {
    let ops = ConvOperands::check(input, filters, spec)?;
    if !gemm::tiled_allowed(filters.data()) {
        return crate::scalar::conv2d(input, filters, spec);
    }
    let out = implicit_gemm(&ops, input.data(), filters.data(), gemm::run);
    Tensor::from_vec(out, &ops.out_dims())
}

/// The implicit-GEMM convolution of validated operands through the GEMM
/// body `gemm`: filters packed once, each image widened once into the
/// reused padded plane, every receptive field read in place.
fn implicit_gemm(
    ops: &ConvOperands,
    input: &[f32],
    filters: &[f32],
    gemm: impl Fn(&Lhs, usize, Weights, &mut [f32]),
) -> Vec<f32> {
    let rows = ops.walker.locations();
    let panels = Panels::pack(filters, ops.walker.patch_len(), ops.y);
    let mut out = vec![0.0f32; ops.out_dims().iter().product()];
    let mut plane = ops.walker.padded_scratch();
    for img in 0..ops.batch {
        let image = &input[img * ops.image_len()..][..ops.image_len()];
        ops.walker.widen(image, &mut plane);
        let dst = &mut out[img * rows * ops.y..][..rows * ops.y];
        gemm(&ops.walker.lhs(&plane), rows, Weights::Packed(&panels), dst);
    }
    out
}

/// The `Y` outputs of [`conv2d`] at one location `[image, row, col]`,
/// computed from that location's receptive field alone.
///
/// Bit-identical to the full convolution there, at `O(Y·F²·C)` instead
/// of `O(G_h·G_w·Y·F²·C)`: MILR's conv detection check reads a single
/// probe pixel.
///
/// # Errors
///
/// As [`conv2d`], plus [`TensorError::IndexOutOfBounds`] when the
/// location lies outside the `(B, G_h, G_w)` output.
///
/// ```
/// use milr_tensor::{conv2d, conv2d_at, ConvSpec, Padding, TensorRng};
///
/// let mut rng = TensorRng::new(1);
/// let input = rng.uniform_tensor(&[1, 6, 6, 2]);
/// let filters = rng.uniform_tensor(&[3, 3, 2, 4]);
/// let spec = ConvSpec::new(3, 1, Padding::Same)?;
/// let full = conv2d(&input, &filters, &spec)?;
/// let probe = conv2d_at(&input, &filters, &spec, [0, 3, 2])?;
/// for (k, v) in probe.iter().enumerate() {
///     assert_eq!(v.to_bits(), full.at(&[0, 3, 2, k])?.to_bits());
/// }
/// # Ok::<(), milr_tensor::TensorError>(())
/// ```
pub fn conv2d_at(
    input: &Tensor,
    filters: &Tensor,
    spec: &ConvSpec,
    at: [usize; 3],
) -> Result<Vec<f32>> {
    let ops = ConvOperands::check(input, filters, spec)?;
    let [img, i, j] = at;
    let [b, gh, gw, y] = ops.out_dims();
    if img >= b || i >= gh || j >= gw {
        return Err(TensorError::IndexOutOfBounds {
            index: at.to_vec(),
            shape: vec![b, gh, gw],
        });
    }
    let image = &input.data()[img * ops.image_len()..][..ops.image_len()];
    let mut patch = vec![0.0f32; ops.walker.patch_len()];
    ops.walker.write_patch(image, i, j, &mut patch);
    let mut out = vec![0.0f32; y];
    gemm::matmul(&patch, 1, patch.len(), filters.data(), y, &mut out);
    Ok(out)
}

/// Reassembles per-patch values into an image, averaging overlapping
/// contributions.
///
/// `patches` has the `im2col` layout `(G_h·G_w, F·F·C)`. This is the
/// final step of MILR's convolution *backward pass* (paper §IV-B-a):
/// after each receptive field is recovered by solving its `Y`-equation
/// system, the overlapping solutions are combined into the layer input.
/// Padded (off-image) positions are skipped.
///
/// # Errors
///
/// Returns an error when the patch matrix does not match the geometry.
pub fn col2im_accumulate(
    patches: &Tensor,
    h: usize,
    w: usize,
    c: usize,
    spec: &ConvSpec,
) -> Result<Tensor> {
    if patches.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op: "col2im",
            expected: 2,
            actual: patches.ndim(),
        });
    }
    let (gh, pad_h) = spec.output_dim(h)?;
    let (gw, pad_w) = spec.output_dim(w)?;
    let f = spec.filter;
    let s = spec.stride;
    let cols = f * f * c;
    if patches.shape().dim(0) != gh * gw || patches.shape().dim(1) != cols {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: patches.shape().dims().to_vec(),
            rhs: vec![gh * gw, cols],
        });
    }
    let mut acc = vec![0.0f64; h * w * c];
    let mut count = vec![0u32; h * w * c];
    let pd = patches.data();
    for i in 0..gh {
        for j in 0..gw {
            let row_base = (i * gw + j) * cols;
            for f1 in 0..f {
                let yy = (i * s + f1) as isize - pad_h as isize;
                if yy < 0 || yy >= h as isize {
                    continue;
                }
                for f2 in 0..f {
                    let xx = (j * s + f2) as isize - pad_w as isize;
                    if xx < 0 || xx >= w as isize {
                        continue;
                    }
                    for z in 0..c {
                        let dst = ((yy as usize * w) + xx as usize) * c + z;
                        let src = row_base + (f1 * f + f2) * c + z;
                        acc[dst] += pd[src] as f64;
                        count[dst] += 1;
                    }
                }
            }
        }
    }
    let data: Vec<f32> = acc
        .iter()
        .zip(count.iter())
        .map(|(&a, &n)| if n == 0 { 0.0 } else { (a / n as f64) as f32 })
        .collect();
    Tensor::from_vec(data, &[h, w, c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, relu_like, Awkward, OneOf};
    use crate::{gemm, scalar, TensorRng};
    use proptest::prelude::*;

    /// Draws one convolution case: geometry plus input and filter data,
    /// with `Valid` geometries that do not fit skipped by the caller.
    struct ConvCase {
        input: Tensor,
        filters: Tensor,
        spec: ConvSpec,
    }

    impl ConvCase {
        #[allow(clippy::too_many_arguments)]
        fn new(
            batch: usize,
            h: usize,
            w: usize,
            c: usize,
            f: usize,
            y: usize,
            stride: usize,
            padding: Padding,
            x: &[f32],
            k: &[f32],
        ) -> Option<Self> {
            let spec = ConvSpec::new(f, stride, padding).unwrap();
            if spec.output_dim(h).is_err() || spec.output_dim(w).is_err() {
                return None;
            }
            let input =
                Tensor::from_vec(x[..batch * h * w * c].to_vec(), &[batch, h, w, c]).unwrap();
            let filters = Tensor::from_vec(k[..f * f * c * y].to_vec(), &[f, f, c, y]).unwrap();
            Some(ConvCase {
                input,
                filters,
                spec,
            })
        }

        /// Asserts the fast `conv2d` and every `conv2d_at` location equal
        /// the scalar reference bit for bit.
        fn check(&self) {
            let want = scalar::conv2d(&self.input, &self.filters, &self.spec).unwrap();
            let got = conv2d(&self.input, &self.filters, &self.spec).unwrap();
            assert_eq!(got.shape(), want.shape());
            assert_eq!(bits(got.data()), bits(want.data()), "{:?}", self.spec);
            let &[b, gh, gw, y] = want.shape().dims() else {
                unreachable!()
            };
            for img in 0..b {
                for i in 0..gh {
                    for j in 0..gw {
                        let at = conv2d_at(&self.input, &self.filters, &self.spec, [img, i, j]);
                        let off = ((img * gh + i) * gw + j) * y;
                        assert_eq!(bits(&at.unwrap()), bits(&want.data()[off..off + y]));
                    }
                }
            }
        }
    }

    const MAX_HW: usize = 9;
    const MAX_C: usize = 3;
    const MAX_F: usize = 3;
    const MAX_Y: usize = 10;
    const BATCHES: OneOf<usize> = OneOf(&[1, 8]);
    const FILTER_COUNTS: OneOf<usize> = OneOf(&[1, 3, 8, 10]);
    const PADDINGS: OneOf<Padding> = OneOf(&[Padding::Same, Padding::Valid]);
    const X_LEN: usize = 8 * MAX_HW * MAX_HW * MAX_C;
    const K_LEN: usize = MAX_F * MAX_F * MAX_C * MAX_Y;

    fn seq_tensor(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|x| x as f32).collect(), dims).unwrap()
    }

    #[test]
    fn spec_validates() {
        assert!(ConvSpec::new(0, 1, Padding::Valid).is_err());
        assert!(ConvSpec::new(3, 0, Padding::Same).is_err());
        assert!(ConvSpec::new(3, 1, Padding::Valid).is_ok());
    }

    #[test]
    fn output_dims_match_paper_formula() {
        // MNIST net: 28x28 valid 3x3 -> 26, CIFAR: 32x32 same 3x3 -> 32.
        let valid = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        assert_eq!(valid.output_dim(28).unwrap(), (26, 0));
        let same = ConvSpec::new(3, 1, Padding::Same).unwrap();
        assert_eq!(same.output_dim(32).unwrap(), (32, 1));
        // Stride-2 same: ceil(32/2) = 16.
        let stride2 = ConvSpec::new(3, 2, Padding::Same).unwrap();
        assert_eq!(stride2.output_dim(32).unwrap().0, 16);
        // Filter bigger than input under valid padding fails.
        let big = ConvSpec::new(5, 1, Padding::Valid).unwrap();
        assert!(big.output_dim(4).is_err());
    }

    #[test]
    fn output_dim_rejects_zero_length_input() {
        for padding in [Padding::Same, Padding::Valid] {
            let spec = ConvSpec::new(3, 2, padding).unwrap();
            assert!(matches!(
                spec.output_dim(0),
                Err(TensorError::InvalidGeometry(_))
            ));
        }
        // A zero-width input reaches conv2d as an error, not a panic.
        let spec = ConvSpec::new(1, 1, Padding::Same).unwrap();
        let input = Tensor::zeros(&[1, 0, 4, 1]);
        assert!(conv2d(&input, &Tensor::ones(&[1, 1, 1, 1]), &spec).is_err());
    }

    #[test]
    fn conv2d_at_rejects_out_of_range_locations() {
        let input = Tensor::ones(&[2, 4, 4, 1]);
        let filters = Tensor::ones(&[3, 3, 1, 2]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        assert_eq!(
            conv2d_at(&input, &filters, &spec, [1, 1, 1]).unwrap(),
            vec![9.0; 2]
        );
        for at in [[2, 0, 0], [0, 2, 0], [0, 0, 2]] {
            assert!(matches!(
                conv2d_at(&input, &filters, &spec, at),
                Err(TensorError::IndexOutOfBounds { .. })
            ));
        }
    }

    #[test]
    fn im2col_shape_and_content() {
        let input = seq_tensor(&[3, 3, 1]);
        let spec = ConvSpec::new(2, 1, Padding::Valid).unwrap();
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // First patch is the top-left 2x2 block.
        assert_eq!(cols.row(0).unwrap(), vec![0.0, 1.0, 3.0, 4.0]);
        // Last patch is the bottom-right block.
        assert_eq!(cols.row(3).unwrap(), vec![4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_same_padding_zero_fills_border() {
        let input = Tensor::ones(&[2, 2, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Same).unwrap();
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 9]);
        // Top-left output: pad row+col are zero; four ones in lower right.
        let r0 = cols.row(0).unwrap();
        assert_eq!(r0.iter().filter(|&&x| x == 1.0).count(), 4);
        assert_eq!(r0.iter().filter(|&&x| x == 0.0).count(), 5);
    }

    #[test]
    fn conv2d_identity_filter_is_passthrough() {
        // A 1x1 filter with weight 1 reproduces the input.
        let input = seq_tensor(&[1, 4, 4, 1]);
        let filters = Tensor::ones(&[1, 1, 1, 1]);
        let spec = ConvSpec::new(1, 1, Padding::Valid).unwrap();
        let out = conv2d(&input, &filters, &spec).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_matches_hand_computation() {
        // 2x2 all-ones filter over a 3x3 ramp = sum of each 2x2 block.
        let input = seq_tensor(&[1, 3, 3, 1]);
        let filters = Tensor::ones(&[2, 2, 1, 1]);
        let spec = ConvSpec::new(2, 1, Padding::Valid).unwrap();
        let out = conv2d(&input, &filters, &spec).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(out.data(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn conv2d_multi_channel_multi_filter() {
        let input = Tensor::ones(&[1, 3, 3, 2]);
        // Filter 0 sums channel 0 only; filter 1 sums both channels.
        let mut filters = Tensor::zeros(&[2, 2, 2, 2]);
        for f1 in 0..2 {
            for f2 in 0..2 {
                filters.set(&[f1, f2, 0, 0], 1.0).unwrap();
                filters.set(&[f1, f2, 0, 1], 1.0).unwrap();
                filters.set(&[f1, f2, 1, 1], 1.0).unwrap();
            }
        }
        let spec = ConvSpec::new(2, 1, Padding::Valid).unwrap();
        let out = conv2d(&input, &filters, &spec).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2, 2]);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(out.at(&[0, i, j, 0]).unwrap(), 4.0);
                assert_eq!(out.at(&[0, i, j, 1]).unwrap(), 8.0);
            }
        }
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let input = Tensor::zeros(&[1, 4, 4, 3]);
        let filters = Tensor::zeros(&[3, 3, 2, 8]);
        let spec = ConvSpec::new(3, 1, Padding::Same).unwrap();
        assert!(conv2d(&input, &filters, &spec).is_err());
    }

    #[test]
    fn col2im_inverts_im2col_exactly_for_full_coverage() {
        let input = seq_tensor(&[4, 4, 2]);
        let spec = ConvSpec::new(3, 1, Padding::Same).unwrap();
        let cols = im2col(&input, &spec).unwrap();
        let back = col2im_accumulate(&cols, 4, 4, 2, &spec).unwrap();
        assert!(back.approx_eq(&input, 1e-6, 1e-6));
    }

    #[test]
    fn col2im_valid_padding_roundtrip() {
        let input = seq_tensor(&[5, 5, 1]);
        let spec = ConvSpec::new(2, 1, Padding::Valid).unwrap();
        let cols = im2col(&input, &spec).unwrap();
        let back = col2im_accumulate(&cols, 5, 5, 1, &spec).unwrap();
        assert!(back.approx_eq(&input, 1e-6, 1e-6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn conv2d_matches_reference_bits(
            batch in BATCHES,
            h in 1usize..MAX_HW + 1,
            w in 1usize..MAX_HW + 1,
            c in 1usize..MAX_C + 1,
            f in 1usize..MAX_F + 1,
            y in FILTER_COUNTS,
            stride in 1usize..3,
            padding in PADDINGS,
            x in proptest::collection::vec(Awkward { non_finite: true }, X_LEN),
            k in proptest::collection::vec(Awkward { non_finite: false }, K_LEN),
        ) {
            if let Some(case) = ConvCase::new(batch, h, w, c, f, y, stride, padding, &x, &k) {
                case.check();
            }
        }

        #[test]
        fn conv2d_matches_reference_on_relu_like_inputs(
            batch in BATCHES,
            h in 1usize..MAX_HW + 1,
            w in 1usize..MAX_HW + 1,
            c in 1usize..MAX_C + 1,
            f in 1usize..MAX_F + 1,
            y in FILTER_COUNTS,
            stride in 1usize..3,
            padding in PADDINGS,
            x in proptest::collection::vec(Awkward { non_finite: false }, X_LEN),
            k in proptest::collection::vec(Awkward { non_finite: false }, K_LEN),
        ) {
            let x = relu_like(&x);
            if let Some(case) = ConvCase::new(batch, h, w, c, f, y, stride, padding, &x, &k) {
                case.check();
            }
        }

        #[test]
        fn conv2d_matches_reference_with_non_finite_filters(
            batch in BATCHES,
            h in 1usize..MAX_HW + 1,
            w in 1usize..MAX_HW + 1,
            c in 1usize..MAX_C + 1,
            f in 1usize..MAX_F + 1,
            y in FILTER_COUNTS,
            stride in 1usize..3,
            padding in PADDINGS,
            x in proptest::collection::vec(Awkward { non_finite: true }, X_LEN),
            k in proptest::collection::vec(Awkward { non_finite: true }, K_LEN),
        ) {
            if let Some(case) = ConvCase::new(batch, h, w, c, f, y, stride, padding, &x, &k) {
                case.check();
            }
        }
    }

    #[test]
    fn conv2d_matches_reference_at_model_scale() {
        // The CIFAR-small shapes: batch 8, 16x16, Same 3x3, 3->8->8 and a
        // stride-2 layer, seeded uniform data.
        let mut rng = TensorRng::new(0x5EED);
        for (c, y, stride) in [(3usize, 8usize, 1usize), (8, 8, 1), (8, 16, 2)] {
            let input = rng.uniform_tensor(&[8, 16, 16, c]);
            let filters = rng.uniform_tensor(&[3, 3, c, y]);
            let spec = ConvSpec::new(3, stride, Padding::Same).unwrap();
            ConvCase {
                input,
                filters,
                spec,
            }
            .check();
        }
    }

    /// Implicit-conv geometry: every channel count up to 17, the model
    /// filter counts and their tails, batches 1–3.
    const WIDE_C: usize = 17;
    const WIDE_YS: OneOf<usize> = OneOf(&[1, 3, 8, 10, 16, 24]);
    const WIDE_X: usize = 3 * MAX_HW * MAX_HW * WIDE_C;
    const WIDE_K: usize = MAX_F * MAX_F * WIDE_C * 24;

    impl ConvCase {
        /// Asserts every GEMM body this host can run, driven through the
        /// implicit convolution, equals the scalar reference.
        fn check_bodies(&self) {
            let want = scalar::conv2d(&self.input, &self.filters, &self.spec).unwrap();
            let ops = ConvOperands::check(&self.input, &self.filters, &self.spec).unwrap();
            for (name, body) in gemm::bodies() {
                let got = implicit_gemm(&ops, self.input.data(), self.filters.data(), body);
                assert_eq!(
                    bits(&got),
                    bits(want.data()),
                    "{name} body, {:?}",
                    self.spec
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn implicit_conv_bodies_match_reference_bits(
            batch in 1usize..4,
            h in 1usize..MAX_HW + 1,
            w in 1usize..MAX_HW + 1,
            c in 1usize..WIDE_C + 1,
            f in 1usize..MAX_F + 1,
            y in WIDE_YS,
            stride in 1usize..3,
            padding in PADDINGS,
            x in proptest::collection::vec(Awkward { non_finite: true }, WIDE_X),
            k in proptest::collection::vec(Awkward { non_finite: false }, WIDE_K),
        ) {
            if let Some(case) = ConvCase::new(batch, h, w, c, f, y, stride, padding, &x, &k) {
                case.check_bodies();
                case.check();
            }
        }
    }

    proptest! {
        #[test]
        fn im2col_col2im_roundtrip(
            h in 3usize..7, w in 3usize..7, c in 1usize..3,
            f in 1usize..4,
            same in proptest::bool::ANY,
        ) {
            prop_assume!(f <= h && f <= w);
            let padding = if same { Padding::Same } else { Padding::Valid };
            let spec = ConvSpec::new(f, 1, padding).unwrap();
            let n = h * w * c;
            let input = Tensor::from_vec((0..n).map(|x| (x as f32).sin()).collect(), &[h, w, c]).unwrap();
            let cols = im2col(&input, &spec).unwrap();
            let back = col2im_accumulate(&cols, h, w, c, &spec).unwrap();
            // Valid padding with f > 1 does not cover the border, so only
            // compare covered positions: same padding covers everything.
            if same || f == 1 {
                prop_assert!(back.approx_eq(&input, 1e-5, 1e-5));
            } else {
                // Interior must match.
                for y in (f - 1)..(h - f + 1) {
                    for x in (f - 1)..(w - f + 1) {
                        for z in 0..c {
                            let a = input.at(&[y, x, z]).unwrap();
                            let b = back.at(&[y, x, z]).unwrap();
                            prop_assert!((a - b).abs() < 1e-5);
                        }
                    }
                }
            }
        }

        #[test]
        fn conv2d_linear_in_input(
            vals in proptest::collection::vec(-2.0f32..2.0, 32),
        ) {
            let input = Tensor::from_vec(vals[0..16].to_vec(), &[1, 4, 4, 1]).unwrap();
            let filters = Tensor::from_vec(vals[16..20].to_vec(), &[2, 2, 1, 1]).unwrap();
            let spec = ConvSpec::new(2, 1, Padding::Valid).unwrap();
            let out1 = conv2d(&input, &filters, &spec).unwrap();
            let out2 = conv2d(&input.scale(2.0), &filters, &spec).unwrap();
            prop_assert!(out2.approx_eq(&out1.scale(2.0), 1e-4, 1e-4));
        }
    }
}
