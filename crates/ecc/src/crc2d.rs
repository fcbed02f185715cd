use crate::{crc32, Crc32Hasher};

/// CRC-32 over the little-endian bytes of a run of cells, gathered
/// through a stack buffer in pieces wide enough for the slice-by-8
/// kernel. No heap allocation.
fn crc_cells(cells: &[f32]) -> u32 {
    let mut buf = [0u8; 64];
    let mut h = Crc32Hasher::new();
    for piece in cells.chunks(16) {
        for (b, &v) in buf.chunks_exact_mut(4).zip(piece) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        h.update(&buf[..piece.len() * 4]);
    }
    h.finalize()
}

/// The one value of `cells[at]` that gives the run CRC-32 `code`.
///
/// CRC-32 is affine over GF(2): flipping bit `i` of a cell XORs a fixed
/// syndrome `s_i` into the run's CRC, whatever the run holds. The map
/// from any one 32-bit word of a run to its CRC has rank 32 (Stigge et
/// al., "Reversing CRC – Theory and Practice", 2006), so the 32
/// syndromes form a basis and exactly one value matches. One CRC of the
/// run plus one per flipped bit gives the syndromes; a 32×32 GF(2)
/// elimination then writes `code ^ crc(cells)` in that basis, and its
/// coordinates are the bits to flip. `cells` is scratch: `cells[at]` is
/// left changed.
fn solve_cell(cells: &mut [f32], at: usize, code: u32) -> f32 {
    let bits = cells[at].to_bits();
    let crc = crc_cells(cells);
    // basis[p] = (syndrome sum whose top bit is p, the flips that make it).
    let mut basis = [(0u32, 0u32); 32];
    for i in 0..32 {
        cells[at] = f32::from_bits(bits ^ (1 << i));
        let (mut syndrome, mut flips) = (crc_cells(cells) ^ crc, 1u32 << i);
        while syndrome != 0 {
            let top = 31 - syndrome.leading_zeros() as usize;
            if basis[top].0 == 0 {
                basis[top] = (syndrome, flips);
                break;
            }
            syndrome ^= basis[top].0;
            flips ^= basis[top].1;
        }
    }
    let (mut rest, mut flips) = (code ^ crc, 0u32);
    while rest != 0 {
        let top = 31 - rest.leading_zeros() as usize;
        assert_ne!(basis[top].0, 0, "CRC-32 has rank 32 in any one word");
        rest ^= basis[top].0;
        flips ^= basis[top].1;
    }
    f32::from_bits(bits ^ flips)
}

/// Configuration for two-dimensional CRC error coding over a 2-D grid of
/// `f32` parameters.
///
/// This is the paper's adaptation of Kim et al.'s 2-D error coding
/// (§IV-B-c, Fig. 4): CRCs are computed *horizontally* over sets of
/// [`group`](Crc2d::group) parameters along each row and *vertically*
/// over sets along each column. A corrupted weight invalidates exactly
/// one row code and one column code; intersecting the mismatched codes
/// pinpoints the suspect cells. MILR applies this to each of the `F²`
/// `(Z, Y)` slices of a convolution filter tensor so that partial
/// recovery can solve only for the flagged weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc2d {
    rows: usize,
    cols: usize,
    group: usize,
}

/// Stored CRC codes for one grid, produced by [`Crc2d::encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crc2dCodes {
    config: Crc2d,
    /// `rows × ceil(cols/group)` codes, row-major.
    row_codes: Vec<u32>,
    /// `cols × ceil(rows/group)` codes, column-major.
    col_codes: Vec<u32>,
}

impl Crc2d {
    /// Default parameter-group width used by the paper ("sets of 4
    /// parameters").
    pub const PAPER_GROUP: usize = 4;

    /// Creates a configuration with the paper's group width of 4.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_group(rows, cols, Self::PAPER_GROUP)
    }

    /// Creates a configuration with an explicit group width (for the
    /// storage/false-positive ablation).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn with_group(rows: usize, cols: usize, group: usize) -> Self {
        assert!(rows > 0 && cols > 0 && group > 0, "grid must be non-empty");
        Crc2d { rows, cols, group }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Parameters per CRC group.
    pub fn group(&self) -> usize {
        self.group
    }

    fn row_chunks(&self) -> usize {
        self.cols.div_ceil(self.group)
    }

    fn col_chunks(&self) -> usize {
        self.rows.div_ceil(self.group)
    }

    /// Encodes a row-major `rows × cols` grid of parameters.
    ///
    /// Visits the grid **once**, row-major, producing both code axes in
    /// the same pass: row chunks hash contiguous cells through the
    /// slice-by-8 CRC kernel, while one running CRC state per column
    /// absorbs each row's cells and finalizes at every column-chunk
    /// boundary. The only allocations are the two output code vectors
    /// plus the per-column state — the old per-chunk scratch `Vec`s (one
    /// per code, with a second strided sweep over the whole grid for the
    /// column axis) are gone.
    ///
    /// # Panics
    ///
    /// Panics if `grid.len() != rows * cols`.
    pub fn encode(&self, grid: &[f32]) -> Crc2dCodes {
        assert_eq!(grid.len(), self.rows * self.cols, "grid size mismatch");
        let rc = self.row_chunks();
        let cc = self.col_chunks();
        let mut row_codes = vec![0u32; self.rows * rc];
        let mut col_codes = vec![0u32; self.cols * cc];
        let mut col_hashers = vec![Crc32Hasher::new(); self.cols];
        for r in 0..self.rows {
            let row = &grid[r * self.cols..(r + 1) * self.cols];
            for (chunk, cells) in row.chunks(self.group).enumerate() {
                row_codes[r * rc + chunk] = crc_cells(cells);
            }
            for (h, &v) in col_hashers.iter_mut().zip(row) {
                h.update(&v.to_le_bytes());
            }
            if (r + 1) % self.group == 0 || r + 1 == self.rows {
                let col_chunk = r / self.group;
                for (c, h) in col_hashers.iter_mut().enumerate() {
                    col_codes[c * cc + col_chunk] = h.finalize();
                    *h = Crc32Hasher::new();
                }
            }
        }
        Crc2dCodes {
            config: *self,
            row_codes,
            col_codes,
        }
    }

    /// Scalar reference encode: the original two independent sweeps
    /// (row-major then column-major) with per-chunk byte gathering.
    ///
    /// Kept as the bit-equivalence ground truth for the single-pass
    /// [`encode`](Crc2d::encode) and as the baseline side of
    /// `kernel_bench`.
    ///
    /// # Panics
    ///
    /// Panics if `grid.len() != rows * cols`.
    pub fn encode_scalar(&self, grid: &[f32]) -> Crc2dCodes {
        assert_eq!(grid.len(), self.rows * self.cols, "grid size mismatch");
        let mut row_codes = Vec::with_capacity(self.rows * self.row_chunks());
        for r in 0..self.rows {
            for chunk in 0..self.row_chunks() {
                let start = chunk * self.group;
                let end = (start + self.group).min(self.cols);
                let mut bytes = Vec::with_capacity((end - start) * 4);
                for c in start..end {
                    bytes.extend_from_slice(&grid[r * self.cols + c].to_le_bytes());
                }
                row_codes.push(crc32(&bytes));
            }
        }
        let mut col_codes = Vec::with_capacity(self.cols * self.col_chunks());
        for c in 0..self.cols {
            for chunk in 0..self.col_chunks() {
                let start = chunk * self.group;
                let end = (start + self.group).min(self.rows);
                let mut bytes = Vec::with_capacity((end - start) * 4);
                for r in start..end {
                    bytes.extend_from_slice(&grid[r * self.cols + c].to_le_bytes());
                }
                col_codes.push(crc32(&bytes));
            }
        }
        Crc2dCodes {
            config: *self,
            row_codes,
            col_codes,
        }
    }
}

impl Crc2dCodes {
    /// The configuration these codes were produced with.
    pub fn config(&self) -> &Crc2d {
        &self.config
    }

    /// Stored horizontal codes, row-major (`rows × ceil(cols/group)`).
    pub fn row_codes(&self) -> &[u32] {
        &self.row_codes
    }

    /// Stored vertical codes, column-major (`cols × ceil(rows/group)`).
    pub fn col_codes(&self) -> &[u32] {
        &self.col_codes
    }

    /// Reassembles codes from their stored parts (the persistence path).
    ///
    /// # Errors
    ///
    /// Returns `Err` with a description when the code counts do not
    /// match the configuration's geometry.
    pub fn from_parts(
        config: Crc2d,
        row_codes: Vec<u32>,
        col_codes: Vec<u32>,
    ) -> Result<Self, String> {
        if row_codes.len() != config.rows * config.row_chunks() {
            return Err(format!(
                "expected {} row codes, got {}",
                config.rows * config.row_chunks(),
                row_codes.len()
            ));
        }
        if col_codes.len() != config.cols * config.col_chunks() {
            return Err(format!(
                "expected {} col codes, got {}",
                config.cols * config.col_chunks(),
                col_codes.len()
            ));
        }
        Ok(Crc2dCodes {
            config,
            row_codes,
            col_codes,
        })
    }

    /// Bytes of error-resistant storage these codes occupy (4 bytes per
    /// CRC-32), for the storage-overhead accounting of Tables V/VII/IX.
    pub fn storage_bytes(&self) -> usize {
        (self.row_codes.len() + self.col_codes.len()) * 4
    }

    /// True when every stored code matches the grid.
    ///
    /// # Panics
    ///
    /// Panics if `grid` does not match the configured dimensions.
    pub fn is_clean(&self, grid: &[f32]) -> bool {
        self.config.encode(grid) == *self
    }

    /// The one value of cell `(r, c)` that makes its **row** chunk
    /// match the stored code, given the chunk's other cells as they are
    /// in `grid`. CRC-32 is affine over GF(2) and has rank 32 in any one
    /// word, so this value exists and is unique; a 32×32 GF(2)
    /// elimination finds it. It is the golden value whenever the other
    /// cells are golden, however far the cell itself is off.
    ///
    /// # Panics
    ///
    /// Panics if the grid or the coordinates are out of range.
    pub fn row_solution(&self, grid: &[f32], r: usize, c: usize) -> f32 {
        let cfg = &self.config;
        assert_eq!(grid.len(), cfg.rows * cfg.cols, "grid size mismatch");
        assert!(r < cfg.rows && c < cfg.cols, "cell out of range");
        let row_chunk = c / cfg.group;
        let start = row_chunk * cfg.group;
        let end = (start + cfg.group).min(cfg.cols);
        let mut cells = grid[r * cfg.cols + start..r * cfg.cols + end].to_vec();
        let code = self.row_codes[r * cfg.row_chunks() + row_chunk];
        solve_cell(&mut cells, c - start, code)
    }

    /// The one value of cell `(r, c)` that makes its **column** chunk
    /// match the stored code (see [`row_solution`](Crc2dCodes::row_solution)).
    ///
    /// # Panics
    ///
    /// Panics if the grid or the coordinates are out of range.
    pub fn col_solution(&self, grid: &[f32], r: usize, c: usize) -> f32 {
        let cfg = &self.config;
        assert_eq!(grid.len(), cfg.rows * cfg.cols, "grid size mismatch");
        assert!(r < cfg.rows && c < cfg.cols, "cell out of range");
        let col_chunk = r / cfg.group;
        let start = col_chunk * cfg.group;
        let end = (start + cfg.group).min(cfg.rows);
        let mut cells: Vec<f32> = (start..end).map(|rr| grid[rr * cfg.cols + c]).collect();
        let code = self.col_codes[c * cfg.col_chunks() + col_chunk];
        solve_cell(&mut cells, r - start, code)
    }

    /// Returns the `(row, col)` cells suspected of corruption, by
    /// intersecting mismatched horizontal and vertical codes.
    ///
    /// The result is a superset of the truly corrupted cells whenever
    /// multiple errors share rows/columns (the false positives whose rate
    /// the paper reports as low); it can miss errors only on a CRC-32
    /// collision.
    ///
    /// # Panics
    ///
    /// Panics if `grid` does not match the configured dimensions.
    pub fn locate_errors(&self, grid: &[f32]) -> Vec<(usize, usize)> {
        let fresh = self.config.encode(grid);
        let cfg = &self.config;
        let rc = cfg.row_chunks();
        let cc = cfg.col_chunks();
        // bad_row[r][chunk] / bad_col[c][chunk] mismatch bitmaps.
        let bad_row: Vec<bool> = self
            .row_codes
            .iter()
            .zip(fresh.row_codes.iter())
            .map(|(a, b)| a != b)
            .collect();
        let bad_col: Vec<bool> = self
            .col_codes
            .iter()
            .zip(fresh.col_codes.iter())
            .map(|(a, b)| a != b)
            .collect();
        let mut cells = Vec::new();
        for r in 0..cfg.rows {
            for c in 0..cfg.cols {
                let row_chunk = c / cfg.group;
                let col_chunk = r / cfg.group;
                if bad_row[r * rc + row_chunk] && bad_col[c * cc + col_chunk] {
                    cells.push((r, c));
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|i| i as f32 * 0.37 - 3.0).collect()
    }

    #[test]
    fn clean_grid_reports_no_errors() {
        let g = grid(8, 8);
        let codes = Crc2d::new(8, 8).encode(&g);
        assert!(codes.is_clean(&g));
        assert!(codes.locate_errors(&g).is_empty());
    }

    #[test]
    fn single_error_located_exactly() {
        let g = grid(8, 12);
        let codes = Crc2d::new(8, 12).encode(&g);
        let mut bad = g.clone();
        bad[3 * 12 + 7] = f32::from_bits(bad[3 * 12 + 7].to_bits() ^ 0x0040_0000);
        let cells = codes.locate_errors(&bad);
        assert_eq!(cells, vec![(3, 7)]);
    }

    #[test]
    fn multiple_scattered_errors_are_covered() {
        let g = grid(16, 16);
        let codes = Crc2d::new(16, 16).encode(&g);
        let mut bad = g.clone();
        let corrupted = [(0usize, 0usize), (5, 9), (12, 3), (15, 15)];
        for &(r, c) in &corrupted {
            bad[r * 16 + c] += 1.0;
        }
        let cells = codes.locate_errors(&bad);
        for &(r, c) in &corrupted {
            assert!(cells.contains(&(r, c)), "missing ({r},{c}) in {cells:?}");
        }
    }

    #[test]
    fn aligned_errors_produce_false_positives_not_misses() {
        // Two errors in the same row chunk and two columns sharing a
        // column chunk: the intersection may flag extra cells but never
        // misses the real ones.
        let g = grid(8, 8);
        let codes = Crc2d::new(8, 8).encode(&g);
        let mut bad = g.clone();
        let corrupted = [(1usize, 2usize), (2, 1)];
        for &(r, c) in &corrupted {
            bad[r * 8 + c] -= 2.5;
        }
        let cells = codes.locate_errors(&bad);
        for &(r, c) in &corrupted {
            assert!(cells.contains(&(r, c)));
        }
        // (1,1) and (2,2) share the mismatched chunks: allowed false
        // positives.
        assert!(cells.len() >= 2);
    }

    #[test]
    fn non_multiple_dimensions_handled() {
        // 5x7 with group 4 exercises the ragged final chunks.
        let g = grid(5, 7);
        let codes = Crc2d::new(5, 7).encode(&g);
        let mut bad = g.clone();
        bad[4 * 7 + 6] *= -1.0;
        assert_eq!(codes.locate_errors(&bad), vec![(4, 6)]);
    }

    #[test]
    fn storage_accounting() {
        let codes = Crc2d::new(8, 8).encode(&grid(8, 8));
        // 8 rows x 2 chunks + 8 cols x 2 chunks = 32 codes x 4 bytes.
        assert_eq!(codes.storage_bytes(), 128);
    }

    #[test]
    fn group_width_affects_storage() {
        let g = grid(8, 8);
        let g4 = Crc2d::with_group(8, 8, 4).encode(&g).storage_bytes();
        let g8 = Crc2d::with_group(8, 8, 8).encode(&g).storage_bytes();
        assert!(g8 < g4);
    }

    #[test]
    #[should_panic(expected = "grid size mismatch")]
    fn encode_panics_on_bad_grid() {
        Crc2d::new(2, 2).encode(&[0.0; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Bit-equivalence: the single-pass encode must produce exactly
        // the codes of the original double-sweep reference on arbitrary
        // geometries, including ragged final chunks and group 1.
        #[test]
        fn single_pass_matches_scalar(
            rows in 1usize..12,
            cols in 1usize..12,
            group in 1usize..7,
            seed in proptest::num::u32::ANY,
        ) {
            let g: Vec<f32> = (0..rows * cols)
                .map(|i| (i as f32 + seed as f32 * 1e-9) * 0.37 - 3.0)
                .collect();
            let cfg = Crc2d::with_group(rows, cols, group);
            prop_assert_eq!(cfg.encode(&g), cfg.encode_scalar(&g));
        }

        // A cell whose chunk-mates are intact comes back bit for bit from
        // either axis, whatever replaced it (NaN payloads included) and
        // wherever it sits in a ragged chunk.
        #[test]
        fn solutions_restore_the_original_bits(
            rows in 1usize..12,
            cols in 1usize..12,
            group in 1usize..7,
            cell in 0usize..144,
            garbage in proptest::num::u32::ANY,
            nan in proptest::bool::ANY,
        ) {
            let g = grid(rows, cols);
            let codes = Crc2d::with_group(rows, cols, group).encode(&g);
            let at = cell % (rows * cols);
            let (r, c) = (at / cols, at % cols);
            let mut bad = g.clone();
            // Half the cases force an all-ones exponent and a nonzero
            // payload: a NaN, signalling or quiet, of either sign.
            bad[at] = f32::from_bits(if nan { garbage | 0x7F80_0001 } else { garbage });
            prop_assert_eq!(codes.row_solution(&bad, r, c).to_bits(), g[at].to_bits());
            prop_assert_eq!(codes.col_solution(&bad, r, c).to_bits(), g[at].to_bits());
        }

        #[test]
        fn every_injected_error_is_flagged(
            rows in 2usize..10,
            cols in 2usize..10,
            errors in proptest::collection::vec((0usize..100, 0usize..100), 1..6),
        ) {
            let g = grid(rows, cols);
            let codes = Crc2d::new(rows, cols).encode(&g);
            let mut bad = g.clone();
            let mut truth = std::collections::HashSet::new();
            for &(er, ec) in &errors {
                let (r, c) = (er % rows, ec % cols);
                bad[r * cols + c] += 7.25;
                truth.insert((r, c));
            }
            // Cells whose value actually changed must all be flagged.
            let flagged: std::collections::HashSet<_> =
                codes.locate_errors(&bad).into_iter().collect();
            for (r, c) in truth {
                if bad[r * cols + c] != g[r * cols + c] {
                    prop_assert!(flagged.contains(&(r, c)), "missed ({r},{c})");
                }
            }
        }
    }
}
