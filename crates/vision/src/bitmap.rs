//! Grayscale screenshot bitmaps.
//!
//! The paper's crawlers capture full-page screenshots through DevTools. Our
//! simulated browser renders each page's *visual template* into a small
//! grayscale raster. 128×80 is plenty: the perceptual hash downsamples to
//! 17×8 anyway, and the clustering only needs near-duplicate structure to
//! survive, not pixel fidelity.

use std::fmt;

/// Default screenshot width used by the simulated browser.
pub const DEFAULT_WIDTH: usize = 128;
/// Default screenshot height used by the simulated browser.
pub const DEFAULT_HEIGHT: usize = 80;

/// A row-major 8-bit grayscale image.
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap({}x{})", self.width, self.height)
    }
}

impl Bitmap {
    /// Creates an all-black bitmap.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "bitmap dimensions must be nonzero");
        Self { width, height, pixels: vec![0; width * height] }
    }

    /// Creates a bitmap from raw row-major pixels.
    ///
    /// # Panics
    /// Panics if `pixels.len() != width * height`.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel buffer size mismatch");
        assert!(width > 0 && height > 0, "bitmap dimensions must be nonzero");
        Self { width, height, pixels }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw pixel buffer, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`; out-of-bounds writes are ignored so that
    /// procedural drawing code does not need edge checks.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = value;
        }
    }

    /// Fills the axis-aligned rectangle `[x, x+w) × [y, y+h)`, clipped to the
    /// image bounds.
    pub fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, value: u8) {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        for yy in y.min(self.height)..y1 {
            let row = yy * self.width;
            self.pixels[row + x.min(self.width)..row + x1].fill(value);
        }
    }

    /// Draws a 1-pixel rectangle outline, clipped to bounds.
    pub fn stroke_rect(&mut self, x: usize, y: usize, w: usize, h: usize, value: u8) {
        if w == 0 || h == 0 {
            return;
        }
        self.fill_rect(x, y, w, 1, value);
        self.fill_rect(x, y + h.saturating_sub(1), w, 1, value);
        self.fill_rect(x, y, 1, h, value);
        self.fill_rect(x + w.saturating_sub(1), y, 1, h, value);
    }

    /// Draws horizontal "text" bars: a crude stand-in for lines of text that
    /// gives pages with different copy different gradients.
    pub fn text_block(&mut self, x: usize, y: usize, w: usize, lines: usize, value: u8) {
        for i in 0..lines {
            let yy = y + i * 3;
            // Vary line length so the block is not a uniform rectangle.
            let lw = w - (i * 7) % (w / 2 + 1);
            self.fill_rect(x, yy, lw, 1, value);
        }
    }

    /// Area-averaged downsample to `(nw, nh)`: each output pixel is the
    /// mean (rounded down) of the source pixels its cell covers.
    pub fn resize(&self, nw: usize, nh: usize) -> Bitmap {
        let mut means = vec![0; nw * nh];
        self.cell_means(nw, nh, &mut means);
        Bitmap::from_pixels(nw, nh, means.into_iter().map(|m| m as u8).collect())
    }

    /// The downsample behind [`resize`](Self::resize) and the perceptual
    /// hash: writes the `nw × nh` cell means, row-major, into `means`. Cell
    /// `o` of `n` along an axis of `len` pixels covers source coordinates
    /// `⌊o·len/n⌋ .. ⌈(o+1)·len/n⌉` — at least one, so neighbouring cells
    /// share a pixel when the scale is fractional and repeat pixels when
    /// upscaling.
    pub(crate) fn cell_means(&self, nw: usize, nh: usize, means: &mut [u32]) {
        assert!(nw > 0 && nh > 0, "resize dimensions must be nonzero");
        assert_eq!(means.len(), nw * nh, "one mean per cell");
        // Columns summed at a time: bounds the stack, not the image width.
        const TILE: usize = 256;
        let (w, h) = (self.width, self.height);
        let spans = |n: usize, len: usize| {
            let mut lo = 0;
            (1..=n).map(move |o| {
                let (start, end) = (lo, o * len);
                lo = end / n;
                (start, (lo + usize::from(end % n != 0)).max(start + 1).min(len))
            })
        };
        let mut column = [0u32; TILE];
        for (cells, (y0, y1)) in means.chunks_exact_mut(nw).zip(spans(nh, h)) {
            // Sum the cell row's source rows column by column first — wide,
            // contiguous adds — and only then the few columns of each cell.
            cells.fill(0);
            for t0 in (0..w).step_by(TILE) {
                let column = &mut column[..TILE.min(w - t0)];
                column.fill(0);
                for y in y0..y1 {
                    for (c, &p) in column.iter_mut().zip(&self.pixels[y * w + t0..]) {
                        *c += u32::from(p);
                    }
                }
                for (cell, (x0, x1)) in cells.iter_mut().zip(spans(nw, w)) {
                    let (lo, hi) = (x0.max(t0), x1.min(t0 + column.len()));
                    if lo < hi {
                        *cell += column[lo - t0..hi - t0].iter().sum::<u32>();
                    }
                }
            }
            for (cell, (x0, x1)) in cells.iter_mut().zip(spans(nw, w)) {
                *cell /= ((y1 - y0) * (x1 - x0)) as u32;
            }
        }
    }

    /// Adds deterministic per-pixel noise with the given amplitude, keyed by
    /// `seed`. Models the small visual differences (timestamps, rotating
    /// product names, localized strings) between instances of one campaign.
    ///
    /// Pixel `i` (row-major) moves by `s_i % (2·amplitude + 1) − amplitude`,
    /// clamped to `0..=255`, where `s_i` is the `i`-th state of a plain
    /// xorshift64 generator started from `seed`.
    pub fn perturb(&mut self, seed: u64, amplitude: u8) {
        crate::noise::apply(&mut self.pixels, seed, amplitude);
    }

    /// Mean absolute per-pixel difference; `None` if dimensions differ.
    pub fn mean_abs_diff(&self, other: &Bitmap) -> Option<f64> {
        if self.width != other.width || self.height != other.height {
            return None;
        }
        let total: u64 = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| u64::from(a.abs_diff(*b)))
            .sum();
        Some(total as f64 / self.pixels.len() as f64)
    }

    /// Serializes to binary PGM (P5) — used by the figure-5/6 screenshot
    /// gallery binary so the campaign imagery can be inspected with any
    /// image viewer.
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.pixels);
        out
    }

    /// Renders the bitmap as ASCII art (one char per pixel block), useful in
    /// terminal demos and golden tests.
    pub fn to_ascii(&self, cols: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let rows = (cols * self.height / self.width).max(1);
        let small = self.resize(cols, rows);
        let mut s = String::with_capacity((cols + 1) * rows);
        for y in 0..rows {
            for x in 0..cols {
                let v = small.get(x, y) as usize * (RAMP.len() - 1) / 255;
                s.push(RAMP[v] as char);
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let b = Bitmap::new(4, 3);
        assert_eq!(b.width(), 4);
        assert_eq!(b.height(), 3);
        assert!(b.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_panic() {
        let _ = Bitmap::new(0, 4);
    }

    #[test]
    fn from_pixels_roundtrip() {
        let b = Bitmap::from_pixels(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(b.get(0, 0), 1);
        assert_eq!(b.get(1, 0), 2);
        assert_eq!(b.get(0, 1), 3);
        assert_eq!(b.get(1, 1), 4);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_pixels_len_mismatch_panics() {
        let _ = Bitmap::from_pixels(2, 2, vec![0; 3]);
    }

    #[test]
    fn fill_rect_clips() {
        let mut b = Bitmap::new(4, 4);
        b.fill_rect(2, 2, 10, 10, 200);
        assert_eq!(b.get(3, 3), 200);
        assert_eq!(b.get(1, 1), 0);
    }

    #[test]
    fn set_out_of_bounds_ignored() {
        let mut b = Bitmap::new(2, 2);
        b.set(5, 5, 255); // must not panic
        assert!(b.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    fn stroke_rect_outline_only() {
        let mut b = Bitmap::new(8, 8);
        b.stroke_rect(1, 1, 6, 6, 255);
        assert_eq!(b.get(1, 1), 255);
        assert_eq!(b.get(6, 6), 255);
        assert_eq!(b.get(3, 3), 0, "interior must stay empty");
    }

    /// `resize` as first written: every cell sums its own source rectangle.
    fn naive_resize(b: &Bitmap, nw: usize, nh: usize) -> Bitmap {
        let mut out = Bitmap::new(nw, nh);
        for oy in 0..nh {
            let y0 = oy * b.height / nh;
            let y1 = (((oy + 1) * b.height).div_ceil(nh)).max(y0 + 1).min(b.height);
            for ox in 0..nw {
                let x0 = ox * b.width / nw;
                let x1 = (((ox + 1) * b.width).div_ceil(nw)).max(x0 + 1).min(b.width);
                let mut sum: u32 = 0;
                for y in y0..y1 {
                    for x in x0..x1 {
                        sum += u32::from(b.get(x, y));
                    }
                }
                out.set(ox, oy, (sum / ((y1 - y0) * (x1 - x0)) as u32) as u8);
            }
        }
        out
    }

    #[test]
    fn resize_equals_naive_cell_averages() {
        // Down- and upscaling on both axes, fractional scales, the hash's
        // own 17×8 and 9×8 grids, and images wider than one column tile.
        seacma_util::forall!(150, |rng| {
            let w = if rng.bool(0.2) { rng.range(250, 700) } else { rng.range(1, 200) };
            let h = rng.range(1, 130);
            let b = Bitmap::from_pixels(w, h, (0..w * h).map(|_| rng.u8()).collect());
            let (nw, nh) = match rng.below(4) {
                0 => (17, 8),
                1 => (9, 8),
                _ => (rng.range(1, 300), rng.range(1, 40)),
            };
            assert_eq!(b.resize(nw, nh), naive_resize(&b, nw, nh), "{w}x{h} -> {nw}x{nh}");
        });
    }

    #[test]
    fn resize_preserves_constant_image() {
        let b = Bitmap::from_pixels(8, 8, vec![77; 64]);
        let s = b.resize(3, 3);
        assert!(s.pixels().iter().all(|&p| p == 77));
    }

    #[test]
    fn resize_upscale_works() {
        let b = Bitmap::from_pixels(2, 1, vec![0, 255]);
        let s = b.resize(4, 2);
        assert_eq!(s.get(0, 0), 0);
        assert_eq!(s.get(3, 1), 255);
    }

    #[test]
    fn perturb_is_deterministic_and_bounded() {
        let base = Bitmap::from_pixels(16, 16, vec![128; 256]);
        let mut a = base.clone();
        let mut b = base.clone();
        a.perturb(42, 10);
        b.perturb(42, 10);
        assert_eq!(a, b);
        let diff = base.mean_abs_diff(&a).unwrap();
        assert!(diff <= 10.0, "noise amplitude exceeded: {diff}");
        let mut c = base.clone();
        c.perturb(43, 10);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn perturb_zero_amplitude_is_identity() {
        let mut a = Bitmap::from_pixels(4, 4, (0..16).collect());
        let orig = a.clone();
        a.perturb(7, 0);
        assert_eq!(a, orig);
    }

    #[test]
    fn mean_abs_diff_dimension_mismatch() {
        let a = Bitmap::new(2, 2);
        let b = Bitmap::new(3, 2);
        assert!(a.mean_abs_diff(&b).is_none());
    }

    #[test]
    fn pgm_header_and_size() {
        let b = Bitmap::new(5, 4);
        let pgm = b.to_pgm();
        assert!(pgm.starts_with(b"P5\n5 4\n255\n"));
        assert_eq!(pgm.len(), b"P5\n5 4\n255\n".len() + 20);
    }

    #[test]
    fn ascii_has_expected_shape() {
        let b = Bitmap::new(64, 32);
        let art = b.to_ascii(16);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.len() == 16));
    }
}
