//! 128-bit difference hash (dhash).
//!
//! The paper (§3.3) computes "a perceptual hash, specifically a 128 bit
//! *difference hash* (dhash)" on every landing-page screenshot, following the
//! Hacker Factor construction: downscale, then record for each pixel whether
//! it is brighter than its right neighbour. We use a 17×8 luminance grid
//! (17 columns ⇒ 16 horizontal gradients per row × 8 rows = 128 bits).
//! Near-duplicate images — the same SE attack with rotated domain names,
//! timestamps or localized strings — differ in only a few bits.

use seacma_util::impl_json_newtype;
use std::fmt;

use crate::bitmap::Bitmap;

/// Number of gradient columns (downscale width is `HASH_COLS + 1`).
pub const HASH_COLS: usize = 16;
/// Number of gradient rows.
pub const HASH_ROWS: usize = 8;
/// Total hash width in bits.
pub const HASH_BITS: u32 = (HASH_COLS * HASH_ROWS) as u32;

/// A 128-bit perceptual difference hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dhash(pub u128);

impl fmt::Debug for Dhash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dhash({:032x})", self.0)
    }
}

impl fmt::Display for Dhash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Dhash {
    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<Dhash> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Dhash)
    }
}

/// Computes the 128-bit difference hash of an image.
///
/// The bit at position `row * 16 + col` (bit 0 = most significant) is set
/// iff the downsampled pixel `(col, row)` is strictly brighter than
/// `(col + 1, row)`.
///
/// ```
/// use seacma_vision::bitmap::Bitmap;
/// use seacma_vision::dhash::{dhash128, hamming};
///
/// // A textured page (real screenshots are never flat-black).
/// let mut page = Bitmap::new(128, 80);
/// for y in 0..80 {
///     for x in 0..128 {
///         page.set(x, y, ((x * 3 + y * 2) % 230) as u8);
///     }
/// }
/// page.fill_rect(20, 20, 60, 30, 240);
/// let mut near_duplicate = page.clone();
/// near_duplicate.perturb(42, 4); // per-instance noise
///
/// let d = hamming(dhash128(&page), dhash128(&near_duplicate));
/// assert!(d <= 12, "near-duplicates stay inside the DBSCAN eps ball");
/// ```
pub fn dhash128(image: &Bitmap) -> Dhash {
    dhash_grid(image, HASH_COLS, HASH_ROWS)
}

/// Computes `dhash128` of a noised copy of `clean`: [`Bitmap::perturb`]
/// into a scratch copy, then the hash of that. The milker and the crawl
/// hash thousands of per-visit screenshots of each cached clean render and
/// never look at the pixels; this is their path.
pub fn dhash128_noised(clean: &Bitmap, seed: u64, amplitude: u8) -> Dhash {
    let mut noised = clean.clone();
    noised.perturb(seed, amplitude);
    dhash128(&noised)
}

/// Computes the `cols × rows`-bit difference hash of an image, in the low
/// bits of the word: the image is area-averaged down to `(cols + 1) × rows`
/// cells as [`Bitmap::resize`] does, and the bit at position `row * cols +
/// col` (counted from the most significant of the `cols * rows`) is set iff
/// cell `(col, row)` is strictly brighter than `(col + 1, row)`.
/// [`dhash128`] is the 16×8 grid; the hash-width ablation also runs 8×8.
///
/// # Panics
/// Panics if the grid is empty or has more than 128 gradients.
pub fn dhash_grid(image: &Bitmap, cols: usize, rows: usize) -> Dhash {
    const BITS: usize = HASH_BITS as usize;
    assert!(cols > 0 && rows > 0 && cols * rows <= BITS, "grid must hold 1..=128 gradients");
    // One more cell than gradients per row, and at most `BITS` rows.
    let mut means = [0; 2 * BITS];
    let means = &mut means[..(cols + 1) * rows];
    image.cell_means(cols + 1, rows, means);
    let mut bits: u128 = 0;
    for row in means.chunks_exact(cols + 1) {
        for pair in row.windows(2) {
            bits = bits << 1 | u128::from(pair[0] > pair[1]);
        }
    }
    Dhash(bits)
}

/// Hamming distance between two hashes, in bits (0..=128).
#[inline]
pub fn hamming(a: Dhash, b: Dhash) -> u32 {
    (a.0 ^ b.0).count_ones()
}

/// Hamming distance normalized to `[0, 1]` — the distance the paper feeds
/// to DBSCAN with `eps = 0.1` (i.e. at most 12 of 128 differing bits).
#[inline]
pub fn normalized_hamming(a: Dhash, b: Dhash) -> f64 {
    f64::from(hamming(a, b)) / f64::from(HASH_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;

    fn gradient_image() -> Bitmap {
        let mut b = Bitmap::new(64, 32);
        for y in 0..32 {
            for x in 0..64 {
                b.set(x, y, ((x * 4 + y) % 256) as u8);
            }
        }
        b
    }

    #[test]
    fn constant_image_hashes_to_zero() {
        let b = Bitmap::from_pixels(32, 32, vec![100; 1024]);
        assert_eq!(dhash128(&b).0, 0);
    }

    #[test]
    fn hash_is_deterministic() {
        let b = gradient_image();
        assert_eq!(dhash128(&b), dhash128(&b));
    }

    #[test]
    fn hash_is_scale_invariant() {
        let b = gradient_image();
        let big = b.resize(128, 64);
        let d = hamming(dhash128(&b), dhash128(&big));
        assert!(d <= 8, "resizing shifted {d} bits");
    }

    #[test]
    fn small_noise_small_distance() {
        let b = gradient_image();
        let mut noisy = b.clone();
        noisy.perturb(7, 6);
        let d = hamming(dhash128(&b), dhash128(&noisy));
        assert!(d <= 12, "noise moved hash too far: {d} bits");
    }

    #[test]
    fn different_structures_far_apart() {
        // Left-bright vs right-bright: opposite gradients.
        let mut a = Bitmap::new(34, 8);
        let mut b = Bitmap::new(34, 8);
        for y in 0..8 {
            for x in 0..34 {
                a.set(x, y, (255 - x * 7) as u8);
                b.set(x, y, (x * 7) as u8);
            }
        }
        let d = hamming(dhash128(&a), dhash128(&b));
        assert!(d >= 100, "opposite gradients should differ in most bits, got {d}");
    }

    #[test]
    fn noised_hash_equals_perturb_then_hash() {
        // `perturb` and `dhash128_noised` share the lane stream, so both
        // are held to the one-step-per-pixel oracle rather than to each
        // other, on arbitrary bitmaps — odd sizes, smaller than the hash
        // grid, flat and textured content, zero and large amplitudes. A
        // quarter of the cases run the one point production runs (128×80,
        // amplitude 5) and half of the rest its amplitude.
        use crate::bitmap::{DEFAULT_HEIGHT, DEFAULT_WIDTH};
        seacma_util::forall!(150, |rng| {
            let production = rng.bool(0.25);
            let (w, h) = if production {
                (DEFAULT_WIDTH, DEFAULT_HEIGHT)
            } else {
                (rng.range(1, 190), rng.range(1, 120))
            };
            let amplitude = if production || rng.bool(0.5) { 5 } else { rng.u8() };
            let base = rng.below(256) as usize;
            let stride = rng.range(0, 9);
            let mut clean = Bitmap::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    clean.set(x, y, ((base + x * stride + y * 2) % 256) as u8);
                }
            }
            let seed = rng.u64();
            let mut pixels = clean.pixels().to_vec();
            crate::noise::reference(&mut pixels, seed, amplitude);
            let want = Bitmap::from_pixels(w, h, pixels);
            let mut noised = clean.clone();
            noised.perturb(seed, amplitude);
            assert_eq!(noised, want, "perturb at {w}x{h} seed={seed} amp={amplitude}");
            assert_eq!(
                dhash128_noised(&clean, seed, amplitude),
                dhash128(&want),
                "noised hash at {w}x{h} seed={seed} amp={amplitude}"
            );
        });
    }

    #[test]
    fn grid_hash_is_resize_then_compare() {
        seacma_util::forall!(60, |rng| {
            let (w, h) = (rng.range(1, 300), rng.range(1, 100));
            let image = Bitmap::from_pixels(w, h, (0..w * h).map(|_| rng.u8()).collect());
            for (cols, rows) in [(HASH_COLS, HASH_ROWS), (8, 8), (128, 1), (1, 128), (3, 5)] {
                let small = image.resize(cols + 1, rows);
                let mut bits: u128 = 0;
                for row in 0..rows {
                    for col in 0..cols {
                        let brighter = small.get(col, row) > small.get(col + 1, row);
                        bits = bits << 1 | u128::from(brighter);
                    }
                }
                let got = dhash_grid(&image, cols, rows);
                assert_eq!(got, Dhash(bits), "{w}x{h} grid {cols}x{rows}");
            }
        });
    }

    #[test]
    fn hamming_basics() {
        assert_eq!(hamming(Dhash(0), Dhash(0)), 0);
        assert_eq!(hamming(Dhash(0), Dhash(u128::MAX)), 128);
        assert_eq!(hamming(Dhash(0b1011), Dhash(0b0001)), 2);
    }

    #[test]
    fn normalized_hamming_range() {
        assert_eq!(normalized_hamming(Dhash(0), Dhash(u128::MAX)), 1.0);
        assert_eq!(normalized_hamming(Dhash(5), Dhash(5)), 0.0);
    }

    #[test]
    fn display_parse_roundtrip() {
        let h = Dhash(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let s = h.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(Dhash::parse(&s), Some(h));
        assert_eq!(Dhash::parse("xyz"), None);
        assert_eq!(Dhash::parse(&s[..31]), None);
    }
}
impl_json_newtype!(Dhash);
