//! Procedural page appearance.
//!
//! Screenshots are the pipeline's clustering signal, so the simulator gives
//! every page a *visual template*: a procedural description of what the
//! rendered page looks like. Pages of the same SE campaign share a template
//! (same attack creative served from many rotating domains) and differ only
//! by small per-instance noise — exactly the near-duplicate structure the
//! 128-bit dhash + DBSCAN step exploits. Distinct campaigns get distinct
//! layouts; benign pages are visually diverse; the paper's confounders
//! (parked pages, stock adult images, URL-shortener interstitials, failed
//! loads) are modelled as shared templates across unrelated domains.

use seacma_vision::bitmap::{Bitmap, DEFAULT_HEIGHT, DEFAULT_WIDTH};
use seacma_vision::dhash::{dhash128_noised, Dhash};

use crate::det::{det_hash, det_range, str_word};

/// Per-instance noise amplitude applied to campaign screenshots: rotating
/// domain strings, timestamps, localized copy. Chosen so intra-template
/// dhash distance stays well under the DBSCAN eps (≤ 12/128 bits).
pub const INSTANCE_NOISE: u8 = 5;

/// What a rendered page looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VisualTemplate {
    /// Fake Flash/Java/media-player update dialog (Fake Software category).
    FakeSoftware {
        /// Campaign creative skin: selects layout geometry and decoration.
        skin: u16,
    },
    /// "Your computer is infected" scanner page.
    Scareware {
        /// Campaign creative skin: selects layout geometry and decoration.
        skin: u16,
    },
    /// Tech-support scam: fake BSOD/alert wall with a phone number.
    TechSupport {
        /// Campaign creative skin: selects layout geometry and decoration.
        skin: u16,
    },
    /// "You won!" lottery/gift-card wheel (mobile-targeted).
    Lottery {
        /// Campaign creative skin: selects layout geometry and decoration.
        skin: u16,
    },
    /// Page luring the user to Allow push notifications.
    ChromeNotification {
        /// Campaign creative skin: selects layout geometry and decoration.
        skin: u16,
    },
    /// Fake video player demanding account registration.
    Registration {
        /// Campaign creative skin: selects layout geometry and decoration.
        skin: u16,
    },
    /// Domain-parking placeholder; `provider` selects one of the parking
    /// services' shared layouts.
    Parked {
        /// Parking service, selecting one of the services' shared layouts.
        provider: u16,
    },
    /// Stock-photo adult lure page; `image` selects the stock image.
    StockAdult {
        /// Stock image selector.
        image: u16,
    },
    /// Ad-based URL-shortener interstitial (adf.ly / shorte.st style).
    ShortenerFrame {
        /// Shortener service skin.
        service: u16,
    },
    /// Blank/failed page load (the paper's one spurious cluster).
    LoadError,
    /// A benign advertiser's landing page; `style` is effectively unique
    /// per advertiser.
    BenignLanding {
        /// Style word, effectively unique per site.
        style: u64,
    },
    /// A publisher's own page.
    PublisherHome {
        /// Style word, effectively unique per site.
        style: u64,
    },
}

impl VisualTemplate {
    /// Renders the template at the default screenshot size with
    /// per-instance noise keyed by `instance_seed`.
    pub fn render(&self, instance_seed: u64) -> Bitmap {
        Self::render_from_clean(&self.render_clean(), instance_seed)
    }

    /// Applies the per-instance noise pass to a clean render. Equivalent
    /// to [`render`](Self::render) when `clean` came from
    /// [`render_clean`](Self::render_clean) of the same template — which
    /// lets high-frequency re-visitors (the milker renders the same
    /// campaign creative thousands of times) cache the clean pass per
    /// template and pay only the noise pass per instance.
    pub fn render_from_clean(clean: &Bitmap, instance_seed: u64) -> Bitmap {
        let mut bm = clean.clone();
        bm.perturb(instance_seed, INSTANCE_NOISE);
        bm
    }

    /// The perceptual hash of [`render_from_clean`](Self::render_from_clean)
    /// — `dhash128(&Self::render_from_clean(clean, seed))` for callers that
    /// never inspect the pixels (`seacma_vision::dhash::dhash128_noised`):
    /// the crawl's recorded landings, source validation, and the milker's
    /// thousands of per-visit screenshots of each cached clean render.
    pub fn dhash_from_clean(clean: &Bitmap, instance_seed: u64) -> Dhash {
        dhash128_noised(clean, instance_seed, INSTANCE_NOISE)
    }

    /// Renders the template without instance noise: the procedural layout,
    /// campaign decoration and background texture, but no per-visit
    /// variation. This is the expensive, template-constant part of
    /// [`render`](Self::render).
    pub fn render_clean(&self) -> Bitmap {
        let mut bm = Bitmap::new(DEFAULT_WIDTH, DEFAULT_HEIGHT);
        match *self {
            VisualTemplate::FakeSoftware { skin } => {
                draw_chrome(&mut bm, 30);
                let g = geom(b"fakesw", skin);
                // Three creative families, as in the paper's Figure 6:
                // fake Flash/Java update dialogs and fake macOS media
                // players.
                match skin % 3 {
                    0 => {
                        // Windows-style update dialog with title bar.
                        let (x, y) = (18 + g[0] % 20, 14 + g[1] % 10);
                        bm.fill_rect(x, y, 80, 44, 210);
                        bm.fill_rect(x, y, 80, 7, 120); // title bar
                        bm.stroke_rect(x, y, 80, 44, 90);
                        bm.fill_rect(x + 4, y + 10, 14, 14, 60 + (g[2] % 100) as u8);
                        bm.text_block(x + 22, y + 12, 50, 3, 40);
                        bm.fill_rect(x + 20 + g[3] % 12, y + 30, 40, 10, 45);
                    }
                    1 => {
                        // Full-page "update required" splash with big CTA.
                        bm.fill_rect(0, 10, DEFAULT_WIDTH, 26, 180 + (g[0] % 40) as u8);
                        bm.text_block(14, 14, 100, 2, 35);
                        bm.fill_rect(30 + g[1] % 16, 44, 64, 14, 50);
                        bm.text_block(10, 64, 108, 2, 150);
                    }
                    _ => {
                        // Fake macOS media player (dark player + traffic
                        // lights + prompt sheet).
                        bm.fill_rect(6, 12, 116, 52, 25);
                        for (i, tone) in [200u8, 170, 140].iter().enumerate() {
                            bm.fill_rect(10 + i * 6, 15, 4, 4, *tone);
                        }
                        let px = 52 + g[0] % 12;
                        bm.fill_rect(px, 30, 16, 14, 220);
                        bm.fill_rect(22 + g[1] % 10, 40, 84, 16, 235); // sheet
                        bm.text_block(26, 44, 70, 2, 60);
                    }
                }
                bm.text_block(4, 70, 100, 2, 140);
            }
            VisualTemplate::Scareware { skin } => {
                draw_chrome(&mut bm, 30);
                let g = geom(b"scare", skin);
                // Full-width warning banner + scanner list.
                bm.fill_rect(0, 12, DEFAULT_WIDTH, 14 + g[0] % 6, 230);
                bm.text_block(8, 16, 110, 2, 20);
                for i in 0..5 {
                    let y = 34 + i * 8;
                    bm.fill_rect(10, y, 4, 4, 250); // red "threat" dot
                    bm.text_block(20, y, 70 + (g[1] % 20), 1, 120);
                }
                bm.fill_rect(34 + g[2] % 30, 66, 54, 10, 50);
            }
            VisualTemplate::TechSupport { skin } => {
                draw_chrome(&mut bm, 30);
                let g = geom(b"techsup", skin);
                // Blue-screen-like text wall plus modal alert box.
                bm.fill_rect(0, 10, DEFAULT_WIDTH, DEFAULT_HEIGHT - 10, 70);
                bm.text_block(6, 14, 116, 8, 190);
                let (x, y) = (24 + g[0] % 16, 30 + g[1] % 8);
                bm.fill_rect(x, y, 76, 30, 235);
                bm.stroke_rect(x, y, 76, 30, 20);
                bm.text_block(x + 4, y + 4, 66, 2, 30);
                bm.fill_rect(x + 6, y + 20, 26, 7, 60); // "call now" button
                bm.fill_rect(x + 42, y + 20, 26, 7, 60);
            }
            VisualTemplate::Lottery { skin } => {
                draw_chrome(&mut bm, 30);
                let g = geom(b"lottery", skin);
                // Prize wheel: concentric boxes + radial segments stand-in.
                let cx = 40 + g[0] % 24;
                for r in 0..4 {
                    let s = 36 - r * 8;
                    bm.stroke_rect(cx - s / 2 + 24, 40 - s / 2 + 6, s, s, 200 + (r * 15) as u8);
                }
                bm.fill_rect(cx + 18, 34, 12, 12, 250);
                bm.text_block(10, 12, 108, 2, 220);
                bm.fill_rect(30 + g[1] % 20, 64, 60, 9, 55);
            }
            VisualTemplate::ChromeNotification { skin } => {
                draw_chrome(&mut bm, 30);
                let g = geom(b"notif", skin);
                // Browser permission prompt top-left + blurred lure behind.
                bm.fill_rect(0, 10, DEFAULT_WIDTH, DEFAULT_HEIGHT - 10, 120 + (g[0] % 30) as u8);
                bm.fill_rect(6, 12, 66, 26, 245);
                bm.stroke_rect(6, 12, 66, 26, 80);
                bm.text_block(10, 16, 56, 2, 60);
                bm.fill_rect(12, 30, 20, 6, 70); // Allow
                bm.fill_rect(40, 30, 20, 6, 180); // Block
                bm.text_block(20, 52 + g[1] % 8, 90, 3, 200);
            }
            VisualTemplate::Registration { skin } => {
                draw_chrome(&mut bm, 30);
                let g = geom(b"regis", skin);
                // Fake video player with centered play button, paused with
                // an account-creation prompt.
                bm.fill_rect(8, 14, 112, 46, 15);
                let px = 54 + g[0] % 10;
                bm.fill_rect(px, 30, 14, 12, 230); // play triangle stand-in
                bm.fill_rect(26 + g[1] % 8, 38, 76, 18, 240);
                bm.text_block(30, 42, 60, 2, 50);
                bm.fill_rect(8, 64, 112, 4, 90); // progress bar
            }
            VisualTemplate::Parked { provider } => {
                // No browser chrome variance: parking pages are served
                // identically across thousands of unrelated domains.
                let g = geom(b"parked", provider);
                bm.fill_rect(0, 0, DEFAULT_WIDTH, DEFAULT_HEIGHT, 235);
                bm.text_block(24, 8, 80, 1, 120);
                for i in 0..4 {
                    let y = 22 + i * 12;
                    bm.fill_rect(16, y, 96, 8, 210 - (g[0] % 20) as u8);
                    bm.text_block(20, y + 2, 60, 1, 100);
                }
                bm.text_block(34, 72, 60, 1, 160);
            }
            VisualTemplate::StockAdult { image } => {
                let g = geom(b"stock", image);
                // A large "photo" block (textured) + click-through button.
                for y in 0..48usize {
                    for x in 0..(DEFAULT_WIDTH) {
                        let v = det_hash(&[u64::from(image), (x / 8) as u64, (y / 8) as u64]);
                        bm.set(x, y + 8, 80 + (v % 140) as u8);
                    }
                }
                bm.fill_rect(30 + g[0] % 30, 62, 56, 10, 240);
            }
            VisualTemplate::ShortenerFrame { service } => {
                let g = geom(b"shortener", service);
                // Top banner ad frame + countdown + "skip ad" button.
                bm.fill_rect(0, 0, DEFAULT_WIDTH, 10, 60);
                bm.fill_rect(10, 16, 108, 34, 190 + (g[0] % 30) as u8);
                bm.stroke_rect(10, 16, 108, 34, 90);
                bm.fill_rect(96, 58, 26, 10, 50); // skip button
                bm.text_block(12, 60, 60, 2, 140);
            }
            VisualTemplate::LoadError => {
                // about:blank-ish: nothing but a faint chrome strip.
                bm.fill_rect(0, 0, DEFAULT_WIDTH, 8, 40);
            }
            VisualTemplate::BenignLanding { style } => {
                draw_chrome(&mut bm, 30);
                // Fully style-derived layout: background wash, header, hero
                // and a handful of freely-placed content blocks — visually
                // unique per advertiser.
                let h = det_hash(&[style, 1]);
                bm.fill_rect(0, 8, DEFAULT_WIDTH, DEFAULT_HEIGHT - 8, 40 + (h % 140) as u8);
                bm.fill_rect(0, 10, DEFAULT_WIDTH, 10 + (h % 8) as usize, 100 + (h >> 8 & 0x7f) as u8);
                for c in 0..6u64 {
                    let hh = det_hash(&[style, 2, c]);
                    let bw = 18 + (hh % 50) as usize;
                    let bh = 8 + ((hh >> 8) % 24) as usize;
                    let x = ((hh >> 16) % DEFAULT_WIDTH as u64) as usize;
                    let y = 20 + ((hh >> 32) % (DEFAULT_HEIGHT as u64 - 28)) as usize;
                    bm.fill_rect(x, y, bw.min(DEFAULT_WIDTH - x), bh, 60 + ((hh >> 48) % 180) as u8);
                }
            }
            VisualTemplate::PublisherHome { style } => {
                draw_chrome(&mut bm, 30);
                let h = det_hash(&[style, 3]);
                // Content grid typical of streaming/download portals.
                bm.fill_rect(0, 10, DEFAULT_WIDTH, 8, 50 + (h % 60) as u8);
                for r in 0..3u64 {
                    for c in 0..4u64 {
                        let hh = det_hash(&[style, 4, r, c]);
                        let x = 4 + c as usize * 31;
                        let y = 22 + r as usize * 19;
                        bm.fill_rect(x, y, 27, 15, 120 + (hh % 110) as u8);
                    }
                }
            }
        }
        // Campaign-specific decoration: each campaign's creative has its own
        // banner art, so skins within a category must not collapse into one
        // cluster.
        if let Some((tag, skin)) = self.skin_tag() {
            draw_decor(&mut bm, tag, skin);
        }
        apply_texture(&mut bm, self.texture_key());
        bm
    }

    /// `(category tag, skin)` for campaign templates; `None` for the rest.
    fn skin_tag(&self) -> Option<(u64, u16)> {
        match *self {
            VisualTemplate::FakeSoftware { skin } => Some((1, skin)),
            VisualTemplate::Scareware { skin } => Some((2, skin)),
            VisualTemplate::TechSupport { skin } => Some((3, skin)),
            VisualTemplate::Lottery { skin } => Some((4, skin)),
            VisualTemplate::ChromeNotification { skin } => Some((5, skin)),
            VisualTemplate::Registration { skin } => Some((6, skin)),
            _ => None,
        }
    }

    /// A stable 64-bit identity word for this template: equal templates
    /// always map to the same word, distinct templates to distinct words
    /// (up to `det_hash` collisions). Concurrent render caches use it to
    /// pick a shard without hashing the whole enum.
    pub fn key(&self) -> u64 {
        self.texture_key()
    }

    /// A key identifying this template's page "theme" (background art,
    /// fonts, body texture). Stable per template, distinct across
    /// templates.
    fn texture_key(&self) -> u64 {
        match *self {
            VisualTemplate::FakeSoftware { skin } => det_hash(&[1, u64::from(skin)]),
            VisualTemplate::Scareware { skin } => det_hash(&[2, u64::from(skin)]),
            VisualTemplate::TechSupport { skin } => det_hash(&[3, u64::from(skin)]),
            VisualTemplate::Lottery { skin } => det_hash(&[4, u64::from(skin)]),
            VisualTemplate::ChromeNotification { skin } => det_hash(&[5, u64::from(skin)]),
            VisualTemplate::Registration { skin } => det_hash(&[6, u64::from(skin)]),
            VisualTemplate::Parked { provider } => det_hash(&[7, u64::from(provider)]),
            VisualTemplate::StockAdult { image } => det_hash(&[8, u64::from(image)]),
            VisualTemplate::ShortenerFrame { service } => det_hash(&[9, u64::from(service)]),
            VisualTemplate::LoadError => det_hash(&[10]),
            VisualTemplate::BenignLanding { style } => det_hash(&[11, style]),
            VisualTemplate::PublisherHome { style } => det_hash(&[12, style]),
        }
    }

    /// True for templates that represent SE attack content (used as ground
    /// truth when evaluating cluster labeling).
    pub fn is_attack(&self) -> bool {
        matches!(
            self,
            VisualTemplate::FakeSoftware { .. }
                | VisualTemplate::Scareware { .. }
                | VisualTemplate::TechSupport { .. }
                | VisualTemplate::Lottery { .. }
                | VisualTemplate::ChromeNotification { .. }
                | VisualTemplate::Registration { .. }
        )
    }
}

/// Browser chrome strip (address bar) whose tone varies slightly per page
/// but contributes no clustering signal.
fn draw_chrome(bm: &mut Bitmap, tone: u8) {
    let w = bm.width();
    bm.fill_rect(0, 0, w, 8, tone);
    bm.fill_rect(4, 2, w / 2, 4, tone + 60);
}

/// Draws per-campaign decoration blocks whose geometry and tone derive from
/// the skin, spreading campaigns of one category far apart in dhash space.
fn draw_decor(bm: &mut Bitmap, tag: u64, skin: u16) {
    let w = bm.width();
    let h = bm.height();
    for i in 0..4u64 {
        let r = det_hash(&[0xDEC0, tag, u64::from(skin), i]);
        let bw = 14 + (r % 40) as usize;
        let bh = 6 + ((r >> 8) % 16) as usize;
        let x = ((r >> 16) % (w as u64)) as usize;
        let y = 8 + ((r >> 32) % ((h - 16) as u64)) as usize;
        let tone = 30 + ((r >> 48) % 200) as u8;
        bm.fill_rect(x, y, bw.min(w - x), bh, tone);
    }
}

/// Overlays the template's background texture: a per-template pseudo-random
/// brightness offset per coarse cell.
///
/// This serves two purposes at once. Flat fills would make neighbouring
/// dhash cells exactly equal, turning their gradient bits into coin flips
/// under per-instance noise — the texture pins them (adjacent cells are
/// forced to distinct offsets, and instance noise averages to ≪ 1 grey
/// level per dhash cell). And because the texture derives from the
/// template identity, *different* templates disagree on most background
/// gradient bits, keeping unrelated pages far apart in Hamming space —
/// as unrelated real pages are.
fn apply_texture(bm: &mut Bitmap, key: u64) {
    let w = bm.width();
    let h = bm.height();
    const CELL_W: usize = 8;
    const CELL_H: usize = 10;
    let mut prev_offset = 0u8;
    for cy in 0..h.div_ceil(CELL_H) {
        for cx in 0..w.div_ceil(CELL_W) {
            let mut offset = (det_hash(&[key, 0x7E47, cx as u64, cy as u64]) % 31) as u8;
            if offset == prev_offset {
                offset = (offset + 7) % 31;
            }
            prev_offset = offset;
            for y in (cy * CELL_H)..((cy + 1) * CELL_H).min(h) {
                for x in (cx * CELL_W)..((cx + 1) * CELL_W).min(w) {
                    let v = bm.get(x, y);
                    bm.set(x, y, v.saturating_add(offset).min(250));
                }
            }
        }
    }
}

/// Skin-specific geometry words: deterministic per (category, skin) so all
/// instances of a campaign share layout while campaigns differ.
fn geom(tag: &[u8], skin: u16) -> [usize; 4] {
    let t = str_word(std::str::from_utf8(tag).expect("ascii tag"));
    let mut out = [0usize; 4];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = det_range(&[t, u64::from(skin), i as u64], 1 << 16) as usize;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_vision::dhash::{dhash128, hamming};

    #[test]
    fn same_template_instances_are_near_duplicates() {
        let t = VisualTemplate::TechSupport { skin: 2 };
        let a = dhash128(&t.render(1));
        let b = dhash128(&t.render(999));
        assert!(hamming(a, b) <= 12, "distance {}", hamming(a, b));
    }

    #[test]
    fn different_categories_are_far_apart() {
        let cats = [
            VisualTemplate::FakeSoftware { skin: 0 },
            VisualTemplate::Scareware { skin: 0 },
            VisualTemplate::TechSupport { skin: 0 },
            VisualTemplate::Lottery { skin: 0 },
            VisualTemplate::ChromeNotification { skin: 0 },
            VisualTemplate::Registration { skin: 0 },
            VisualTemplate::Parked { provider: 0 },
        ];
        for (i, a) in cats.iter().enumerate() {
            for b in &cats[i + 1..] {
                let d = hamming(dhash128(&a.render(1)), dhash128(&b.render(1)));
                assert!(d > 12, "{a:?} vs {b:?} only {d} bits apart");
            }
        }
    }

    #[test]
    fn most_skins_within_category_are_distinguishable() {
        // Campaign clusters must not merge: check the fraction of skin
        // pairs within a category that stay outside the eps ball.
        let mut far = 0;
        let mut total = 0;
        for s1 in 0..12u16 {
            for s2 in (s1 + 1)..12 {
                let a = dhash128(&VisualTemplate::FakeSoftware { skin: s1 }.render(1));
                let b = dhash128(&VisualTemplate::FakeSoftware { skin: s2 }.render(1));
                total += 1;
                if hamming(a, b) > 12 {
                    far += 1;
                }
            }
        }
        assert!(
            far * 10 >= total * 9,
            "only {far}/{total} skin pairs distinguishable"
        );
    }

    #[test]
    fn benign_styles_are_diverse() {
        let mut far = 0;
        for i in 0..20u64 {
            let a = dhash128(&VisualTemplate::BenignLanding { style: i }.render(1));
            let b = dhash128(&VisualTemplate::BenignLanding { style: i + 1000 }.render(1));
            if hamming(a, b) > 12 {
                far += 1;
            }
        }
        assert!(far >= 17, "benign pages cluster too easily: {far}/20 far");
    }

    #[test]
    fn parked_providers_share_layout_across_instances() {
        let t = VisualTemplate::Parked { provider: 3 };
        let d = hamming(dhash128(&t.render(5)), dhash128(&t.render(6)));
        assert!(d <= 12);
    }

    #[test]
    fn attack_flag_matches_categories() {
        assert!(VisualTemplate::Lottery { skin: 1 }.is_attack());
        assert!(!VisualTemplate::Parked { provider: 1 }.is_attack());
        assert!(!VisualTemplate::BenignLanding { style: 1 }.is_attack());
        assert!(!VisualTemplate::LoadError.is_attack());
    }

    #[test]
    fn render_is_deterministic() {
        let t = VisualTemplate::Scareware { skin: 7 };
        assert_eq!(t.render(42), t.render(42));
    }

    #[test]
    fn cached_clean_render_is_exact() {
        // The split `render_clean` + `render_from_clean` path must equal
        // the one-shot `render` bit for bit — it is what makes per-template
        // clean-render caching safe for the byte-identity guarantees.
        for t in [
            VisualTemplate::FakeSoftware { skin: 3 },
            VisualTemplate::Lottery { skin: 1 },
            VisualTemplate::Parked { provider: 2 },
            VisualTemplate::LoadError,
        ] {
            let clean = t.render_clean();
            for seed in [0u64, 1, 0xDEAD_BEEF] {
                assert_eq!(VisualTemplate::render_from_clean(&clean, seed), t.render(seed));
            }
        }
    }

    #[test]
    fn dhash_from_clean_equals_render_then_hash() {
        for t in [
            VisualTemplate::FakeSoftware { skin: 3 },
            VisualTemplate::Scareware { skin: 9 },
            VisualTemplate::Lottery { skin: 1 },
            VisualTemplate::Parked { provider: 2 },
            VisualTemplate::BenignLanding { style: 0x51AB },
            VisualTemplate::LoadError,
        ] {
            let clean = t.render_clean();
            for seed in [0u64, 1, 77, 0xDEAD_BEEF] {
                assert_eq!(
                    VisualTemplate::dhash_from_clean(&clean, seed),
                    seacma_vision::dhash::dhash128(&t.render(seed)),
                    "hash path divergence for {t:?} seed={seed}"
                );
            }
        }
    }
}
