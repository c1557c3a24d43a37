//! A farm-wide clean-render memo table.
//!
//! Rendering a page screenshot splits into a template-constant *clean*
//! pass (`VisualTemplate::render_clean` — procedural layout, campaign
//! decoration, background texture) and a per-instance noise pass
//! (`render_from_clean` / the hash-only `dhash_from_clean`). A crawl
//! visits tens of thousands of pages drawn from a few hundred templates,
//! and the clean pass is pure, so one bitmap per template can be shared
//! by every worker thread of a crawl farm or milking fleet. What is left
//! per hash is the noise pass, and most hashes pay it: a `(template,
//! seed)` pair repeats for only 28 % of a default crawl's recorded
//! landings and 76 % of milking hashes.
//!
//! [`RenderCache`] is that shared memo: a sharded `Mutex<HashMap>` keyed
//! by template, holding each clean render behind an [`Arc`] so readers
//! hold no lock while rendering or hashing from it. Exactness is
//! inherited from the split-render identities pinned in `seacma-simweb`
//! (`render == render_from_clean ∘ render_clean` and
//! `dhash_from_clean == dhash128 ∘ render_from_clean`), so cached and
//! uncached paths can never disagree on a pixel or a hash bit.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use seacma_simweb::VisualTemplate;
use seacma_vision::bitmap::Bitmap;
use seacma_vision::dhash::Dhash;

/// Shard count: enough to keep eight-ish crawl workers from convoying on
/// one lock during the cold-start burst, cheap enough to sit in a
/// per-crawl struct.
const SHARDS: usize = 16;

/// A concurrent, append-only memo of clean template renders.
///
/// Cloneable handles are not needed — the farm owns one cache per crawl
/// and lends `&RenderCache` to its workers (the type is `Sync`); the
/// quiet milking browser can either own a private cache or borrow a
/// shared one.
pub struct RenderCache {
    shards: Vec<Mutex<HashMap<VisualTemplate, Arc<Bitmap>>>>,
    /// Noised-hash memo: screenshot seeds are keyed by (URL, 30-minute
    /// window), so every visit landing on one campaign creative inside
    /// one window produces the same `(template, seed)` pair — and a crawl
    /// pass sends many visits through each campaign per window. The memo
    /// turns those repeats into a lookup instead of a 10k-pixel noise
    /// pass. Exact by purity of `dhash_from_clean`.
    hashes: Vec<Mutex<HashMap<(VisualTemplate, u64), Dhash>>>,
}

impl RenderCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hashes: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The clean (noise-free) render of `template`, computed on first use
    /// and shared thereafter.
    pub fn clean(&self, template: VisualTemplate) -> Arc<Bitmap> {
        let shard = &self.shards[(template.key() % SHARDS as u64) as usize];
        let mut map = shard.lock().expect("render cache shard poisoned");
        Arc::clone(
            map.entry(template).or_insert_with(|| Arc::new(template.render_clean())),
        )
    }

    /// Renders `template` with per-instance noise keyed by
    /// `instance_seed`, bit-identical to `template.render(instance_seed)`.
    pub fn render(&self, template: VisualTemplate, instance_seed: u64) -> Bitmap {
        VisualTemplate::render_from_clean(&self.clean(template), instance_seed)
    }

    /// The perceptual hash [`render`](Self::render) would hash to,
    /// memoized per `(template, instance_seed)` — bit-identical to
    /// `dhash128(&template.render(instance_seed))`.
    pub fn dhash(&self, template: VisualTemplate, instance_seed: u64) -> Dhash {
        let shard =
            &self.hashes[((template.key() ^ instance_seed) % SHARDS as u64) as usize];
        if let Some(d) =
            shard.lock().expect("hash cache shard poisoned").get(&(template, instance_seed))
        {
            return *d;
        }
        // Noise pass outside the lock; racing computations agree by purity.
        let d = VisualTemplate::dhash_from_clean(&self.clean(template), instance_seed);
        shard.lock().expect("hash cache shard poisoned").insert((template, instance_seed), d);
        d
    }

    /// Number of templates memoized so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("render cache shard poisoned").len()).sum()
    }

    /// Whether nothing has been rendered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for RenderCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RenderCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RenderCache").field("templates", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_vision::dhash::dhash128;

    const TEMPLATES: [VisualTemplate; 5] = [
        VisualTemplate::FakeSoftware { skin: 3 },
        VisualTemplate::Lottery { skin: 1 },
        VisualTemplate::Parked { provider: 2 },
        VisualTemplate::BenignLanding { style: 0x51AB },
        VisualTemplate::LoadError,
    ];

    #[test]
    fn cached_paths_match_direct_rendering() {
        let cache = RenderCache::new();
        for t in TEMPLATES {
            for seed in [0u64, 1, 77, 0xDEAD_BEEF] {
                assert_eq!(cache.render(t, seed), t.render(seed), "{t:?} seed={seed}");
                assert_eq!(cache.dhash(t, seed), dhash128(&t.render(seed)), "{t:?} seed={seed}");
            }
        }
        assert_eq!(cache.len(), TEMPLATES.len(), "one memo entry per template");
    }

    #[test]
    fn concurrent_warmup_memoizes_once_per_template() {
        let cache = RenderCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for t in TEMPLATES {
                        for seed in 0..4u64 {
                            assert_eq!(cache.dhash(t, seed), dhash128(&t.render(seed)));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), TEMPLATES.len());
    }
}
