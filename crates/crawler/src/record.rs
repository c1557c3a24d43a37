//! Crawl output records.
//!
//! Domain strings are stored as [`Sym`] symbols into the crawl's symbol
//! arena (the world-level arena when the pipeline drives the crawl): a
//! paper-scale crawl produces hundreds of thousands of landings over a
//! few thousand distinct domains, so records carry 4-byte symbols and the
//! arena stores each string once. Consumers resolve through the arena the
//! producing [`crate::CrawlFarm`] interned into.

use seacma_util::impl_json_struct;
use seacma_util::sym::Sym;

use seacma_simweb::{PublisherId, RedirectKind, SimTime, UaProfile, Url, Vantage};
use seacma_vision::dhash::Dhash;

/// One third-party landing page reached by clicking on a publisher page.
#[derive(Debug, Clone, PartialEq)]
pub struct LandingRecord {
    /// Publisher the click happened on.
    pub publisher: PublisherId,
    /// Publisher domain symbol (denormalized for reporting; resolve via
    /// the crawl's arena).
    pub publisher_domain: Sym,
    /// Browser/OS combination used.
    pub ua: UaProfile,
    /// IP vantage used.
    pub vantage: Vantage,
    /// Ordinal of the click within the visit.
    pub click_ordinal: u32,
    /// Final landing URL.
    pub landing_url: Url,
    /// e2LD symbol of the landing URL (the clustering key alongside the
    /// hash; resolve via the crawl's arena).
    pub landing_e2ld: Sym,
    /// Perceptual hash of the landing screenshot.
    pub dhash: Dhash,
    /// Redirect hops traversed, `(from, to, kind)`.
    pub hops: Vec<(Url, Url, RedirectKind)>,
    /// Every URL involved in delivering the landing (backward path plus
    /// included scripts) — the attribution input.
    pub involved_urls: Vec<Url>,
    /// Nearest upstream off-domain URL (milking candidate), when the
    /// chain had one.
    pub milkable_candidate: Option<Url>,
    /// Virtual time of the click.
    pub t: SimTime,
    /// Ground-truth: landing visual was an SE attack template. Used only
    /// for evaluating the unsupervised pipeline, never inside it.
    pub truth_is_attack: bool,
}

/// The outcome of visiting one publisher with one UA.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteVisit {
    /// Publisher visited.
    pub publisher: PublisherId,
    /// UA used.
    pub ua: UaProfile,
    /// Vantage used.
    pub vantage: Vantage,
    /// Virtual time the visit started.
    pub started: SimTime,
    /// Landings captured (third-party pages only).
    pub landings: Vec<LandingRecord>,
    /// Clicks issued.
    pub clicks: u32,
    /// The publisher page failed to load.
    pub load_failed: bool,
}

/// The full crawl output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlDataset {
    /// All visits, in schedule order.
    pub visits: Vec<SiteVisit>,
}

impl LandingRecord {
    /// The ad-loading redirect chain: the click URL, every intermediate
    /// hop and the landing URL. This — not the publisher page's full
    /// script set — is what attribution scans: a greedy publisher embeds
    /// several networks' loaders, but only the chain identifies the
    /// network that actually served *this* ad.
    pub fn chain_urls(&self) -> Vec<&Url> {
        let mut out: Vec<&Url> = Vec::with_capacity(self.hops.len() + 1);
        for (from, to, _) in &self.hops {
            if out.last() != Some(&from) {
                out.push(from);
            }
            out.push(to);
        }
        if out.last() != Some(&&self.landing_url) {
            out.push(&self.landing_url);
        }
        out
    }
}

impl CrawlDataset {
    /// Iterates all landings across visits.
    pub fn landings(&self) -> impl Iterator<Item = &LandingRecord> {
        self.visits.iter().flat_map(|v| v.landings.iter())
    }

    /// Number of distinct publishers whose clicks produced at least one
    /// third-party landing (paper: 39,171 of 70,541).
    pub fn publishers_with_landings(&self) -> usize {
        let mut ids: Vec<PublisherId> = self
            .visits
            .iter()
            .filter(|v| !v.landings.is_empty())
            .map(|v| v.publisher)
            .collect();
        ids.sort();
        ids.dedup();
        ids.len()
    }

    /// Number of distinct publishers visited.
    pub fn publishers_visited(&self) -> usize {
        let mut ids: Vec<PublisherId> = self.visits.iter().map(|v| v.publisher).collect();
        ids.sort();
        ids.dedup();
        ids.len()
    }

    /// Total landings.
    pub fn landing_count(&self) -> usize {
        self.visits.iter().map(|v| v.landings.len()).sum()
    }

    /// Total clicks issued (ethics accounting input).
    pub fn click_count(&self) -> u64 {
        self.visits.iter().map(|v| u64::from(v.clicks)).sum()
    }

    /// Merges another dataset (e.g. the residential-vantage pool).
    pub fn merge(&mut self, other: CrawlDataset) {
        self.visits.extend(other.visits);
    }

    /// Splits the flattened landing order into `epochs` contiguous prefix
    /// chunks — the epoch-step hook the tracking phase and the resident
    /// daemon's scheduler replay the crawl through. Contiguity in the
    /// flattened order is load-bearing: batch DBSCAN numbering is
    /// input-order-sensitive, so an epoch feed assembled from these chunks
    /// reproduces the batch discovery clustering bit for bit at the final
    /// boundary. The last chunk may be short; an empty dataset yields no
    /// chunks (no epoch to close), matching the historical tracking
    /// behaviour.
    pub fn landing_epochs(&self, epochs: usize) -> Vec<Vec<&LandingRecord>> {
        let landings: Vec<&LandingRecord> = self.landings().collect();
        let chunk = landings.len().div_ceil(epochs.max(1)).max(1);
        landings.chunks(chunk).map(<[&LandingRecord]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(p: u32, n_landings: usize) -> SiteVisit {
        SiteVisit {
            publisher: PublisherId(p),
            ua: UaProfile::ChromeMac,
            vantage: Vantage::Institutional,
            started: SimTime(0),
            landings: (0..n_landings)
                .map(|i| LandingRecord {
                    publisher: PublisherId(p),
                    publisher_domain: Sym(p),
                    ua: UaProfile::ChromeMac,
                    vantage: Vantage::Institutional,
                    click_ordinal: i as u32,
                    landing_url: Url::http(format!("l{i}.club"), "/"),
                    landing_e2ld: Sym(1000 + i as u32),
                    dhash: Dhash(i as u128),
                    hops: vec![],
                    involved_urls: vec![],
                    milkable_candidate: None,
                    t: SimTime(0),
                    truth_is_attack: false,
                })
                .collect(),
            clicks: n_landings as u32 + 2,
            load_failed: false,
        }
    }

    #[test]
    fn dataset_counters() {
        let mut d = CrawlDataset::default();
        d.visits.push(visit(1, 2));
        d.visits.push(visit(1, 0)); // second UA pass, no landings
        d.visits.push(visit(2, 0));
        assert_eq!(d.landing_count(), 2);
        assert_eq!(d.publishers_visited(), 2);
        assert_eq!(d.publishers_with_landings(), 1);
        assert_eq!(d.click_count(), 4 + 2 + 2);
        assert_eq!(d.landings().count(), 2);
    }

    #[test]
    fn landing_epochs_are_contiguous_prefix_chunks() {
        let d = CrawlDataset { visits: vec![visit(1, 3), visit(2, 2), visit(3, 2)] };
        let flat: Vec<&LandingRecord> = d.landings().collect();
        let chunks = d.landing_epochs(3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 3, 1]);
        let rejoined: Vec<&LandingRecord> = chunks.into_iter().flatten().collect();
        assert_eq!(rejoined, flat, "chunking must preserve the flattened order");

        // More epochs than landings: one landing per chunk, none dropped.
        assert_eq!(d.landing_epochs(100).len(), 7);
        // Empty dataset: no chunks, no phantom epochs.
        assert!(CrawlDataset::default().landing_epochs(4).is_empty());
    }

    #[test]
    fn merge_appends() {
        let mut a = CrawlDataset { visits: vec![visit(1, 1)] };
        let b = CrawlDataset { visits: vec![visit(2, 1)] };
        a.merge(b);
        assert_eq!(a.visits.len(), 2);
        assert_eq!(a.publishers_visited(), 2);
    }
}
impl_json_struct!(LandingRecord {
    publisher,
    publisher_domain,
    ua,
    vantage,
    click_ordinal,
    landing_url,
    landing_e2ld,
    dhash,
    hops,
    involved_urls,
    milkable_candidate,
    t,
    truth_is_attack,
});
