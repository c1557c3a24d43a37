//! Automatic parked-domain filtering.
//!
//! The paper found that 11 of its 22 benign clusters were parked or
//! inaccessible domains and noted: "Most of these domains could be
//! automatically filtered out using parking detection algorithms \[38\].
//! We leave adding this automated filtering component to future work."
//! This module implements that component, following the structural cues
//! of Vissers et al. (NDSS'15): parking pages are script-light, carry no
//! interactive application content, show placeholder titles and the same
//! skeleton across unrelated domains.
//!
//! The detector re-visits a cluster's representative landing and scores
//! structural features — it never consults the simulator's ground truth.

use seacma_browser::{BrowserConfig, BrowserSession};
use seacma_crawler::LandingRecord;
use seacma_simweb::{ElementKind, Page, Vantage, World};
use seacma_vision::cluster::ScreenshotCluster;

use crate::label::{BenignKind, ClusterLabel};
use crate::pipeline::DiscoveryOutput;

/// Structural features extracted from a landing page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParkingFeatures {
    /// Page includes no scripts at all (live sites — publishers, ads,
    /// attacks — always load something).
    pub no_scripts: bool,
    /// Page has no interactive elements (buttons, iframes).
    pub no_interactive: bool,
    /// Title matches the placeholder vocabulary of parking providers.
    pub placeholder_title: bool,
    /// The page arms no listeners of any kind (no ad chain, no download,
    /// no permission prompt).
    pub inert: bool,
}

impl ParkingFeatures {
    /// Extracts features from a page.
    pub fn of(page: &Page) -> ParkingFeatures {
        let interactive = page
            .elements
            .iter()
            .any(|e| matches!(e.kind, ElementKind::Button | ElementKind::Iframe));
        let title = page.title.to_ascii_lowercase();
        ParkingFeatures {
            no_scripts: page.scripts.is_empty(),
            no_interactive: !interactive,
            placeholder_title: ["parked", "for sale", "expired", "coming soon"]
                .iter()
                .any(|kw| title.contains(kw)),
            inert: page.ad_click_chain.is_empty()
                && page.auto_download.is_none()
                && !page.notification_prompt,
        }
    }

    /// Score in `[0, 4]`; ≥ 3 classifies as parked.
    pub fn score(&self) -> u32 {
        u32::from(self.no_scripts)
            + u32::from(self.no_interactive)
            + u32::from(self.placeholder_title)
            + u32::from(self.inert)
    }

    /// Final verdict.
    pub fn is_parked(&self) -> bool {
        self.score() >= 3
    }
}

/// Runs the parking detector on a cluster by probing its representative
/// and two more members (robustness against one odd member).
pub fn cluster_is_parked(
    world: &World,
    cluster: &ScreenshotCluster,
    landings: &[&LandingRecord],
) -> bool {
    let mut probes = vec![cluster.representative];
    probes.extend(cluster.members.iter().copied().take(2));
    probes.dedup();
    let mut votes = 0usize;
    let mut checked = 0usize;
    for &m in &probes {
        let l = landings[m];
        let cfg = BrowserConfig::instrumented(l.ua, Vantage::Residential);
        let mut session = BrowserSession::new(world, cfg, l.t);
        if let Ok(loaded) = session.navigate(&l.landing_url) {
            checked += 1;
            if ParkingFeatures::of(&loaded.page).is_parked() {
                votes += 1;
            }
        }
    }
    // Unreachable pages ("inaccessible domains" in the paper) also count
    // as filterable.
    checked == 0 || votes * 2 > checked
}

/// Applies the detector to every campaign cluster, returning a parallel
/// `is_parked` vector.
pub fn detect_parked_clusters(
    world: &World,
    clusters: &[ScreenshotCluster],
    landings: &[&LandingRecord],
) -> Vec<bool> {
    clusters.iter().map(|c| cluster_is_parked(world, c, landings)).collect()
}

/// The filter's confusion matrix against the ground-truth cluster labels.
/// Filtering a non-parked benign confounder is harmless; filtering an SE
/// campaign is the one real failure mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParkingConfusion {
    /// Parked clusters the filter removed.
    pub parked_filtered: usize,
    /// Parked clusters it kept.
    pub parked_missed: usize,
    /// Stock-image / shortener / spurious clusters it also removed.
    pub other_benign_filtered: usize,
    /// SE campaigns it wrongly removed.
    pub campaigns_filtered: usize,
    /// Everything else: kept for manual review.
    pub kept: usize,
}

impl ParkingConfusion {
    /// Runs [`detect_parked_clusters`] over a discovery's θc-passing
    /// clusters and tallies the verdicts against their labels.
    pub fn over(world: &World, discovery: &DiscoveryOutput) -> ParkingConfusion {
        let landings: Vec<_> = discovery.landings().collect();
        let parked = detect_parked_clusters(world, &discovery.clusters.campaigns, &landings);
        let mut c = ParkingConfusion::default();
        for (label, parked) in discovery.labels.iter().zip(parked) {
            match (label, parked) {
                (ClusterLabel::Benign(BenignKind::Parked), true) => c.parked_filtered += 1,
                (ClusterLabel::Benign(BenignKind::Parked), false) => c.parked_missed += 1,
                (ClusterLabel::Campaign(_), true) => c.campaigns_filtered += 1,
                (ClusterLabel::Benign(_), true) => c.other_benign_filtered += 1,
                (_, false) => c.kept += 1,
            }
        }
        c
    }

    /// Clusters evaluated.
    pub fn evaluated(&self) -> usize {
        self.parked_filtered
            + self.parked_missed
            + self.other_benign_filtered
            + self.campaigns_filtered
            + self.kept
    }

    /// Share of parked clusters the filter removed (1.0 when there are none).
    pub fn parked_recall(&self) -> f64 {
        match self.parked_filtered + self.parked_missed {
            0 => 1.0,
            parked => self.parked_filtered as f64 / parked as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_simweb::visual::VisualTemplate;
    use seacma_simweb::{Page, Url};

    #[test]
    fn placeholder_page_scores_parked() {
        let page = Page::bare(
            Url::http("chenehubio464.top", "/"),
            "domain parked",
            VisualTemplate::Parked { provider: 1 },
        );
        let f = ParkingFeatures::of(&page);
        assert!(f.no_scripts && f.placeholder_title && f.inert);
        assert!(f.is_parked());
    }

    #[test]
    fn attack_page_scores_live() {
        let mut page = Page::bare(
            Url::http("evil.club", "/x/idx.php"),
            "Technical Support",
            VisualTemplate::TechSupport { skin: 1 },
        );
        page.elements.push(seacma_simweb::Element {
            kind: ElementKind::Button,
            width: 400,
            height: 120,
            action: seacma_simweb::ClickAction::None,
        });
        let f = ParkingFeatures::of(&page);
        assert!(!f.is_parked(), "attack pages must not be filtered: {f:?}");
    }

    #[test]
    fn publisher_page_scores_live() {
        let mut page = Page::bare(
            Url::http("streamhub.tv", "/"),
            "streamhub.tv",
            VisualTemplate::PublisherHome { style: 5 },
        );
        page.scripts.push(seacma_simweb::page::Script {
            src: Url::http("cdn.net", "/tag.js"),
            source: "x".into(),
        });
        page.ad_click_chain.push(seacma_simweb::ClickAction::None);
        assert!(!ParkingFeatures::of(&page).is_parked());
    }
}
