//! Ablation over the clustering design choices DESIGN.md calls out —
//! DBSCAN `eps`, the θc domain filter, 64- vs 128-bit dhash. Each setting
//! re-clusters a discovery's landing screenshots and is scored against
//! ground truth.

use seacma_util::sym::Sym;

use seacma_browser::{BrowserConfig, QuietBrowser};
use seacma_simweb::{ClientProfile, UaProfile, Vantage, World};
use seacma_vision::bitmap::Bitmap;
use seacma_vision::cluster::{cluster_sym_columns_parallel, ClusterParams};
use seacma_vision::dhash::{dhash_grid, Dhash};

use crate::pipeline::DiscoveryOutput;

/// One ablation setting and its scores.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The knob swept: `eps`, `θc` or `hash width`.
    pub sweep: String,
    /// Its value; the other knobs stay at [`ClusterParams::default`].
    pub setting: String,
    /// θc-passing clusters found.
    pub clusters: usize,
    /// Share of clustered landings that belong to their cluster's majority
    /// class (attack / not attack).
    pub purity: f64,
    /// Share of true attack landings inside SE-majority clusters.
    pub se_recall: f64,
}

/// 64-bit dhash (8×8 gradients over a 9×8 grid) for the hash-width
/// ablation, in the low half of the word.
pub fn dhash64(image: &Bitmap) -> Dhash {
    dhash_grid(image, 8, 8)
}

/// Runs the three sweeps over a discovery's landings. Empty when the crawl
/// captured none.
pub fn clustering_ablation(world: &World, discovery: &DiscoveryOutput) -> Vec<AblationRow> {
    let landings: Vec<_> = discovery.landings().collect();
    let arena = discovery.arena.read();
    let e2lds: Vec<Sym> = landings.iter().map(|l| l.landing_e2ld).collect();
    let truth: Vec<bool> = landings.iter().map(|l| l.truth_is_attack).collect();
    let truth_total = truth.iter().filter(|&&t| t).count().max(1);
    let evaluate = |sweep: &str, setting: String, dhashes: &[Dhash], params: ClusterParams| {
        let result = cluster_sym_columns_parallel(dhashes, &e2lds, &arena, params, 1);
        let (mut captured, mut pure, mut members) = (0, 0, 0);
        for c in &result.campaigns {
            let attacks = c.members.iter().filter(|&&m| truth[m]).count();
            members += c.len();
            pure += attacks.max(c.len() - attacks);
            if attacks * 2 > c.len() {
                captured += attacks;
            }
        }
        AblationRow {
            sweep: sweep.to_string(),
            setting,
            clusters: result.campaigns.len(),
            purity: if members == 0 { 1.0 } else { pure as f64 / members as f64 },
            se_recall: captured as f64 / truth_total as f64,
        }
    };

    let mut rows = Vec::new();
    if landings.is_empty() {
        return rows;
    }
    let wide: Vec<Dhash> = landings.iter().map(|l| l.dhash).collect();
    for eps in [0.02, 0.05, 0.1, 0.2, 0.3] {
        let params = ClusterParams { eps, ..Default::default() };
        rows.push(evaluate("eps", eps.to_string(), &wide, params));
    }
    for theta_c in [1usize, 3, 5, 8, 15] {
        let params = ClusterParams { theta_c, ..Default::default() };
        rows.push(evaluate("θc", theta_c.to_string(), &wide, params));
    }
    // The crawl kept hashes, not pixels, so the 64-bit variant re-renders
    // each landing's screenshot: same template, same instance noise.
    let browser = QuietBrowser::new(
        world,
        BrowserConfig::instrumented(UaProfile::ChromeMac, Vantage::Residential),
    );
    let narrow: Vec<Dhash> = landings
        .iter()
        .map(|l| {
            let client = ClientProfile::stealthy(l.ua, l.vantage);
            world.fetch(&l.landing_url, &client, l.t).page().map_or(Dhash(0), |page| {
                dhash64(&browser.render_screenshot(&l.landing_url, page, l.t))
            })
        })
        .collect();
    rows.push(evaluate("hash width", "128-bit".to_string(), &wide, ClusterParams::default()));
    // Same fractional radius over a 128-bit word whose top half is zero ⇒
    // halve eps.
    let halved = ClusterParams { eps: ClusterParams::default().eps / 2.0, ..Default::default() };
    rows.push(evaluate("hash width", "64-bit".to_string(), &narrow, halved));
    rows
}
