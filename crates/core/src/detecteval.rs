//! Evaluation observations for the online detector.
//!
//! Bridges the pipeline's crawl records to `seacma-detect`: every landing
//! the crawl captured becomes one [`EvalObservation`] — the page-load
//! observation the detector would have been handed online (fused dhash +
//! cheap structural signals) plus the world's ground truth (attack or
//! benign, and which campaign). `seacma eval` scores a served
//! [`Detector`](seacma_detect::Detector) against these to report
//! precision/recall on campaigns the index has seen **and** on campaigns
//! held out of the feed entirely — the generalization claim the
//! feature-threshold fallback stage exists for.
//!
//! Observations are emitted in the flattened landing order, the same
//! order [`Pipeline::crawl_epoch_batches`](crate::Pipeline::crawl_epoch_batches)
//! chunks into epochs — element `i` here describes point `i` of the
//! tracker feed, which is what lets the bench split the feed by ground-truth
//! campaign without re-deriving the mapping.

use seacma_detect::{PageObservation, PageSignals};
use seacma_graph::chain_third_party_e2lds;
use seacma_simweb::{ClientProfile, World};

use seacma_crawler::LandingRecord;

use crate::pipeline::DiscoveryOutput;

/// One landing as the detector would observe it online, plus the world's
/// ground truth about it.
///
/// ```
/// use seacma_core::detecteval::EvalObservation;
/// use seacma_detect::{PageObservation, PageSignals};
/// use seacma_vision::dhash::Dhash;
///
/// let e = EvalObservation {
///     obs: PageObservation { dhash: Dhash(7), signals: PageSignals::default() },
///     truth_attack: true,
///     truth_campaign: Some(3),
/// };
/// assert_eq!(e.obs.dhash, Dhash(7));
/// assert_eq!(e.truth_campaign, Some(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalObservation {
    /// The page-load observation: fused dhash + structural signals.
    pub obs: PageObservation,
    /// Ground truth: the landing rendered an SE attack template.
    pub truth_attack: bool,
    /// Ground truth: the world campaign whose attack domain served the
    /// landing, when one did.
    pub truth_campaign: Option<u32>,
}

/// The structural signals of one crawled landing: chain counts from the
/// record's redirect hops and involved-URL set, document tells from
/// re-fetching the landing URL at the recorded click time with the
/// recorded client profile (deterministic — the simulated web serves the
/// same document for the same `(url, client, t)`).
pub fn landing_signals(world: &World, l: &LandingRecord) -> PageSignals {
    let landing_e2ld = l.landing_url.e2ld();
    let third = chain_third_party_e2lds(&l.involved_urls, &landing_e2ld);
    let client = ClientProfile::stealthy(l.ua, l.vantage);
    match world.fetch(&l.landing_url, &client, l.t).page() {
        Some(page) => PageSignals::from_counts(l.hops.len() as u32, third, page),
        // Transient blank load on the re-fetch: chain counts still stand,
        // document tells read as absent.
        None => PageSignals {
            redirect_hops: l.hops.len() as u32,
            third_party_e2lds: third,
            ..PageSignals::default()
        },
    }
}

/// Every crawled landing as an [`EvalObservation`], in flattened landing
/// order (parallel to the tracker feed's point order).
pub fn eval_observations(world: &World, discovery: &DiscoveryOutput) -> Vec<EvalObservation> {
    discovery
        .landings()
        .map(|l| EvalObservation {
            obs: PageObservation { dhash: l.dhash, signals: landing_signals(world, l) },
            truth_attack: l.truth_is_attack,
            truth_campaign: world
                .campaign_of_attack_domain(&l.landing_url.host, l.t)
                .map(|c| c.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};

    fn tiny_pipeline() -> Pipeline {
        let mut c = PipelineConfig::small(7);
        c.world.n_publishers = 120;
        c.world.n_hidden_only_publishers = 10;
        c.world.n_advertisers = 15;
        Pipeline::new(c)
    }

    #[test]
    fn observations_parallel_the_landing_order() {
        let pipeline = tiny_pipeline();
        let discovery = pipeline.discover();
        let evals = eval_observations(pipeline.world(), &discovery);
        assert_eq!(evals.len(), discovery.crawl.landing_count());
        for (e, l) in evals.iter().zip(discovery.landings()) {
            assert_eq!(e.obs.dhash, l.dhash);
            assert_eq!(e.truth_attack, l.truth_is_attack);
        }
    }

    #[test]
    fn both_truth_classes_present_and_deterministic() {
        let pipeline = tiny_pipeline();
        let discovery = pipeline.discover();
        let evals = eval_observations(pipeline.world(), &discovery);
        assert!(evals.iter().any(|e| e.truth_attack), "no attack landings in the tiny world");
        assert!(evals.iter().any(|e| !e.truth_attack), "no benign landings in the tiny world");
        assert!(evals.iter().any(|e| e.truth_campaign.is_some()));
        assert_eq!(evals, eval_observations(pipeline.world(), &discovery));
    }
}
