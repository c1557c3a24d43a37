//! Online-detector exactness: every verdict the served `Detector` (and
//! the daemon's query path on top of it) returns must be
//! **byte-identical** — in canonical JSON form — to seacma-detect's naive
//! linear-scan oracle over the same snapshot columns, across random
//! insertion orders and mid-epoch snapshot/resume. These properties are
//! what let the benchmark time the indexed path and publish the numbers
//! as the detector's numbers.

use seacma_daemon::Daemon;
use seacma_detect::oracle::linear_verdict;
use seacma_detect::{DetectorConfig, PageObservation, PageSignals};
use seacma_tracker::TrackerConfig;
use seacma_util::prop::Rng;
use seacma_util::{forall, json};
use seacma_vision::cluster::ScreenshotPoint;
use seacma_vision::dhash::Dhash;

/// A random campaign-shaped batch: `n_campaigns` visual templates, each a
/// tight cloud of near-duplicate hashes over a handful of rotating
/// domains, plus background noise points far from everything.
fn campaign_batch(rng: &mut Rng, n_campaigns: usize, noise: usize) -> Vec<ScreenshotPoint> {
    let mut points = Vec::new();
    for c in 0..n_campaigns {
        let base = Dhash(rng.u128());
        let members = rng.range(8, 20);
        for m in 0..members {
            let mut h = base.0;
            for _ in 0..rng.below(3) {
                h ^= 1u128 << rng.below(128);
            }
            points.push(ScreenshotPoint::new(Dhash(h), format!("c{c}-{}.club", m % 4)));
        }
    }
    for i in 0..noise {
        points.push(ScreenshotPoint::new(Dhash(rng.u128()), format!("bg{i}.example")));
    }
    points
}

/// A random page-load observation: a probe hash near an indexed point,
/// near-ish (escalation band), or uniformly random, with random cheap
/// structural signals — exercising all four verdict kinds.
fn random_obs(rng: &mut Rng, hashes: &[Dhash]) -> PageObservation {
    let mut h = if hashes.is_empty() || rng.bool(0.3) {
        rng.u128()
    } else {
        hashes[rng.range(0, hashes.len())].0
    };
    for _ in 0..rng.below(20) {
        h ^= 1u128 << rng.below(128);
    }
    let mut signals = PageSignals::default();
    signals.redirect_hops = rng.below(6) as u32;
    signals.third_party_e2lds = rng.below(6) as u32;
    signals.scam_phone = rng.bool(0.3);
    signals.survey_gateway = rng.bool(0.3);
    signals.locking = rng.bool(0.2);
    signals.notification_prompt = rng.bool(0.4);
    signals.auto_download = rng.bool(0.2);
    PageObservation { dhash: Dhash(h), signals }
}

#[test]
fn detector_matches_linear_oracle_at_any_worker_count_and_order() {
    forall!(5, |rng| {
        let (nc, noise) = (rng.range(2, 5), rng.range(5, 30));
        let mut points = campaign_batch(rng, nc, noise);
        // Random insertion order: shuffle by repeated random swaps.
        for _ in 0..points.len() * 2 {
            let (a, b) = (rng.range(0, points.len()), rng.range(0, points.len()));
            points.swap(a, b);
        }

        let mut daemon = Daemon::new(TrackerConfig::default());
        daemon.ingest_all(points.clone());
        daemon.close_epoch();
        let snap = daemon.handle().snapshot();
        let det = snap.detector();
        let (hashes, assignments) = (det.hashes().to_vec(), det.assignments().to_vec());

        let mut scratch = Vec::new();
        for _ in 0..40 {
            let obs = random_obs(rng, &hashes);
            let served = json::to_string(&snap.detect_with(&obs, &mut scratch));
            let oracle =
                json::to_string(&linear_verdict(&hashes, &assignments, det.config(), &obs));
            assert_eq!(served, oracle, "served verdict diverged from the linear oracle");
        }
    });
}

#[test]
fn resumed_daemon_serves_identical_verdicts_mid_epoch() {
    forall!(5, |rng| {
        let epochs = rng.range(1, 4);
        let mut daemon = Daemon::new(TrackerConfig::default());
        for _ in 0..epochs {
            let (nc, noise) = (rng.range(1, 4), rng.range(3, 15));
            daemon.ingest_all(campaign_batch(rng, nc, noise));
            daemon.close_epoch();
        }
        // Mid-epoch: ingested but unclosed points must not change any
        // verdict, and must survive snapshot/resume byte-identically.
        daemon.ingest_all(campaign_batch(rng, 1, 5));

        let resumed = Daemon::from_json(&daemon.to_json()).expect("snapshot parses");
        let (live, back) = (daemon.handle(), resumed.handle());
        let snap = live.snapshot();
        let det = snap.detector();
        let hashes = det.hashes().to_vec();
        let assignments = det.assignments().to_vec();

        for _ in 0..40 {
            let obs = random_obs(rng, &hashes);
            let served = json::to_string(&live.detect(&obs));
            assert_eq!(
                served,
                json::to_string(&back.detect(&obs)),
                "resumed daemon verdict diverged"
            );
            assert_eq!(
                served,
                json::to_string(&linear_verdict(&hashes, &assignments, det.config(), &obs)),
                "served verdict diverged from the linear oracle"
            );
        }
    });
}

#[test]
fn default_config_radii_nest() {
    let c = DetectorConfig::default();
    assert!(c.base_radius() < c.escalated_radius());
    assert!(c.escalated_radius() <= 128);
}
