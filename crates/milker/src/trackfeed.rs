//! Feed milking discoveries back into the campaign tracker.
//!
//! The tracker clusters `(dhash, e2LD)` screenshot points, and a
//! [`DomainDiscovery`](crate::DomainDiscovery) carries both: the domain it
//! found and the hash of the landing screenshot the scheduler matched
//! against the source's reference. That keeps the tracker's visual space
//! identical to the one the discovery clusters live in — crawl landings
//! and milked landings cluster together exactly when their screenshots
//! match — and makes the feed a plain map over the outcome.

use seacma_simweb::{SimTime, World};
use seacma_util::sym::{SharedArena, Sym};
use seacma_vision::dhash::Dhash;

use crate::scheduler::MilkingOutcome;
use crate::sources::MilkingSource;

/// One `(first_seen, (dhash, e2LD))` point per discovery, in the
/// outcome's discovery order (merge-sweep order, so `first_seen` is
/// nondecreasing — ready to be bucketed into tracker epochs).
///
/// The dhash is the one the milker compared against the source's
/// reference at the discovery tick; the e2LD is the discovered domain,
/// interned into `arena` (the world-level arena the tracker shares) so the
/// pairs are ready for `ingest_sym`. Interning happens here, at a
/// sequential point in discovery order, so symbol assignment stays
/// deterministic.
///
/// `_world`/`_sources` are unused — a discovery carries its hash — but `benchmark/` calls this signature.
pub fn discovery_sym_points(
    _world: &World,
    _sources: &[MilkingSource],
    outcome: &MilkingOutcome,
    arena: &SharedArena,
) -> Vec<(SimTime, (Dhash, Sym))> {
    outcome
        .discoveries
        .iter()
        .map(|d| (d.first_seen, (d.dhash, arena.intern(&d.domain))))
        .collect()
}

/// Buckets a discovery feed into one batch per virtual day —
/// the epoch-step hook the tracking phase and the resident daemon's
/// scheduler drive. Batch `d` holds every discovery with
/// `start + d·DAY <= first_seen < start + (d+1)·DAY`; quiet days yield
/// empty batches (they must still close an epoch, or dormancy and death
/// would never fire), and `days` is clamped to at least one.
///
/// The feed is nondecreasing in `first_seen` (merge-sweep order), so each
/// batch preserves the feed's ingestion order and concatenating all
/// batches reproduces the feed exactly.
///
/// Generic over the point payload: [`discovery_sym_points`] feeds bucket
/// into `(Dhash, Sym)` column batches, string-keyed reference feeds into
/// `ScreenshotPoint` batches.
pub fn epoch_batches<T: Clone>(
    feed: &[(SimTime, T)],
    start: SimTime,
    days: u64,
) -> Vec<Vec<T>> {
    let days = days.max(1);
    let mut out = Vec::with_capacity(days as usize);
    let mut next = 0usize;
    for day in 0..days {
        let end = start + seacma_simweb::SimDuration::from_minutes(
            seacma_simweb::DAY.minutes() * (day + 1),
        );
        let mut batch = Vec::new();
        while next < feed.len() && feed[next].0 < end {
            batch.push(feed[next].1.clone());
            next += 1;
        }
        out.push(batch);
    }
    debug_assert_eq!(next, feed.len(), "every discovery falls inside the window");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Milker, MilkingConfig};
    use crate::sources::MATCH_THRESHOLD;
    use seacma_vision::cluster::ScreenshotPoint;
    use seacma_vision::dhash::hamming;

    #[test]
    fn rederived_points_match_references_and_domains() {
        use seacma_blacklist::{GsbService, VirusTotal};
        use seacma_simweb::{SeCategory, SimDuration, UaProfile, WorldConfig};
        use seacma_vision::dhash::dhash128;

        let world = World::generate(WorldConfig {
            seed: 51,
            n_publishers: 100,
            n_hidden_only_publishers: 0,
            n_advertisers: 15,
            campaign_scale: 0.4,
            error_rate: 0.0,
            ..Default::default()
        });
        let t0 = SimTime::EPOCH;
        // Sources exactly as the pipeline builds them after clustering.
        let sources: Vec<MilkingSource> = world
            .campaigns()
            .iter()
            .filter(|c| c.tds_domain.is_some())
            .map(|c| MilkingSource {
                url: c.tds_url(0).unwrap(),
                ua: if c.category == SeCategory::LotteryGift {
                    UaProfile::ChromeAndroid
                } else {
                    UaProfile::ChromeMac
                },
                cluster: c.id.0 as usize,
                reference: dhash128(&c.template().render(1)),
            })
            .collect();
        assert!(!sources.is_empty(), "seed world must yield sources");
        let config =
            MilkingConfig { duration: SimDuration::from_days(2), ..Default::default() };
        let mut gsb = GsbService::new(&world);
        let mut vt = VirusTotal::new(1);
        let outcome =
            Milker::new(&world, config).run_parallel(&sources, &mut gsb, &mut vt, t0, 1);
        assert!(!outcome.discoveries.is_empty(), "seed world must yield discoveries");

        // The string reference feed, one point per discovery.
        let points: Vec<(SimTime, ScreenshotPoint)> = outcome
            .discoveries
            .iter()
            .map(|d| (d.first_seen, ScreenshotPoint::new(d.dhash, d.domain.clone())))
            .collect();
        assert_eq!(points.len(), outcome.discoveries.len());
        // The sym feed is the same feed, column-form: same times, same
        // dhashes, and every symbol resolves to the string point's e2LD.
        let arena = SharedArena::new();
        let sym_points = discovery_sym_points(&world, &sources, &outcome, &arena);
        assert_eq!(sym_points.len(), points.len());
        for ((t, p), (ts, (dhash, sym))) in points.iter().zip(&sym_points) {
            assert_eq!(t, ts);
            assert_eq!(p.dhash, *dhash);
            assert_eq!(p.e2ld, arena.resolve_owned(*sym));
        }
        for ((t, p), d) in points.iter().zip(&outcome.discoveries) {
            assert_eq!(*t, d.first_seen);
            assert_eq!(p.e2ld, d.domain);
            // The scheduler only records a discovery when the rendered
            // screenshot matched the reference — the carried hash must
            // show that match.
            let reference = sources[d.source_idx].reference;
            assert!(hamming(p.dhash, reference) <= MATCH_THRESHOLD);
        }
        // Merge-sweep order ⇒ nondecreasing first_seen.
        assert!(points.windows(2).all(|w| w[0].0 <= w[1].0));

        // The epoch-step hook: day buckets partition the feed in order,
        // quiet days close as empty batches.
        let days = 2u64;
        let batches = epoch_batches(&points, t0, days);
        assert_eq!(batches.len(), days as usize);
        let rejoined: Vec<ScreenshotPoint> = batches.iter().flatten().cloned().collect();
        let flat: Vec<ScreenshotPoint> = points.iter().map(|(_, p)| p.clone()).collect();
        assert_eq!(rejoined, flat, "bucketing must preserve the feed order");
        for (d, batch) in batches.iter().enumerate() {
            let end = t0 + SimDuration::from_minutes(seacma_simweb::DAY.minutes() * (d as u64 + 1));
            let mut idx = 0;
            for (t, p) in points.iter().filter(|(t, _)| {
                *t < end
                    && (d == 0
                        || *t >= t0
                            + SimDuration::from_minutes(seacma_simweb::DAY.minutes() * d as u64))
            }) {
                assert_eq!(&batch[idx], p, "misplaced discovery at {t:?}");
                idx += 1;
            }
            assert_eq!(idx, batch.len(), "day {d} holds exactly its window");
        }
    }
}
