//! Property suites for the resident daemon (ISSUE: the forall! gates).
//!
//! 1. Any query served mid-epoch against published snapshot `N` answers
//!    byte-identically to the offline **batch** pipeline's snapshot at
//!    epoch `N` (the two-implementation oracle in `seacma_daemon::offline`).
//! 2. Snapshot/resume under live concurrent query load stays
//!    byte-identical: the resumed daemon re-serializes to the same bytes
//!    and serves the same answers, and both runs stay identical when fed
//!    the same remaining epochs.
//! 3. The detector index an epoch close **carries forward** from the
//!    previously published snapshot is indistinguishable from one built
//!    from scratch over the tracker, and from the linear-scan oracle, at
//!    every boundary of every epoch shape (empty, all-duplicate, one point
//!    after a bulk epoch, resumed mid-epoch).
//! 4. `dhash` queries are answered from the detector's escalated-radius
//!    index cut at the clustering radius: with points planted exactly at,
//!    one past, and at the far edge of the wider ball, the answer equals a
//!    linear scan of the snapshot's columns at the base radius.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use seacma_daemon::offline::replay_batches;
use seacma_daemon::{CampaignStatus, Daemon, DhashMatch, ReputationSnapshot};
use seacma_detect::oracle::linear_verdict;
use seacma_detect::{DetectorConfig, PageObservation, PageSignals};
use seacma_tracker::{LedgerConfig, LifeState, TrackerConfig};
use seacma_util::prop::Rng;
use seacma_util::{forall, json};
use seacma_vision::cluster::ScreenshotPoint;
use seacma_vision::dhash::Dhash;

/// A campaign-shaped corpus: most points are near-duplicates of a few
/// templates on rotating domains, the rest uniform noise.
fn synth(rng: &mut Rng, n: usize) -> Vec<ScreenshotPoint> {
    let centers: Vec<u128> = (0..rng.range(1, 4)).map(|_| rng.u128()).collect();
    (0..n)
        .map(|i| {
            if rng.bool(0.8) {
                let c = rng.below(centers.len() as u64) as usize;
                let mut h = centers[c];
                for _ in 0..rng.below(4) {
                    h ^= 1u128 << rng.below(128);
                }
                ScreenshotPoint::new(Dhash(h), format!("c{c}-{}.club", rng.below(8)))
            } else {
                ScreenshotPoint::new(Dhash(rng.u128()), format!("noise{i}.info"))
            }
        })
        .collect()
}

/// Contiguous random split of `corpus` into `epochs` batches (some may be
/// empty — quiet epochs must close too).
fn split_epochs(rng: &mut Rng, corpus: &[ScreenshotPoint], epochs: usize) -> Vec<Vec<ScreenshotPoint>> {
    let mut cuts: Vec<usize> = (0..epochs - 1).map(|_| rng.range(0, corpus.len() + 1)).collect();
    cuts.sort_unstable();
    let mut out = Vec::with_capacity(epochs);
    let mut prev = 0;
    for c in cuts {
        out.push(corpus[prev..c].to_vec());
        prev = c;
    }
    out.push(corpus[prev..].to_vec());
    out
}

/// A probe set exercising hits, misses and boundaries of a corpus.
fn probes(rng: &mut Rng, corpus: &[ScreenshotPoint]) -> (Vec<String>, Vec<Dhash>) {
    let mut urls: Vec<String> = corpus.iter().map(|p| format!("http://www.{}/lp", p.e2ld)).collect();
    urls.push("http://never-seen.example/x".into());
    urls.push("bare-host.club".into());
    let mut hashes: Vec<Dhash> = corpus.iter().map(|p| p.dhash).collect();
    for i in 0..corpus.len().min(16) {
        hashes.push(Dhash(corpus[i].dhash.0 ^ (1u128 << rng.below(128))));
    }
    hashes.push(Dhash(rng.u128()));
    (urls, hashes)
}

/// Serializes every probe's answer from one snapshot into one string, so
/// snapshot equivalence reduces to string equality.
fn answer_sheet(snap: &ReputationSnapshot, urls: &[String], hashes: &[Dhash]) -> String {
    let mut out = String::new();
    out.push_str(&format!("epoch={}\n", snap.epoch()));
    for u in urls {
        out.push_str(&json::to_string(&snap.lookup_url(u)));
        out.push('\n');
    }
    for &h in hashes {
        out.push_str(&json::to_string(&snap.nearest_campaign(h)));
        out.push('\n');
    }
    for id in 0..=(snap.statuses().len() as u32) {
        out.push_str(&json::to_string(&snap.campaign(id).cloned()));
        out.push('\n');
    }
    out
}

/// The empty boot snapshot — the oracle for queries before epoch 1.
fn empty_oracle(config: TrackerConfig) -> ReputationSnapshot {
    ReputationSnapshot::from_parts(0, Vec::new(), Vec::new(), Vec::new(), config.params.eps)
}

#[test]
fn mid_epoch_queries_match_offline_batch_answers() {
    forall!(10, |rng| {
        let config = TrackerConfig {
            ledger: LedgerConfig {
                quiet_window: rng.range(1, 3) as u32,
                death_window: rng.range(3, 5) as u32,
            },
            ..Default::default()
        };
        let n = rng.range(40, 120);
        let corpus = synth(rng, n);
        let epochs = rng.range(2, 5);
        let batches = split_epochs(rng, &corpus, epochs);
        let (urls, hashes) = probes(rng, &corpus);

        let oracle = replay_batches(config, &batches);
        let boot = empty_oracle(config);
        let oracle_at =
            |e: usize| if e == 0 { &boot } else { &oracle[e - 1] };

        let mut daemon = Daemon::new(config);
        let handle = daemon.handle();
        for (e, batch) in batches.iter().enumerate() {
            // Mid-epoch: ingest a strict prefix, then query. The served
            // snapshot must still answer as of the last closed boundary.
            let cut = rng.range(0, batch.len() + 1);
            daemon.ingest_all(batch[..cut].iter().cloned());
            let served = handle.snapshot();
            assert_eq!(served.epoch() as usize, e);
            assert_eq!(
                answer_sheet(&served, &urls, &hashes),
                answer_sheet(oracle_at(e), &urls, &hashes),
                "mid-epoch answers diverged from the batch oracle at epoch {e}"
            );

            daemon.ingest_all(batch[cut..].iter().cloned());
            daemon.close_epoch();
            assert_eq!(
                answer_sheet(&handle.snapshot(), &urls, &hashes),
                answer_sheet(oracle_at(e + 1), &urls, &hashes),
                "boundary answers diverged from the batch oracle at epoch {}",
                e + 1
            );
        }
    });
}

#[test]
fn concurrent_readers_always_see_a_published_oracle_state() {
    let mut rng = Rng::new(0x5EAC_DAE0);
    let config = TrackerConfig::default();
    let corpus = synth(&mut rng, 400);
    let batches = split_epochs(&mut rng, &corpus, 6);
    let (urls, hashes) = probes(&mut rng, &corpus);

    // Sheet per epoch (0 = boot), precomputed from the batch oracle.
    let mut sheets: Vec<String> =
        vec![answer_sheet(&empty_oracle(config), &urls, &hashes)];
    for snap in replay_batches(config, &batches) {
        sheets.push(answer_sheet(&snap, &urls, &hashes));
    }
    let sheets = Arc::new(sheets);

    let mut daemon = Daemon::new(config);
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for reader in 0..4 {
            let handle = daemon.handle();
            let urls = &urls;
            let hashes = &hashes;
            let sheets = Arc::clone(&sheets);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut last_epoch = 0u32;
                let mut rounds = 0u32;
                while !done.load(Ordering::Relaxed) || rounds == 0 {
                    // Whatever snapshot a reader grabs mid-write, it must
                    // be a published boundary, answer exactly like the
                    // batch oracle at that epoch, and never run backwards.
                    let snap = handle.snapshot();
                    let e = snap.epoch();
                    assert!(e >= last_epoch, "reader {reader} saw the epoch go backwards");
                    last_epoch = e;
                    assert_eq!(
                        answer_sheet(&snap, urls, hashes),
                        sheets[e as usize],
                        "reader {reader} saw a non-oracle state at epoch {e}"
                    );
                    rounds += 1;
                }
            });
        }
        // The single writer: epochs close while the readers are spinning.
        for batch in &batches {
            daemon.ingest_all(batch.iter().cloned());
            daemon.close_epoch();
        }
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(daemon.epoch() as usize, batches.len());
}

#[test]
fn snapshot_resume_stays_byte_identical_under_live_queries() {
    forall!(6, |rng| {
        let config = TrackerConfig::default();
        let n = rng.range(40, 100);
        let corpus = synth(rng, n);
        let batches = split_epochs(rng, &corpus, 3);
        let (urls, hashes) = probes(rng, &corpus);

        let mut daemon = Daemon::new(config);
        // A reader hammering the handle for the whole scenario — snapshots
        // and resumes must not be perturbed by (or perturb) live loads.
        let live = daemon.handle();
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            {
                let live = live.clone();
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let snap = live.snapshot();
                        let _ = snap.lookup_url("http://c0-0.club/");
                        let _ = snap.nearest_campaign(Dhash(0));
                    }
                });
            }

            let mut resumed: Option<Daemon> = None;
            for (e, batch) in batches.iter().enumerate() {
                // Snapshot mid-epoch (open points included), resume, and
                // check byte identity plus answer identity right away.
                let cut = rng.range(0, batch.len() + 1);
                daemon.ingest_all(batch[..cut].iter().cloned());
                if let Some(r) = resumed.as_mut() {
                    r.ingest_all(batch[..cut].iter().cloned());
                }
                let frozen = daemon.to_json();
                let r = Daemon::from_json(&frozen).expect("snapshot parses");
                assert_eq!(r.to_json(), frozen, "resume must re-serialize identically");
                assert_eq!(
                    answer_sheet(&r.handle().snapshot(), &urls, &hashes),
                    answer_sheet(&live.snapshot(), &urls, &hashes),
                    "resumed daemon answers diverged at epoch {e}"
                );
                if resumed.is_none() {
                    resumed = Some(r);
                }

                daemon.ingest_all(batch[cut..].iter().cloned());
                daemon.close_epoch();
                if let Some(r) = resumed.as_mut() {
                    r.ingest_all(batch[cut..].iter().cloned());
                    r.close_epoch();
                }
            }
            // The earliest resumed daemon, fed the identical remainder,
            // ends byte-identical to the never-restarted one.
            let resumed = resumed.expect("at least one epoch ran");
            assert_eq!(resumed.to_json(), daemon.to_json());
            assert_eq!(
                answer_sheet(&resumed.handle().snapshot(), &urls, &hashes),
                answer_sheet(&live.snapshot(), &urls, &hashes),
            );
            done.store(true, Ordering::Relaxed);
        });
    });
}

/// Page-load observations around a corpus: exact hits, a few bits off,
/// the escalation band, far misses — with random structural signals, so
/// all four verdict kinds occur.
fn detect_pool(rng: &mut Rng, corpus: &[ScreenshotPoint], n: usize) -> Vec<PageObservation> {
    (0..n)
        .map(|_| {
            let mut h = if rng.bool(0.2) { rng.u128() } else { rng.pick(corpus).dhash.0 };
            for _ in 0..rng.below(20) {
                h ^= 1u128 << rng.below(128);
            }
            let signals = PageSignals {
                redirect_hops: rng.below(6) as u32,
                scam_phone: rng.bool(0.3),
                survey_gateway: rng.bool(0.3),
                locking: rng.bool(0.2),
                ..PageSignals::default()
            };
            PageObservation { dhash: Dhash(h), signals }
        })
        .collect()
}

/// The published snapshot against a from-scratch build over the live
/// tracker and against the linear oracle over the served columns.
fn assert_served_is_scratch_built(
    daemon: &Daemon,
    pool: &[PageObservation],
    urls: &[String],
    hashes: &[Dhash],
    at: &str,
) {
    let served = daemon.handle().snapshot();
    let scratch = ReputationSnapshot::build(daemon.tracker());
    let (det, want) = (served.detector(), scratch.detector());
    assert_eq!(det.hashes(), daemon.tracker().dhashes(), "hash column, {at}");
    assert_eq!(det.hashes(), want.hashes(), "hash column vs scratch, {at}");
    assert_eq!(det.assignments(), want.assignments(), "assignment column, {at}");
    assert_eq!(det.config(), want.config(), "detector config, {at}");
    for obs in pool {
        let verdict = served.detect(obs);
        assert_eq!(verdict, scratch.detect(obs), "verdict vs scratch build, {at}");
        assert_eq!(
            verdict,
            linear_verdict(det.hashes(), det.assignments(), det.config(), obs),
            "verdict vs linear oracle, {at}"
        );
    }
    assert_eq!(
        answer_sheet(&served, urls, hashes),
        answer_sheet(&scratch, urls, hashes),
        "url/dhash/campaign answers, {at}"
    );
}

#[test]
fn carried_forward_detector_equals_scratch_build_at_every_boundary() {
    forall!(12, |rng| {
        let config = TrackerConfig::default();
        let n = rng.range(60, 160);
        let corpus = synth(rng, n);
        let (urls, hashes) = probes(rng, &corpus);
        let pool = detect_pool(rng, &corpus, 60);

        // A bulk epoch, a 1-point epoch right after it, a random split of
        // the rest; then an empty epoch and an epoch holding only repeats
        // of epoch-0 points, each spliced in somewhere after the bulk.
        let bulk = n / 2;
        let mut batches = vec![corpus[..bulk].to_vec(), corpus[bulk..=bulk].to_vec()];
        let tail_epochs = rng.range(2, 5);
        batches.extend(split_epochs(rng, &corpus[bulk + 1..], tail_epochs));
        let at = rng.range(1, batches.len() + 1);
        batches.insert(at, Vec::new());
        let repeats: Vec<ScreenshotPoint> =
            (0..rng.range(1, 12)).map(|_| rng.pick(&corpus[..bulk]).clone()).collect();
        let at = rng.range(1, batches.len() + 1);
        batches.insert(at, repeats);
        let resume_at = rng.range(0, batches.len());

        let mut daemon = Daemon::new(config);
        assert_served_is_scratch_built(&daemon, &pool, &urls, &hashes, "boot");
        for (e, batch) in batches.iter().enumerate() {
            let unique_before = daemon.tracker().unique_len();
            if e == resume_at {
                // Restart mid-epoch: the resumed daemon's published
                // snapshot already indexes the open epoch's points, and the
                // next close carries *that* index forward.
                let cut = rng.range(0, batch.len() + 1);
                daemon.ingest_all(batch[..cut].iter().cloned());
                daemon = Daemon::from_json(&daemon.to_json()).expect("snapshot parses");
                let at = format!("resume in epoch {e}");
                assert_served_is_scratch_built(&daemon, &pool, &urls, &hashes, &at);
                daemon.ingest_all(batch[cut..].iter().cloned());
            } else {
                daemon.ingest_all(batch.iter().cloned());
            }
            let summary = daemon.close_epoch();
            assert_eq!(summary.ingested as usize, batch.len());
            if e > 0 && batch.iter().all(|p| corpus[..bulk].contains(p)) {
                let unique = daemon.tracker().unique_len();
                assert_eq!(unique, unique_before, "epoch {e} adds no unique point");
            }
            let at = format!("epoch {e} boundary");
            assert_served_is_scratch_built(&daemon, &pool, &urls, &hashes, &at);
        }
    });
}

/// `h` with exactly `d` distinct bits flipped.
fn at_distance(rng: &mut Rng, h: u128, d: u32) -> Dhash {
    let mut mask = 0u128;
    while mask.count_ones() < d {
        mask |= 1u128 << rng.below(128);
    }
    Dhash(h ^ mask)
}

#[test]
fn nearest_campaign_cuts_the_wider_probe_at_the_base_radius() {
    forall!(40, |rng| {
        let eps = *rng.pick(&[0.05, 0.1, 0.2]);
        let config = DetectorConfig::for_eps(eps);
        let (base, escalated) = (config.base_radius(), config.escalated_radius());
        // Ledger ids 0 and 2 are θc-qualified, 1 is tracked but not: the
        // detector's column drops it, `nearest_campaign`'s keeps it.
        let status = |id: u32| CampaignStatus {
            id,
            state: LifeState::Active,
            qualified: id != 1,
            members: 1,
            domains: vec![format!("c{id}.club")],
            birth_epoch: 0,
            last_growth_epoch: 0,
        };
        // Around one centre: points exactly at the base radius, one bit
        // either side of it, at the escalated radius and one past that; a
        // random share unassigned, the rest spread over the three ids,
        // noise between. Whether the nearest *assigned* point sits inside
        // the cut, in the band past it, or nowhere varies case to case.
        let centre = rng.u128();
        let (mut points, mut assignments) = (Vec::new(), Vec::new());
        for d in [base.saturating_sub(1), base, base + 1, escalated, escalated + 1] {
            for _ in 0..rng.range(0, 4) {
                let noise = rng.bool(0.25);
                let h = if noise { Dhash(rng.u128()) } else { at_distance(rng, centre, d) };
                points.push(ScreenshotPoint::new(h, "planted.club"));
                assignments.push(rng.bool(0.7).then(|| rng.below(3) as u32));
            }
        }
        let statuses = (0..3).map(status).collect();
        let snap = ReputationSnapshot::from_parts(1, points, assignments.clone(), statuses, eps);
        assert_eq!(snap.detector().config(), &config);
        assert_eq!(snap.resident_points(), assignments.len());

        let hashes = snap.detector().hashes();
        let mut probes = vec![Dhash(centre), at_distance(rng, centre, 1), Dhash(rng.u128())];
        probes.extend(hashes);
        for h in probes {
            let want = (0..hashes.len())
                .filter_map(|q| assignments[q].map(|id| ((h.0 ^ hashes[q].0).count_ones(), q, id)))
                .filter(|&(d, _, _)| d <= base)
                .min_by_key(|&(d, q, _)| (d, q))
                .map(|(distance, _, id)| {
                    let s = status(id);
                    DhashMatch { campaign: id, distance, state: s.state, qualified: s.qualified }
                });
            assert_eq!(snap.nearest_campaign(h), want, "eps {eps}, probe {h:?}");
        }
    });
}
