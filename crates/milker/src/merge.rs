//! Phase 2 of the parallel milker: the sequential merge sweep.
//!
//! Consumes the per-source timelines of [`crate::simulate`] in the exact
//! order the sequential scheduler would have produced them — time-major,
//! source-index-minor, which is one stable sort because each timeline is
//! already chronological and a source emits at most one event per tick —
//! and applies all cross-source state on one thread: the global
//! `seen_domains` / `seen_hashes` dedup, GSB discovery lookups (whose
//! first call per domain anchors the memoized fate, so ordering is
//! load-bearing), VirusTotal submissions, timelines and the intelligence
//! side channels. Because this sweep is deterministic in the event order
//! and the event order is independent of how phase 1 was scheduled, the
//! resulting [`MilkingOutcome`] is byte-identical at any worker count.

use std::collections::HashSet;

use seacma_blacklist::{GsbService, VirusTotal};
use seacma_simweb::{SimTime, Url};

use crate::downloads::MilkedFile;
use crate::scheduler::{DomainDiscovery, MilkingConfig, MilkingOutcome};
use crate::simulate::{CandidateEvent, SourceTimeline};
use crate::sources::MilkingSource;

/// Merges per-source timelines into the milking outcome.
pub(crate) fn merge_timelines(
    config: MilkingConfig,
    sources: &[MilkingSource],
    timelines: Vec<SourceTimeline>,
    gsb: &mut GsbService<'_>,
    vt: &mut VirusTotal,
    start: SimTime,
) -> MilkingOutcome {
    let end = start + config.duration;
    let mut out = MilkingOutcome::default();
    let mut events: Vec<CandidateEvent> = Vec::new();
    for tl in timelines {
        out.sessions += tl.sessions;
        events.extend(tl.events);
    }
    // The sequential scheduler's iteration order: outer loop over ticks,
    // inner loop over sources. `(t, source_idx)` is unique per event.
    events.sort_by_key(|e| (e.t, e.source_idx));

    let mut seen_domains: HashSet<String> = HashSet::new();
    let mut seen_hashes: HashSet<u128> = HashSet::new();
    // Membership sets backing the first-seen-ordered side-channel vectors.
    let mut phone_set: HashSet<String> = HashSet::new();
    let mut gateway_set: HashSet<Url> = HashSet::new();

    for ev in events {
        if !seen_domains.insert(ev.domain.clone()) {
            // Another source matched this domain at an earlier tick; the
            // sequential scheduler would have skipped this session at the
            // seen-domains check.
            continue;
        }
        let src = &sources[ev.source_idx];
        out.timelines.entry(ev.source_idx).or_default().push((ev.t, ev.domain.clone()));

        if let Some(phone) = ev.scam_phone {
            if phone_set.insert(phone.clone()) {
                out.scam_phones.push((phone, ev.t, src.cluster));
            }
        }
        if let Some(gw) = ev.survey_gateway {
            if gateway_set.insert(gw.clone()) {
                out.survey_gateways.push((gw, ev.t, src.cluster));
            }
        }
        if ev.notification_prompt {
            out.notification_grants.push((ev.landing_url.clone(), ev.t, src.cluster));
        }

        for payload in ev.downloads {
            if seen_hashes.insert(payload.sha) {
                let known = vt.lookup(&payload, ev.t).is_some();
                let initial = vt.submit(&payload, ev.t);
                out.files.push(MilkedFile {
                    payload,
                    page: ev.landing_url.clone(),
                    t: ev.t,
                    known_at_submit: known,
                    initial,
                    final_report: None,
                });
            }
        }

        // GSB measurement: the discovery-time lookup anchors the domain's
        // memoized fate at `ev.t`, exactly as the sequential path did.
        let listed_now = gsb.lookup(&ev.domain, ev.t).is_listed();
        let listed_at = poll_gsb_closed_form(gsb, config, &ev.domain, ev.t, end);
        out.discoveries.push(DomainDiscovery {
            domain: ev.domain,
            landing_url: ev.landing_url,
            dhash: ev.dhash,
            source_idx: ev.source_idx,
            cluster: src.cluster,
            first_seen: ev.t,
            gsb_listed_at_discovery: listed_now,
            gsb_listed_at: listed_at,
        });
    }

    // Months later: VT rescan of everything submitted.
    for f in &mut out.files {
        f.final_report = vt.rescan(&f.payload, f.t + config.vt_rescan_after);
    }
    out
}

/// Closed form of the reference scheduler's `poll_gsb` loop: the 30-minute
/// polling grid through the lookup tail collapses to
/// [`GsbService::first_listed_poll`], and the late final lookup collapses
/// to one listing-time comparison. Loop ≡ closed form is pinned by
/// property tests in both seacma-blacklist and the scheduler suite.
pub(crate) fn poll_gsb_closed_form(
    gsb: &mut GsbService<'_>,
    config: MilkingConfig,
    domain: &str,
    first_seen: SimTime,
    milking_end: SimTime,
) -> Option<SimTime> {
    let tail_end = milking_end + config.lookup_tail;
    if let Some(t) = gsb.first_listed_poll(domain, first_seen, config.lookup_interval, tail_end) {
        return Some(t);
    }
    // The single late final lookup: listed by then means the poll cadence
    // would have observed the listing right at (or before) the tail end.
    let at = gsb.listing_time(domain, first_seen)?;
    (at <= first_seen + config.final_lookup_after).then(|| at.max(tail_end))
}
