//! Phase 1 of the parallel milker: per-source timeline simulation.
//!
//! Every fetch, render and dhash comparison in a milking session is a pure
//! function of `(seed, url, ua, time)`, so each source's 14-day visit
//! timeline can be simulated independently of every other source — the
//! embarrassingly parallel phase. What *cannot* be decided per source is
//! whether a landed domain is globally new; that is phase 2's job
//! ([`crate::merge`]).
//!
//! The key observation that makes the split exact: in the sequential
//! scheduler, a tick changes state only when the landed domain is not yet
//! in the global `seen_domains` set **and** the rendered screenshot
//! matches the source's reference. A mismatching tick is a global no-op,
//! and after the first matching tick for a domain the domain is seen
//! forever. So phase 1 emits exactly the per-source-first *matching* ticks
//! as [`CandidateEvent`]s — everything the merge sweep could possibly
//! need — and drops the rest. The merge discards candidate events whose
//! domain another source matched earlier, reproducing the sequential
//! outcome byte for byte.

use std::collections::HashSet;

use seacma_browser::{BrowserConfig, QuietBrowser, RenderCache};
use seacma_simweb::{ClickAction, FilePayload, SimTime, Url, Vantage, World};
use seacma_vision::dhash::{hamming, Dhash};

use crate::scheduler::MilkingConfig;
use crate::sources::{MilkingSource, MATCH_THRESHOLD};

/// One per-source-first matching tick: a candidate discovery plus every
/// page artifact the merge sweep consumes (so phase 2 never re-fetches).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CandidateEvent {
    /// Tick time.
    pub t: SimTime,
    /// Index of the source in the milking source list.
    pub source_idx: usize,
    /// e2LD of the landing URL.
    pub domain: String,
    /// Full landing URL.
    pub landing_url: Url,
    /// Hash of the landing screenshot — the one compared against the
    /// source's reference, carried so the tracker feed never re-renders.
    pub dhash: Dhash,
    /// Scam call-center number shown by the page, if any.
    pub scam_phone: Option<String>,
    /// Survey-scam gateway the page funnels to, if any.
    pub survey_gateway: Option<Url>,
    /// Whether the page asked for push-notification permission.
    pub notification_prompt: bool,
    /// Download payloads offered by the page's elements, in DOM order.
    pub downloads: Vec<FilePayload>,
}

/// The simulated timeline of one source.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SourceTimeline {
    /// Index of the source in the milking source list.
    pub source_idx: usize,
    /// Sessions executed (one per tick, counting failed navigations).
    pub sessions: u64,
    /// Matching ticks in chronological order.
    pub events: Vec<CandidateEvent>,
}

/// Simulates source `source_idx`'s complete visit timeline.
///
/// The per-source `done` set mirrors what the global `seen_domains` set
/// does for this source's own discoveries: once this source has matched a
/// domain, later ticks landing on it are skipped without rendering (in the
/// sequential scheduler those ticks hit the `seen_domains` check). Domains
/// first matched by *other* sources still produce events here — phase 2
/// filters them, at the cost of one redundant render per cross-source
/// duplicate.
pub(crate) fn simulate_source(
    world: &World,
    config: MilkingConfig,
    source_idx: usize,
    src: &MilkingSource,
    start: SimTime,
    cache: &RenderCache,
) -> SourceTimeline {
    // Per-source constant, hoisted out of the tick loop.
    let browser_cfg =
        BrowserConfig::instrumented(src.ua, Vantage::Residential).without_screenshots();
    // `cache` is the run-wide clean-render memo: sources tracking the
    // same campaign share one clean render of its creative instead of
    // each worker re-rendering it privately.
    let mut browser = QuietBrowser::with_cache(world, browser_cfg, cache);
    let end = start + config.duration;

    let mut done: HashSet<String> = HashSet::new();
    let mut events = Vec::new();
    let mut sessions = 0u64;
    // Landing host of the last tick that resolved to "already milked".
    // A rotation epoch spans dozens of ticks, all landing on the same
    // host; since `host → e2ld` is pure and `done` only grows, a repeat
    // of a skipped host can be skipped again on a bare string compare —
    // no e2ld allocation, no set probe. Stale entries stay valid forever.
    let mut last_skip: Option<String> = None;
    let mut t = start;
    while t < end {
        sessions += 1;
        // Fast path: a HEAD-style probe (memoized across ticks for as
        // long as the hosting layer declares its answers valid) resolves
        // the landing URL without synthesizing any page. ~98 % of ticks
        // end here (domain already milked by this source) or in the
        // failed-navigation arm.
        let candidate = match browser.probe_cached(&src.url, t) {
            Err(()) => None,
            Ok(landing) => {
                if last_skip.as_deref() == Some(landing.host.as_str()) {
                    None
                } else {
                    let domain = landing.e2ld();
                    if done.contains(&domain) {
                        last_skip = Some(landing.host.clone());
                        None
                    } else {
                        Some(domain)
                    }
                }
            }
        };
        if let Some(domain) = candidate {
            // Candidate tick: load the document for real (probe and load
            // agree on the landing hop for hop).
            if let Ok((landing_url, page)) = browser.load(&src.url, t) {
                // Hash without rendering the template again: the match
                // check compares dhash bits, never pixels (noise pass over
                // a scratch copy of the cached clean render).
                let shot_hash = browser.screenshot_dhash(&landing_url, &page, t);
                if hamming(shot_hash, src.reference) <= MATCH_THRESHOLD {
                    last_skip = Some(landing_url.host.clone());
                    done.insert(domain);
                    let downloads = page
                        .elements
                        .iter()
                        .filter_map(|el| match el.action {
                            ClickAction::Download(payload) => Some(payload),
                            _ => None,
                        })
                        .collect();
                    events.push(CandidateEvent {
                        t,
                        source_idx,
                        domain: landing_url.e2ld(),
                        landing_url,
                        dhash: shot_hash,
                        scam_phone: page.scam_phone,
                        survey_gateway: page.survey_gateway,
                        notification_prompt: page.notification_prompt,
                        downloads,
                    });
                }
            }
        }
        t += config.period;
    }
    SourceTimeline { source_idx, sessions, events }
}
