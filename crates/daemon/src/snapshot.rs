//! Immutable reputation snapshots and their atomic publication cell.
//!
//! The daemon's read path never blocks on an in-flight epoch: every epoch
//! close builds a fresh immutable [`ReputationSnapshot`] and publishes it
//! into the [`SnapshotCell`] with a pointer swap. Readers clone the `Arc`
//! under a briefly-held read lock, then answer any number of queries
//! against the frozen snapshot without touching the cell again — a query
//! that started against snapshot `N` keeps answering from snapshot `N`
//! even while snapshot `N + 1` is being built and published.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use seacma_detect::{Detector, DetectorConfig, PageObservation, Verdict};
use seacma_simweb::domain::e2ld;
use seacma_simweb::Url;
use seacma_tracker::{CampaignTracker, LifeState};
use seacma_util::sym::{SharedArena, Sym};
use seacma_vision::cluster::ScreenshotPoint;
use seacma_vision::dhash::Dhash;

use crate::query::{CampaignStatus, DhashMatch, UrlVerdict};

/// One epoch boundary's frozen reputation state: the unique points' dhash
/// column inside **one** Hamming index (the detector's), the ledger's
/// point assignments parallel to it, and per-campaign statuses with their
/// domains as symbols into a shared arena.
///
/// All queries are read-only and a pure function of the snapshot, so the
/// same snapshot always returns byte-identical answers — the invariant the
/// offline oracle ([`crate::offline::replay_batches`]) checks against.
///
/// ```
/// use seacma_daemon::{ReputationSnapshot, UrlVerdict};
/// use seacma_tracker::{CampaignTracker, TrackerConfig};
/// use seacma_vision::cluster::ScreenshotPoint;
/// use seacma_vision::dhash::Dhash;
///
/// let mut tracker = CampaignTracker::new(TrackerConfig::default());
/// for i in 0..12u32 {
///     tracker.ingest(ScreenshotPoint::new(
///         Dhash(0xFACE ^ (1 << (i % 3))),
///         format!("evil{}.club", i % 6),
///     ));
/// }
/// tracker.end_epoch();
/// let snap = ReputationSnapshot::build(&tracker);
/// assert_eq!(snap.epoch(), 1);
/// assert!(matches!(snap.lookup_url("http://evil3.club/lp"), UrlVerdict::Tracked { .. }));
/// assert_eq!(snap.lookup_url("https://example.com/"), UrlVerdict::Unknown);
/// ```
#[derive(Debug, Clone)]
pub struct ReputationSnapshot {
    epoch: u32,
    /// The arena `domains` resolves against.
    arena: SharedArena,
    /// Ledger id per point, parallel to the detector's hash column.
    assignments: Vec<Option<u32>>,
    domains: HashMap<Sym, u32>,
    statuses: Vec<CampaignStatus>,
    /// The online detector's frozen view, and the snapshot's only index:
    /// it owns the dhash column, banded at the escalated radius (17 bands
    /// at the default `eps`; the same bands answer the clustering radius
    /// for [`ReputationSnapshot::nearest_campaign`]), plus the assignment
    /// column restricted to θc-qualified campaigns. The next epoch's
    /// snapshot carries this index forward ([`Detector::carried_forward`]).
    detector: Detector,
}

impl ReputationSnapshot {
    /// Freezes a tracker's state at its current epoch boundary.
    ///
    /// Points ingested since the last [`end_epoch`](CampaignTracker::end_epoch)
    /// appear in the index but are unassigned, so they cannot influence any
    /// answer — a snapshot built mid-epoch answers exactly like the one
    /// published at the last boundary.
    ///
    /// What this costs: the ledger's assignment column is **cloned**, the
    /// arena is shared by handle (no string copies), the per-campaign
    /// statuses are **rebuilt** (O(campaigns)), the domain map is built
    /// from the ledger's domain symbols as they are (no string is resolved
    /// or re-interned), and the
    /// detector's escalated-radius index is **rebuilt from scratch** —
    /// every hash into every band, the dominant term. This is the boot and
    /// resume constructor; [`Daemon::close_epoch`](crate::Daemon::close_epoch)
    /// instead carries the published snapshot's detector index forward
    /// ([`Detector::carried_forward`]): one index clone plus O(epoch)
    /// inserts, everything else as here.
    pub fn build(tracker: &CampaignTracker) -> Self {
        Self::freeze(tracker, None)
    }

    /// The one place a tracker becomes a snapshot. The e2LD → campaign map
    /// takes `(symbol, id)` pairs straight from the ledger's records. `prev`
    /// only chooses how
    /// the detector's index comes to be: given an earlier snapshot of the
    /// same tracker, its index is cloned and extended by the points that
    /// arrived since ([`Detector::carried_forward`]) — O(epoch) inserts
    /// rather than O(history) re-hashing — and every answer still equals
    /// [`ReputationSnapshot::build`]`(tracker)`. A `prev` that is *not* a
    /// prefix of `tracker` (another tracker's snapshot, a different radius)
    /// is detected there and costs a from-scratch build, never a wrong
    /// answer.
    pub(crate) fn freeze(tracker: &CampaignTracker, prev: Option<&ReputationSnapshot>) -> Self {
        let hashes = tracker.dhashes();
        let arena = tracker.arena().clone();
        let mut assignments = tracker.ledger().assignments().to_vec();
        assignments.resize(hashes.len(), None);
        let statuses: Vec<CampaignStatus> = {
            let resolver = arena.read();
            tracker
                .ledger()
                .records()
                .iter()
                .map(|r| CampaignStatus::from_record(r, &resolver))
                .collect()
        };
        let domains = domain_map(
            tracker
                .ledger()
                .records()
                .iter()
                .filter(|r| r.state != LifeState::Merged)
                .flat_map(|r| r.domains.iter().map(move |&d| (d, r.id))),
        );
        let qualified = detect_assignments(&assignments, &statuses);
        let config = DetectorConfig::for_eps(tracker.config().params.eps);
        let detector = match prev {
            Some(prev) => prev.detector.carried_forward(hashes, &qualified, config),
            None => Detector::from_columns(hashes, &qualified, config),
        };
        Self { epoch: tracker.epoch(), arena, assignments, domains, statuses, detector }
    }

    /// Assembles a snapshot from its constituent parts — the entry point
    /// the offline oracle shares with [`ReputationSnapshot::build`], so
    /// both sides derive the domain map and the Hamming index the same
    /// deterministic way.
    ///
    /// `assignments[i]` is the ledger id of `points[i]` (`None` = noise or
    /// not yet observed); `statuses` lists every ledger record in id order;
    /// `eps` is the clustering radius dhash queries are answered at.
    /// The domain map assigns each e2LD of a non-merged record to the
    /// smallest claiming ledger id (records are scanned in id order).
    pub fn from_parts(
        epoch: u32,
        points: Vec<ScreenshotPoint>,
        assignments: Vec<Option<u32>>,
        statuses: Vec<CampaignStatus>,
        eps: f64,
    ) -> Self {
        debug_assert_eq!(points.len(), assignments.len());
        let hashes: Vec<Dhash> = points.iter().map(|p| p.dhash).collect();
        let arena = SharedArena::new();
        let domains = domain_map(
            statuses
                .iter()
                .filter(|s| s.state != LifeState::Merged)
                .flat_map(|s| s.domains.iter().map(|d| (arena.intern(d), s.id))),
        );
        let detector = Detector::from_columns(
            &hashes,
            &detect_assignments(&assignments, &statuses),
            DetectorConfig::for_eps(eps),
        );
        Self { epoch, arena, assignments, domains, statuses, detector }
    }

    /// The number of closed epochs this snapshot reflects.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of unique points resident in the snapshot.
    pub fn resident_points(&self) -> usize {
        self.detector.len()
    }

    /// Number of distinct strings in the snapshot's symbol arena. For a
    /// daemon-private tracker this equals the number of distinct e2LDs
    /// seen; for a pipeline-shared world arena it also counts publisher
    /// domains and other interned strings.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Every ledger record's status, in id order.
    pub fn statuses(&self) -> &[CampaignStatus] {
        &self.statuses
    }

    /// The status of ledger id `id`, if it exists.
    pub fn campaign(&self, id: u32) -> Option<&CampaignStatus> {
        self.statuses.get(id as usize)
    }

    /// Reputation of a bare effective second-level domain. The lookup
    /// never grows the arena: an unknown string simply has no symbol.
    pub fn lookup_domain(&self, e2ld: &str) -> UrlVerdict {
        match self.arena.lookup(e2ld).and_then(|s| self.domains.get(&s)) {
            Some(&id) => {
                let s = &self.statuses[id as usize];
                UrlVerdict::Tracked { campaign: id, state: s.state, qualified: s.qualified }
            }
            None => UrlVerdict::Unknown,
        }
    }

    /// Reputation of a URL: parses it (falling back to treating the input
    /// as a bare hostname), reduces the host to its e2LD, and looks that
    /// up. The answer depends only on the e2LD — campaigns rotate hosts
    /// and paths freely, the e2LD is what the θc filter counts.
    pub fn lookup_url(&self, url: &str) -> UrlVerdict {
        let key = match url.parse::<Url>() {
            Ok(u) => u.e2ld(),
            Err(_) => e2ld(url.trim()),
        };
        self.lookup_domain(&key)
    }

    /// The nearest tracked campaign within the clustering radius of probe
    /// hash `h`: among assigned points in the `eps`-ball, the one with
    /// minimal `(distance, point index)`. `None` when no assigned point is
    /// within the radius — an unassigned (noise or mid-epoch) point never
    /// produces a match.
    pub fn nearest_campaign(&self, h: Dhash) -> Option<DhashMatch> {
        let radius = self.detector.config().base_radius();
        self.detector.nearest_assigned(h, &self.assignments, radius, &mut Vec::new()).map(
            |(id, distance)| {
                let s = &self.statuses[id as usize];
                DhashMatch { campaign: id, distance, state: s.state, qualified: s.qualified }
            },
        )
    }

    /// The snapshot's frozen online-detector view.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Scores one page-load observation against the frozen campaign
    /// index, per [`Detector::detect`]. A pure function of the snapshot:
    /// the same observation always returns a byte-identical verdict.
    pub fn detect(&self, obs: &PageObservation) -> Verdict {
        self.detector.detect(obs)
    }

    /// [`ReputationSnapshot::detect`] with a caller-owned scratch buffer —
    /// the allocation-free path the bench's hot loop drives.
    pub fn detect_with(&self, obs: &PageObservation, scratch: &mut Vec<usize>) -> Verdict {
        self.detector.detect_with(obs, scratch)
    }
}

/// The detector's assignment column: only **qualified** campaigns (θc
/// survivors) answer visual matches. A tracked-but-unqualified cluster is
/// not a SEACMA campaign under the paper's definition, and letting it
/// match would flag every popular benign landing template the crawl
/// happened to cluster.
fn detect_assignments(
    assignments: &[Option<u32>],
    statuses: &[CampaignStatus],
) -> Vec<Option<u32>> {
    assignments
        .iter()
        .map(|a| a.filter(|&id| statuses.get(id as usize).is_some_and(|s| s.qualified)))
        .collect()
}

/// Maps each e2LD to the smallest ledger id claiming it, given the
/// `(domain, id)` pairs of the non-merged records in id order.
/// [`ReputationSnapshot::freeze`] passes the ledger's symbols as they are
/// (they already resolve against the tracker's arena, which the snapshot
/// shares); [`ReputationSnapshot::from_parts`] interns its status strings
/// once into the snapshot's fresh arena.
fn domain_map(pairs: impl Iterator<Item = (Sym, u32)>) -> HashMap<Sym, u32> {
    let mut domains = HashMap::new();
    for (d, id) in pairs {
        domains.entry(d).or_insert(id);
    }
    domains
}

/// The atomic publication cell: a single slot holding the current
/// [`ReputationSnapshot`] behind an `Arc`.
///
/// [`publish`](SnapshotCell::publish) takes the write lock only for the
/// pointer swap; [`load`](SnapshotCell::load) takes the read lock only to
/// clone the `Arc`. No query work happens under either lock, so readers
/// never block on an in-flight epoch and the writer never waits for
/// readers to finish a query.
///
/// ```
/// use seacma_daemon::{ReputationSnapshot, SnapshotCell};
/// use seacma_tracker::{CampaignTracker, TrackerConfig};
///
/// let tracker = CampaignTracker::new(TrackerConfig::default());
/// let cell = SnapshotCell::new(ReputationSnapshot::build(&tracker));
/// let before = cell.load();            // readers hold snapshot 0...
/// cell.publish(ReputationSnapshot::build(&tracker));
/// assert_eq!(before.epoch(), cell.load().epoch()); // ...swap does not touch it
/// ```
#[derive(Debug)]
pub struct SnapshotCell {
    slot: RwLock<Arc<ReputationSnapshot>>,
}

impl SnapshotCell {
    /// A cell holding `initial`.
    pub fn new(initial: ReputationSnapshot) -> Self {
        Self { slot: RwLock::new(Arc::new(initial)) }
    }

    /// The current snapshot. The read lock is held only for the `Arc`
    /// clone; queries against the returned snapshot take no lock.
    ///
    /// A poisoned lock is recovered, not propagated: both critical
    /// sections are a single `Arc` clone or swap, so the slot holds a whole
    /// snapshot whichever thread panicked while holding a guard.
    pub fn load(&self) -> Arc<ReputationSnapshot> {
        self.slot.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Atomically replaces the current snapshot. In-flight readers keep
    /// their `Arc` to the previous snapshot; new loads see `snapshot`.
    pub fn publish(&self, snapshot: ReputationSnapshot) {
        let next = Arc::new(snapshot);
        let superseded = {
            let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *slot, next)
        };
        // Dropped only now, with the write lock released: when this was the
        // last reference, tearing down a whole snapshot (milliseconds at
        // 50k points) must not block every `load()`.
        drop(superseded);
    }
}

/// A cloneable, thread-safe handle serving reputation queries from the
/// latest published snapshot.
///
/// Each query loads the current snapshot once and answers from it, so a
/// single call is internally consistent; callers that need several answers
/// from the *same* epoch take [`QueryHandle::snapshot`] once and query
/// that.
///
/// ```
/// use seacma_daemon::{Daemon, UrlVerdict};
/// use seacma_tracker::TrackerConfig;
/// use seacma_vision::cluster::ScreenshotPoint;
/// use seacma_vision::dhash::Dhash;
///
/// let mut daemon = Daemon::new(TrackerConfig::default());
/// let handle = daemon.handle();        // clones can move to other threads
/// daemon.ingest_all((0..12u32).map(|i| {
///     ScreenshotPoint::new(Dhash(0xFACE ^ (1 << (i % 3))), format!("evil{}.club", i % 6))
/// }));
/// assert_eq!(handle.epoch(), 0);       // mid-epoch points are not served yet
/// daemon.close_epoch();
/// assert_eq!(handle.epoch(), 1);
/// assert!(matches!(handle.url("http://evil0.club/"), UrlVerdict::Tracked { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct QueryHandle {
    cell: Arc<SnapshotCell>,
}

impl QueryHandle {
    /// A handle reading from `cell`.
    pub fn new(cell: Arc<SnapshotCell>) -> Self {
        Self { cell }
    }

    /// The latest published snapshot, for multi-query consistency.
    pub fn snapshot(&self) -> Arc<ReputationSnapshot> {
        self.cell.load()
    }

    /// The number of closed epochs in the latest published snapshot.
    pub fn epoch(&self) -> u32 {
        self.snapshot().epoch()
    }

    /// URL reputation, per [`ReputationSnapshot::lookup_url`].
    pub fn url(&self, url: &str) -> UrlVerdict {
        self.snapshot().lookup_url(url)
    }

    /// Nearest-campaign lookup, per [`ReputationSnapshot::nearest_campaign`].
    pub fn dhash(&self, h: Dhash) -> Option<DhashMatch> {
        self.snapshot().nearest_campaign(h)
    }

    /// Campaign status, per [`ReputationSnapshot::campaign`].
    pub fn campaign(&self, id: u32) -> Option<CampaignStatus> {
        self.snapshot().campaign(id).cloned()
    }

    /// Online page-load detection, per [`ReputationSnapshot::detect`] —
    /// the daemon's second, harder workload class. Like every other
    /// query, the handle loads the published snapshot once (an `Arc` clone
    /// under a briefly-held read lock) and scores against its frozen
    /// detector.
    pub fn detect(&self, obs: &PageObservation) -> Verdict {
        self.snapshot().detect(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_detect::PageSignals;
    use seacma_tracker::TrackerConfig;

    /// A tracker with one closed epoch: a θc-qualified near-duplicate
    /// campaign around `base` plus `noise` far-away singletons.
    fn tracker_around(base: u128, noise: u32) -> CampaignTracker {
        let mut tracker = CampaignTracker::new(TrackerConfig::default());
        for i in 0..12u32 {
            tracker.ingest(ScreenshotPoint::new(
                Dhash(base ^ (1 << (i % 3))),
                format!("evil{}.club", i % 6),
            ));
        }
        for i in 0..noise {
            let h = base.rotate_left(17 + i) ^ (u128::MAX / (u128::from(i) + 3));
            tracker.ingest(ScreenshotPoint::new(Dhash(h), format!("bg{i}.example")));
        }
        tracker.end_epoch();
        tracker
    }

    #[test]
    fn poisoned_cell_still_loads_and_publishes() {
        let mut tracker = tracker_around(0xFACE, 0);
        let cell = SnapshotCell::new(ReputationSnapshot::build(&tracker));
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let _guard = cell.slot.write().unwrap();
                // Unwinds with the guard held (and without the panic
                // hook's stderr noise): the lock is now poisoned.
                std::panic::resume_unwind(Box::new("writer died"));
            });
            assert!(writer.join().is_err());
        });
        assert!(cell.slot.is_poisoned());
        assert_eq!(cell.load().epoch(), 1, "readers keep the last published epoch");
        tracker.end_epoch();
        cell.publish(ReputationSnapshot::freeze(&tracker, Some(&cell.load())));
        assert_eq!(cell.load().epoch(), 2, "a later publish is visible");
    }

    #[test]
    fn foreign_previous_snapshot_rebuilds_and_answers_identically() {
        let ours = tracker_around(0xFACE, 9);
        let scratch = ReputationSnapshot::build(&ours);
        let on_campaign = PageObservation { dhash: Dhash(0xFACE), signals: PageSignals::default() };
        assert_eq!(scratch.detect(&on_campaign).kind(), "campaign");
        // Another tracker's snapshots: disjoint hashes, then the same
        // length as ours, then longer than ours — none is a prefix.
        let foreigners =
            [tracker_around(!0xFACE, 2), tracker_around(0xBEEF << 64, 9), tracker_around(7, 30)];
        for foreign in foreigners {
            let prev = ReputationSnapshot::build(&foreign);
            assert!(!ours.dhashes().starts_with(prev.detector().hashes()));
            let next = ReputationSnapshot::freeze(&ours, Some(&prev));
            assert_eq!(next.epoch(), scratch.epoch());
            assert_eq!(next.detector().hashes(), ours.dhashes());
            assert_eq!(next.detector().assignments(), scratch.detector().assignments());
            for &h in ours.dhashes().iter().chain(foreign.dhashes()) {
                let obs =
                    PageObservation { dhash: Dhash(h.0 ^ 0b101), signals: PageSignals::default() };
                assert_eq!(next.detect(&obs), scratch.detect(&obs));
                assert_eq!(next.nearest_campaign(h), scratch.nearest_campaign(h));
            }
            let url = "http://evil3.club/lp";
            assert_eq!(next.lookup_url(url), scratch.lookup_url(url));
        }
    }
}
