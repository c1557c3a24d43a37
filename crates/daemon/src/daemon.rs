//! The resident daemon: one writer mutating the tracker, any number of
//! readers on published snapshots.

use std::sync::Arc;

use seacma_tracker::{CampaignTracker, EpochSummary, TrackerConfig};
use seacma_util::json::JsonError;
use seacma_vision::cluster::ScreenshotPoint;

use crate::snapshot::{QueryHandle, ReputationSnapshot, SnapshotCell};

/// The resident SEACMA process core: owns the [`CampaignTracker`] (the
/// single writer) and publishes an immutable [`ReputationSnapshot`] at
/// every epoch boundary for concurrent readers.
///
/// The restart story is the tracker's byte-identical snapshot/resume:
/// [`Daemon::to_json`] is exactly [`CampaignTracker::to_json`], and
/// [`Daemon::from_json`] republishes the reputation snapshot on boot, so a
/// resumed daemon answers byte-identically to one that never restarted.
///
/// ```
/// use seacma_daemon::Daemon;
/// use seacma_tracker::TrackerConfig;
/// use seacma_vision::cluster::ScreenshotPoint;
/// use seacma_vision::dhash::Dhash;
///
/// let mut daemon = Daemon::new(TrackerConfig::default());
/// for e in 0..2u32 {
///     daemon.ingest_all((0..12u32).map(|i| {
///         let hash = Dhash(0xFACE ^ (1 << ((e + i) % 3)));
///         ScreenshotPoint::new(hash, format!("evil{}.club", i % 6))
///     }));
///     assert_eq!(daemon.close_epoch().epoch, e);
/// }
/// assert_eq!(daemon.handle().epoch(), 2);
///
/// // Restart: resume from the JSON snapshot, answers are identical.
/// let resumed = Daemon::from_json(&daemon.to_json()).unwrap();
/// assert_eq!(resumed.to_json(), daemon.to_json());
/// assert_eq!(resumed.handle().epoch(), 2);
/// ```
#[derive(Debug)]
pub struct Daemon {
    tracker: CampaignTracker,
    cell: Arc<SnapshotCell>,
}

impl Daemon {
    /// A fresh daemon with an empty epoch-0 snapshot published.
    pub fn new(config: TrackerConfig) -> Self {
        let tracker = CampaignTracker::new(config);
        let cell = Arc::new(SnapshotCell::new(ReputationSnapshot::build(&tracker)));
        Self { tracker, cell }
    }

    /// A cloneable query handle onto the published snapshots. Handles stay
    /// valid for the daemon's lifetime and across epoch swaps.
    pub fn handle(&self) -> QueryHandle {
        QueryHandle::new(Arc::clone(&self.cell))
    }

    /// The live tracker (read access; the daemon is the single writer).
    pub fn tracker(&self) -> &CampaignTracker {
        &self.tracker
    }

    /// The number of epochs closed so far.
    pub fn epoch(&self) -> u32 {
        self.tracker.epoch()
    }

    /// Feeds a batch of points into the current (open) epoch. Readers are
    /// unaffected until [`Daemon::close_epoch`] publishes the boundary.
    pub fn ingest_all(&mut self, points: impl IntoIterator<Item = ScreenshotPoint>) {
        self.tracker.ingest_all(points);
    }

    /// Closes the current epoch and atomically publishes the new
    /// reputation snapshot. Queries in flight keep the previous snapshot;
    /// queries started after this call see the new one.
    ///
    /// The tracker's close observes only the clusters this epoch touched
    /// ([`CampaignTracker::end_epoch`]). The new snapshot succeeds the
    /// published one: its detector index is the published snapshot's,
    /// cloned and extended by this epoch's points
    /// ([`Detector::carried_forward`](seacma_detect::Detector::carried_forward)),
    /// and its e2LD map is read off the ledger's symbols, so a close costs
    /// the epoch plus a few column clones, not a re-index of history. Every
    /// answer equals [`ReputationSnapshot::build`] over the tracker.
    pub fn close_epoch(&mut self) -> EpochSummary {
        let summary = self.tracker.end_epoch();
        let next = ReputationSnapshot::freeze(&self.tracker, Some(&self.cell.load()));
        self.cell.publish(next);
        summary
    }

    /// Serializes the daemon's full resumable state — exactly the
    /// tracker's canonical JSON ([`CampaignTracker::to_json`]), including
    /// any points of the open epoch.
    pub fn to_json(&self) -> String {
        self.tracker.to_json()
    }

    /// Boots a daemon from a [`Daemon::to_json`] snapshot and republishes
    /// the reputation snapshot. Resuming is byte-identical: the restored
    /// tracker re-serializes to the same bytes, and the republished
    /// snapshot answers every query exactly like the pre-restart one.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let tracker = CampaignTracker::from_json(text)?;
        let cell = Arc::new(SnapshotCell::new(ReputationSnapshot::build(&tracker)));
        Ok(Self { tracker, cell })
    }
}
