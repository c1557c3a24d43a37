//! Campaign lifecycle ledger: stable identities and life events across
//! epochs.
//!
//! The incremental clusterer answers "what are the clusters *now*"; the
//! ledger answers "which campaign is this, and what happened to it".
//! Cluster structure drifts as points arrive — components merge, borders
//! migrate, domain counts cross θc in both directions — so the ledger
//! assigns each campaign a stable numeric id at birth and re-identifies it
//! at every epoch boundary by **member overlap**: each previously-known id
//! votes for the current cluster holding most of its former members
//! (ties to the lower cluster key), a cluster inherits the smallest id
//! that chose it, and any other claimants are recorded as merged into it.
//! Insertion-only clustering never splits a component, so the former
//! members of an id stay together and the vote is decisive.
//!
//! An observation ([`Boundary`]) need only carry the clusters that changed
//! and the points that moved: votes are counted (an id's unmoved members
//! all sit where its key's point sits), a record nobody claims takes only
//! the quiet transition its schedule says is due, and the cluster tallies
//! are kept, not recounted — so a close costs the epoch, not the history.
//! Every cluster and every point is always a correct observation too; the
//! offline replay passes exactly that.
//!
//! Life state machine (see DESIGN.md §2e):
//!
//! ```text
//! Born ──▶ Active ──quiet ≥ quiet_window──▶ Dormant
//!            ▲                                │ │
//!            └────────── grew ◀───────────────┘ └─quiet ≥ death_window─▶ Dead
//!                                                              │
//!                                              grew ──▶ Active (reactivated)
//! Active/Dormant/Dead ──outvoted at re-identification──▶ Merged (terminal)
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

use seacma_util::sym::{SharedArena, Sym, SymbolArena};
use seacma_util::{impl_json_enum, impl_json_struct};

/// Dormancy/death thresholds, in epochs without growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerConfig {
    /// Epochs without member growth before an `Active` campaign turns
    /// `Dormant`.
    pub quiet_window: u32,
    /// Epochs without member growth before a `Dormant` campaign is
    /// declared `Dead`. Must be ≥ `quiet_window` to be reachable.
    pub death_window: u32,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self { quiet_window: 2, death_window: 5 }
    }
}

/// Where a campaign is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifeState {
    /// Growing, or quiet for less than the quiet window.
    Active,
    /// No growth for `quiet_window` epochs; still tracked.
    Dormant,
    /// No growth for `death_window` epochs. Revived by any new member.
    Dead,
    /// Identity absorbed by another campaign (terminal).
    Merged,
}

/// One entry in a campaign's event journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignEvent {
    /// First observation of the cluster.
    Born {
        /// Epoch of first observation.
        epoch: u32,
        /// Screenshot count at birth.
        members: u32,
        /// Distinct e2LDs at birth.
        domains: u32,
    },
    /// Member count increased since the previous epoch.
    Grew {
        /// Epoch of the observation.
        epoch: u32,
        /// Members gained since the previous epoch.
        added: u32,
        /// Total members after growth.
        members: u32,
    },
    /// A new e2LD joined the campaign — the blacklist-evasion rotation
    /// signature the paper tracks (§5).
    DomainRotated {
        /// Epoch the domain first appeared.
        epoch: u32,
        /// The new effective second-level domain.
        domain: String,
    },
    /// Domain count crossed θc upward: the cluster is now a campaign.
    Promoted {
        /// Epoch of the crossing.
        epoch: u32,
        /// Distinct e2LDs after the crossing.
        domains: u32,
    },
    /// Domain count fell below θc (border points migrating to an older
    /// cluster can remove domains — see `incremental`).
    Demoted {
        /// Epoch of the crossing.
        epoch: u32,
        /// Distinct e2LDs after the crossing.
        domains: u32,
    },
    /// Quiet for `quiet_window` epochs.
    WentDormant {
        /// Epoch the threshold was crossed.
        epoch: u32,
    },
    /// Quiet for `death_window` epochs.
    Died {
        /// Epoch the threshold was crossed.
        epoch: u32,
    },
    /// Grew again after dormancy or death.
    Reactivated {
        /// Epoch growth resumed.
        epoch: u32,
    },
    /// Lost the re-identification vote to a smaller id (terminal).
    MergedInto {
        /// Epoch of the merge.
        epoch: u32,
        /// The surviving campaign id.
        into: u32,
    },
}

/// A tracked campaign: stable id, current shape, life state and journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRecord {
    /// Stable ledger id (index into the ledger's record table).
    pub id: u32,
    /// Epoch the campaign was first observed.
    pub birth_epoch: u32,
    /// Last epoch the member count grew.
    pub last_growth_epoch: u32,
    /// Screenshot count at the last observation.
    pub members: u32,
    /// Distinct e2LD symbols at the last observation, sorted by resolved
    /// string. Symbols, not strings: epoch close re-materializing every
    /// campaign's domain list was the tracker's last per-epoch string
    /// allocation — the ledger now serves `Sym`s straight from the
    /// clusterer's arena and resolves only at serialization time
    /// ([`CampaignLedger::to_state`]) or on a rotation event.
    pub domains: Vec<Sym>,
    /// Whether the domain count meets θc.
    pub campaign: bool,
    /// Current life state.
    pub state: LifeState,
    /// Everything that ever happened to this campaign, in epoch order.
    pub events: Vec<CampaignEvent>,
}

impl CampaignRecord {
    /// Observed lifetime in epochs: birth through the last epoch the
    /// campaign still grew, inclusive. This is the series the lifetime
    /// histograms in `seacma-report` bucket.
    ///
    /// ```
    /// use seacma_tracker::{CampaignRecord, LifeState};
    /// use seacma_util::sym::SymbolArena;
    ///
    /// let mut arena = SymbolArena::new();
    /// let r = CampaignRecord {
    ///     id: 0,
    ///     birth_epoch: 2,
    ///     last_growth_epoch: 5,
    ///     members: 9,
    ///     domains: vec![arena.intern("evil.club")],
    ///     campaign: false,
    ///     state: LifeState::Dormant,
    ///     events: Vec::new(),
    /// };
    /// assert_eq!(r.lifetime_epochs(), 4);
    /// ```
    pub fn lifetime_epochs(&self) -> u32 {
        self.last_growth_epoch - self.birth_epoch + 1
    }
}

/// A `(campaign id, event)` pair as returned from an epoch observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEvent {
    /// The campaign the event belongs to.
    pub id: u32,
    /// The event.
    pub event: CampaignEvent,
}

/// One cluster as seen at an epoch boundary — the ledger's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedCluster {
    /// Order key. Keys ascend in the order batch DBSCAN numbers the
    /// clusters: the incremental tracker passes each component's minimal
    /// core index, the offline replay the batch cluster id.
    pub key: u32,
    /// Unique points in the cluster.
    pub size: u32,
    /// Total screenshots (original multiplicity) across members.
    pub weight: u32,
    /// Distinct e2LD symbols, sorted by resolved string.
    pub domains: Vec<Sym>,
}

/// What the ledger reads at an epoch boundary: the clusters that changed
/// and the points that may have changed cluster since the last
/// observation.
///
/// `clusters` must hold every cluster whose member set, weight or domain
/// set changed, ascending by key; `moved` every point that joined, left or
/// changed cluster (new points included); `absorbed` every key of the
/// last observation that no longer names a cluster because its cluster
/// merged into another; `key_of` gives a point's current cluster key
/// (`None` = noise). Supersets are always correct: every cluster and every
/// point (the offline replay, and the tracker's first close after a
/// resume) is a full observation, and then `absorbed` may be empty.
///
/// Votes are counted, not scanned: a record's former members that are not
/// in `moved` are taken to sit, all of them, in the cluster holding the
/// point its key names. That holds for the tracker, whose keys are
/// component roots (core points, which never change cluster), and is
/// vacuous for a caller that lists every point in `moved`.
#[derive(Debug, Clone, Copy)]
pub struct Boundary<'a, F> {
    /// Changed clusters, ascending by key.
    pub clusters: &'a [ObservedCluster],
    /// Points whose cluster may have changed.
    pub moved: &'a [u32],
    /// Keys whose clusters merged into others since the last observation.
    pub absorbed: &'a [u32],
    /// Current cluster key of a unique point.
    pub key_of: F,
    /// The clusterer's current unique-point count.
    pub n_unique: usize,
}

/// The campaign lifecycle ledger. Domains are arena symbols, so the
/// serialized form goes through [`CampaignLedger::to_state`] (which
/// resolves them — arena-independent by construction); see
/// [`CampaignTracker`](crate::tracker::CampaignTracker) for the
/// snapshot/resume entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignLedger {
    config: LedgerConfig,
    /// All campaigns ever observed; `records[i].id == i`, never removed.
    records: Vec<CampaignRecord>,
    /// Ledger id each unique point belonged to at the last observation.
    assign: Vec<Option<u32>>,
    /// Per record: unique points assigned to it (0 once merged away).
    sizes: Vec<u32>,
    /// Per record: the order key of its cluster at the last observation.
    keys: Vec<u32>,
    /// Key → the record owning that cluster (every record of nonzero size).
    by_key: HashMap<u32, u32>,
    /// Epoch → records whose quiet transition may fall due then. Entries
    /// go stale when a record grows; a due record is only checked.
    due: BTreeMap<u32, Vec<u32>>,
    /// Records that own a cluster, and those of them meeting θc.
    counts: (u32, u32),
}

impl CampaignLedger {
    /// An empty ledger.
    pub fn new(config: LedgerConfig) -> Self {
        Self {
            config,
            records: Vec::new(),
            assign: Vec::new(),
            sizes: Vec::new(),
            keys: Vec::new(),
            by_key: HashMap::new(),
            due: BTreeMap::new(),
            counts: (0, 0),
        }
    }

    /// The dormancy thresholds.
    pub fn config(&self) -> LedgerConfig {
        self.config
    }

    /// Every campaign ever observed, in id order.
    pub fn records(&self) -> &[CampaignRecord] {
        &self.records
    }

    /// The record for ledger id `id`.
    pub fn record(&self, id: u32) -> &CampaignRecord {
        &self.records[id as usize]
    }

    /// Records with θc-qualifying domain counts that are not merged away.
    pub fn campaigns(&self) -> impl Iterator<Item = &CampaignRecord> {
        self.records.iter().filter(|r| r.campaign && r.state != LifeState::Merged)
    }

    /// Clusters at the last observation, and how many of them span ≥ θc
    /// domains — tallies [`CampaignLedger::observe`] keeps up to date.
    pub fn cluster_counts(&self) -> (u32, u32) {
        self.counts
    }

    /// The ledger id each unique point belonged to at the last closed
    /// epoch (`None` = noise). Indexed by the clusterer's unique-point
    /// order; its length is the unique count at the last observation, so
    /// points ingested since then are implicitly unassigned.
    ///
    /// This is the publication handle the reputation daemon snapshots:
    /// together with the unique points it fixes every dhash→campaign
    /// answer at an epoch boundary.
    pub fn assignments(&self) -> &[Option<u32>] {
        &self.assign
    }

    /// Closes an epoch: re-identifies the changed clusters against the
    /// previous observation, journals every life event, and returns the
    /// events in deterministic order (key order, merges before updates).
    ///
    /// Each previously-known id with a member in a passed cluster votes
    /// for the one holding most of its former members (ties to the lower
    /// key); a cluster inherits the smallest id that chose it, the others
    /// merge into it, and a cluster nobody chose is born. A record no
    /// passed cluster claims kept its cluster unchanged, so it takes only
    /// the quiet transition that falls due, placed at its key. The cost is
    /// the passed clusters, the moved points and the records involved or
    /// due — never a pass over every record; the assignment column is
    /// rewritten in full only on an epoch where an id's unmoved members
    /// change id (a merge, or a re-birth).
    ///
    /// `theta_c` is the campaign domain threshold; `arena` resolves the
    /// clusters' domain symbols — touched only when a rotation event needs
    /// its domain string, never on the steady path.
    pub fn observe<F: Fn(u32) -> Option<u32>>(
        &mut self,
        epoch: u32,
        boundary: &Boundary<'_, F>,
        theta_c: usize,
        arena: &SymbolArena,
    ) -> Vec<LedgerEvent> {
        let clusters = boundary.clusters;
        let slot = |key: u32| clusters.binary_search_by_key(&key, |c| c.key).ok();
        let cluster_of = |u: u32| (boundary.key_of)(u).and_then(slot);

        // Ballots: one per moved former member where it sits now, plus
        // each involved id's unmoved remainder where its key's point sits.
        let mut ballots: Vec<(u32, usize, u32)> = Vec::new();
        let mut moved_out: BTreeMap<u32, u32> = BTreeMap::new();
        for &u in boundary.moved {
            if let Some(p) = self.assign.get(u as usize).copied().flatten() {
                *moved_out.entry(p).or_default() += 1;
                if let Some(ci) = cluster_of(u) {
                    ballots.push((p, ci, 1));
                }
            }
        }
        let keys = clusters.iter().map(|c| &c.key).chain(boundary.absorbed);
        for id in keys.filter_map(|key| self.by_key.get(key)) {
            moved_out.entry(*id).or_default();
        }
        let mut homes: Vec<(u32, usize)> = Vec::new();
        for (&id, &out) in &moved_out {
            let rest = self.sizes[id as usize].saturating_sub(out);
            if let Some(ci) = cluster_of(self.keys[id as usize]).filter(|_| rest > 0) {
                ballots.push((id, ci, rest));
                homes.push((id, ci));
            }
        }
        // Each id backs the cluster with most of its votes (ties to the
        // lower cluster); `choices` lists `(cluster, id)` ascending, so a
        // cluster's claimants are a run of it, smallest id first.
        ballots.sort_unstable_by_key(|&(id, ci, _)| (id, ci));
        let totals: Vec<(u32, usize, u32)> = ballots
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .map(|run| (run[0].0, run[0].1, run.iter().map(|b| b.2).sum()))
            .collect();
        let mut choices: Vec<(usize, u32)> = totals
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|per_id| per_id.iter().max_by_key(|&&(_, ci, v)| (v, Reverse(ci))))
            .map(|&(id, ci, _)| (ci, id))
            .collect();
        let voted = |id: u32| ballots.binary_search_by_key(&id, |b| b.0).is_ok();
        choices.sort_unstable();
        // Unclaimed records whose quiet transition may be due, in key order.
        let mut quiet: Vec<(u32, u32)> = Vec::new();
        while let Some(entry) = self.due.first_entry().filter(|e| *e.key() <= epoch) {
            quiet.extend(
                entry
                    .remove()
                    .into_iter()
                    .filter(|&id| self.sizes[id as usize] > 0 && !voted(id))
                    .map(|id| (self.keys[id as usize], id)),
            );
        }
        quiet.sort_unstable();
        quiet.dedup();

        let mut events: Vec<LedgerEvent> = Vec::new();
        let mut ids: Vec<u32> = Vec::with_capacity(clusters.len());
        let mut quiet = quiet.into_iter().peekable();
        let mut claims = choices.iter().peekable();
        let mut claimants: Vec<u32> = Vec::new();
        for (ci, c) in clusters.iter().enumerate() {
            while let Some((_, id)) = quiet.next_if(|&(key, _)| key < c.key) {
                self.go_quiet(epoch, id, &mut events);
            }
            claimants.clear();
            while let Some(&(_, id)) = claims.next_if(|&&(at, _)| at == ci) {
                claimants.push(id);
            }
            ids.push(self.observe_cluster(epoch, c, &claimants, theta_c, arena, &mut events));
        }
        for (_, id) in quiet {
            self.go_quiet(epoch, id, &mut events);
        }

        // Assignments: unmoved members follow their cluster's new id (a
        // full pass, taken only when some id changes), moved ones are set.
        let renames: BTreeMap<u32, u32> =
            homes.iter().filter(|&&(p, ci)| ids[ci] != p).map(|&(p, ci)| (p, ids[ci])).collect();
        self.assign.resize(boundary.n_unique, None);
        if !renames.is_empty() {
            for a in self.assign.iter_mut() {
                if let Some(to) = a.and_then(|p| renames.get(&p)) {
                    *a = Some(*to);
                }
            }
        }
        for &u in boundary.moved {
            match (boundary.key_of)(u) {
                None => self.assign[u as usize] = None,
                Some(key) => {
                    if let Some(ci) = slot(key) {
                        self.assign[u as usize] = Some(ids[ci]);
                    }
                }
            }
        }
        events
    }

    /// Re-identifies one passed cluster: merges every claimant but the
    /// smallest into it, or births it when nobody claims it, then
    /// journals its growth, rotations and θc crossings. Returns its id.
    fn observe_cluster(
        &mut self,
        epoch: u32,
        c: &ObservedCluster,
        claimants: &[u32],
        theta_c: usize,
        arena: &SymbolArena,
        events: &mut Vec<LedgerEvent>,
    ) -> u32 {
        let Some((&id, gone)) = claimants.split_first() else {
            // Never-seen members only: a birth.
            let id = self.records.len() as u32;
            let ev = CampaignEvent::Born {
                epoch,
                members: c.weight,
                domains: c.domains.len() as u32,
            };
            self.records.push(CampaignRecord {
                id,
                birth_epoch: epoch,
                last_growth_epoch: epoch,
                members: c.weight,
                domains: c.domains.clone(),
                campaign: c.domains.len() >= theta_c,
                state: LifeState::Active,
                events: vec![ev.clone()],
            });
            self.sizes.push(0);
            self.keys.push(c.key);
            self.own(id, c, epoch);
            events.push(LedgerEvent { id, event: ev });
            return id;
        };
        for &gone in gone {
            let ev = CampaignEvent::MergedInto { epoch, into: id };
            self.disown(gone);
            let rec = &mut self.records[gone as usize];
            rec.state = LifeState::Merged;
            rec.events.push(ev.clone());
            events.push(LedgerEvent { id: gone, event: ev });
        }

        self.disown(id);
        let rec = &mut self.records[id as usize];
        let from = rec.events.len();
        // Linear scan, not binary search: symbols are sorted by their
        // *resolved* string, which `Sym` ordering does not reflect.
        // Domain lists are small (θc-scale), and symbol equality is an
        // integer compare — no strings materialize here.
        for &d in &c.domains {
            if !rec.domains.contains(&d) {
                rec.events.push(CampaignEvent::DomainRotated {
                    epoch,
                    domain: arena.resolve(d).to_string(),
                });
            }
        }
        let qualifies = c.domains.len() >= theta_c;
        if qualifies && !rec.campaign {
            rec.events.push(CampaignEvent::Promoted { epoch, domains: c.domains.len() as u32 });
        } else if !qualifies && rec.campaign {
            rec.events.push(CampaignEvent::Demoted { epoch, domains: c.domains.len() as u32 });
        }
        if c.weight > rec.members {
            rec.events.push(CampaignEvent::Grew {
                epoch,
                added: c.weight - rec.members,
                members: c.weight,
            });
            if rec.state != LifeState::Active {
                rec.events.push(CampaignEvent::Reactivated { epoch });
                rec.state = LifeState::Active;
            }
            rec.last_growth_epoch = epoch;
        } else if let Some(ev) = quiet_transition(rec, epoch, self.config) {
            rec.events.push(ev);
        }
        rec.members = c.weight;
        rec.domains.clone_from(&c.domains);
        rec.campaign = qualifies;
        events.extend(rec.events[from..].iter().map(|ev| LedgerEvent { id, event: ev.clone() }));
        self.own(id, c, epoch);
        id
    }

    /// Record `id` owns cluster `c` as of `epoch`: its size, key and
    /// tallies follow, and its next quiet transition is scheduled.
    fn own(&mut self, id: u32, c: &ObservedCluster, epoch: u32) {
        let i = id as usize;
        self.sizes[i] = c.size;
        self.keys[i] = c.key;
        self.by_key.insert(c.key, id);
        let campaign = u32::from(self.records[i].campaign);
        self.counts = (self.counts.0 + 1, self.counts.1 + campaign);
        self.schedule(id, epoch);
    }

    /// Record `id` gives up the cluster it owned, if any.
    fn disown(&mut self, id: u32) {
        let i = id as usize;
        if self.sizes[i] == 0 {
            return;
        }
        if self.by_key.get(&self.keys[i]) == Some(&id) {
            self.by_key.remove(&self.keys[i]);
        }
        let campaign = u32::from(self.records[i].campaign);
        self.counts = (self.counts.0 - 1, self.counts.1 - campaign);
        self.sizes[i] = 0;
    }

    /// Queues record `id` for the first epoch after `now` at which its
    /// state's quiet window can have elapsed.
    fn schedule(&mut self, id: u32, now: u32) {
        let rec = &self.records[id as usize];
        let window = match rec.state {
            LifeState::Active => self.config.quiet_window,
            LifeState::Dormant => self.config.death_window,
            LifeState::Dead | LifeState::Merged => return,
        };
        let at = rec.last_growth_epoch.saturating_add(window).max(now.saturating_add(1));
        self.due.entry(at).or_default().push(id);
    }

    /// Journals record `id`'s quiet transition, if it is due.
    fn go_quiet(&mut self, epoch: u32, id: u32, events: &mut Vec<LedgerEvent>) {
        let rec = &mut self.records[id as usize];
        if let Some(ev) = quiet_transition(rec, epoch, self.config) {
            rec.events.push(ev.clone());
            events.push(LedgerEvent { id, event: ev });
        }
        self.schedule(id, epoch);
    }

    /// The arena-independent serialized form: every domain symbol resolved
    /// to its string. Two ledgers tracking the same campaigns serialize
    /// byte-identically even when their arenas interned unrelated symbols
    /// in between (the `ingest_sym`-vs-`ingest` exactness contract).
    pub fn to_state(&self, arena: &SymbolArena) -> LedgerState {
        LedgerState {
            config: self.config,
            records: self
                .records
                .iter()
                .map(|r| RecordState {
                    id: r.id,
                    birth_epoch: r.birth_epoch,
                    last_growth_epoch: r.last_growth_epoch,
                    members: r.members,
                    domains: r.domains.iter().map(|&d| arena.resolve(d).to_string()).collect(),
                    campaign: r.campaign,
                    state: r.state,
                    events: r.events.clone(),
                })
                .collect(),
            assign: self.assign.clone(),
        }
    }

    /// Restores a ledger from [`CampaignLedger::to_state`], re-interning
    /// every domain against `arena` (the clusterer's, already restored —
    /// campaign domains are e2LDs the clusterer has interned, so this
    /// normally adds nothing). The cluster keys are not serialized, so the
    /// first observation after a restore must be a full one (every point
    /// in `moved`), as a resumed tracker's first close is.
    pub fn from_state(state: LedgerState, arena: &SharedArena) -> Self {
        let mut ledger = Self {
            config: state.config,
            records: state
                .records
                .into_iter()
                .map(|r| CampaignRecord {
                    id: r.id,
                    birth_epoch: r.birth_epoch,
                    last_growth_epoch: r.last_growth_epoch,
                    members: r.members,
                    domains: r.domains.iter().map(|d| arena.intern(d)).collect(),
                    campaign: r.campaign,
                    state: r.state,
                    events: r.events,
                })
                .collect(),
            assign: state.assign,
            sizes: Vec::new(),
            keys: Vec::new(),
            by_key: HashMap::new(),
            due: BTreeMap::new(),
            counts: (0, 0),
        };
        // Sizes and tallies are the assignment column's; keys, and with
        // them the quiet schedule, are unknown until the next observation,
        // which the tracker makes a full one (it claims every sized record).
        ledger.sizes = vec![0; ledger.records.len()];
        ledger.keys = vec![u32::MAX; ledger.records.len()];
        for &id in ledger.assign.iter().flatten() {
            if let Some(size) = ledger.sizes.get_mut(id as usize) {
                *size += 1;
            }
        }
        for (r, _) in ledger.records.iter().zip(&ledger.sizes).filter(|(_, &size)| size > 0) {
            ledger.counts.0 += 1;
            ledger.counts.1 += u32::from(r.campaign);
        }
        ledger
    }
}

/// An unchanged record's dormancy or death, when its quiet spell has
/// reached the window for its state.
fn quiet_transition(
    rec: &mut CampaignRecord,
    epoch: u32,
    config: LedgerConfig,
) -> Option<CampaignEvent> {
    let quiet = epoch - rec.last_growth_epoch;
    match rec.state {
        LifeState::Active if quiet >= config.quiet_window => {
            rec.state = LifeState::Dormant;
            Some(CampaignEvent::WentDormant { epoch })
        }
        LifeState::Dormant if quiet >= config.death_window => {
            rec.state = LifeState::Dead;
            Some(CampaignEvent::Died { epoch })
        }
        _ => None,
    }
}

/// Serialized form of one [`CampaignRecord`]: domains as strings.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordState {
    /// Stable ledger id.
    pub id: u32,
    /// Epoch the campaign was first observed.
    pub birth_epoch: u32,
    /// Last epoch the member count grew.
    pub last_growth_epoch: u32,
    /// Screenshot count at the last observation.
    pub members: u32,
    /// Distinct e2LDs at the last observation, sorted.
    pub domains: Vec<String>,
    /// Whether the domain count meets θc.
    pub campaign: bool,
    /// Current life state.
    pub state: LifeState,
    /// Full event journal.
    pub events: Vec<CampaignEvent>,
}

/// Serialized form of [`CampaignLedger`] — see
/// [`CampaignLedger::to_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerState {
    /// Dormancy thresholds.
    pub config: LedgerConfig,
    /// All records, domains resolved.
    pub records: Vec<RecordState>,
    /// Point → ledger-id assignment at the last observation.
    pub assign: Vec<Option<u32>>,
}

impl_json_struct!(LedgerConfig { quiet_window, death_window });
impl_json_enum!(LifeState { Active, Dormant, Dead, Merged, });
impl_json_enum!(CampaignEvent {
    Born { epoch: u32, members: u32, domains: u32 },
    Grew { epoch: u32, added: u32, members: u32 },
    DomainRotated { epoch: u32, domain: String },
    Promoted { epoch: u32, domains: u32 },
    Demoted { epoch: u32, domains: u32 },
    WentDormant { epoch: u32 },
    Died { epoch: u32 },
    Reactivated { epoch: u32 },
    MergedInto { epoch: u32, into: u32 },
});
impl_json_struct!(RecordState {
    id,
    birth_epoch,
    last_growth_epoch,
    members,
    domains,
    campaign,
    state,
    events
});
impl_json_struct!(LedgerState { config, records, assign });

#[cfg(test)]
mod tests {
    use super::*;

    /// One cluster of a hand-built boundary: members, weight, domains.
    type Hand<'a> = (&'a [u32], u32, &'a [&'a str]);

    /// Observes `clusters` as a full boundary over `n` points (keys are
    /// list positions, every point moved) — the offline replay's form.
    fn observe(
        ledger: &mut CampaignLedger,
        a: &mut SymbolArena,
        epoch: u32,
        clusters: &[Hand<'_>],
        n: usize,
        theta_c: usize,
    ) -> Vec<LedgerEvent> {
        let mut label = vec![None; n];
        let observed: Vec<ObservedCluster> = (0u32..)
            .zip(clusters)
            .map(|(key, &(members, weight, domains))| {
                for &u in members {
                    label[u as usize] = Some(key);
                }
                ObservedCluster {
                    key,
                    size: members.len() as u32,
                    weight,
                    domains: domains.iter().map(|d| a.intern(d)).collect(),
                }
            })
            .collect();
        let moved: Vec<u32> = (0..n as u32).collect();
        let boundary = Boundary {
            clusters: &observed,
            moved: &moved,
            absorbed: &[],
            key_of: |u: u32| label[u as usize],
            n_unique: n,
        };
        ledger.observe(epoch, &boundary, theta_c, a)
    }

    #[test]
    fn birth_growth_rotation_promotion() {
        let mut a = SymbolArena::new();
        let mut ledger = CampaignLedger::new(LedgerConfig::default());
        let ev = observe(&mut ledger, &mut a, 0, &[(&[0, 1], 3, &["a.com", "b.com"])], 2, 3);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0].event, CampaignEvent::Born { members: 3, domains: 2, .. }));
        assert!(!ledger.record(0).campaign);

        // Epoch 1: grows, rotates in a third domain, crosses θc = 3.
        let ev = observe(&mut ledger, &mut a, 1, &[(&[0, 1, 2], 5, &["a.com", "b.com", "c.com"])], 3, 3);
        let kinds: Vec<_> = ev.iter().map(|e| &e.event).collect();
        assert!(kinds.iter().any(|e| matches!(e, CampaignEvent::DomainRotated { domain, .. } if domain == "c.com")));
        assert!(kinds.iter().any(|e| matches!(e, CampaignEvent::Promoted { domains: 3, .. })));
        assert!(kinds.iter().any(|e| matches!(e, CampaignEvent::Grew { added: 2, members: 5, .. })));
        assert!(ledger.record(0).campaign);
        assert_eq!(ledger.campaigns().count(), 1);
    }

    #[test]
    fn dormancy_death_and_reactivation() {
        let config = LedgerConfig { quiet_window: 2, death_window: 4 };
        let mut a = SymbolArena::new();
        let mut ledger = CampaignLedger::new(config);
        let c: Hand<'_> = (&[0], 2, &["a.com"]);
        observe(&mut ledger, &mut a, 0, &[c], 1, 1);
        assert_eq!(ledger.record(0).state, LifeState::Active);
        observe(&mut ledger, &mut a, 1, &[c], 1, 1);
        assert_eq!(ledger.record(0).state, LifeState::Active, "quiet 1 < window 2");
        let ev = observe(&mut ledger, &mut a, 2, &[c], 1, 1);
        assert!(matches!(ev[0].event, CampaignEvent::WentDormant { epoch: 2 }));
        observe(&mut ledger, &mut a, 3, &[c], 1, 1);
        let ev = observe(&mut ledger, &mut a, 4, &[c], 1, 1);
        assert!(matches!(ev[0].event, CampaignEvent::Died { epoch: 4 }));
        assert_eq!(ledger.record(0).state, LifeState::Dead);

        let ev = observe(&mut ledger, &mut a, 5, &[(&[0, 1], 3, &["a.com"])], 2, 1);
        assert!(ev.iter().any(|e| matches!(e.event, CampaignEvent::Reactivated { epoch: 5 })));
        assert_eq!(ledger.record(0).state, LifeState::Active);
    }

    #[test]
    fn merge_keeps_smallest_id() {
        let mut a = SymbolArena::new();
        let mut ledger = CampaignLedger::new(LedgerConfig::default());
        // Two separate campaigns...
        observe(&mut ledger, &mut a, 0, &[(&[0, 1], 2, &["a.com"]), (&[2, 3], 2, &["b.com"])], 4, 1);
        assert_eq!(ledger.records().len(), 2);
        // ...that fuse into one cluster at epoch 1.
        let ev = observe(&mut ledger, &mut a, 1, &[(&[0, 1, 2, 3, 4], 5, &["a.com", "b.com"])], 5, 1);
        assert!(ev
            .iter()
            .any(|e| e.id == 1 && matches!(e.event, CampaignEvent::MergedInto { into: 0, .. })));
        assert_eq!(ledger.record(1).state, LifeState::Merged);
        assert_eq!(ledger.record(0).members, 5);
        assert_eq!(ledger.campaigns().count(), 1);
    }

    #[test]
    fn demotion_when_domains_fall_below_theta() {
        let mut a = SymbolArena::new();
        let mut ledger = CampaignLedger::new(LedgerConfig::default());
        observe(&mut ledger, &mut a, 0, &[(&[0, 1, 2], 3, &["a.com", "b.com", "c.com"])], 3, 3);
        assert!(ledger.record(0).campaign);
        // A border domain migrated away: down to 2 domains.
        let ev = observe(&mut ledger, &mut a, 1, &[(&[0, 1], 2, &["a.com", "b.com"])], 3, 3);
        assert!(ev.iter().any(|e| matches!(e.event, CampaignEvent::Demoted { domains: 2, .. })));
        assert!(!ledger.record(0).campaign);
    }

    #[test]
    fn state_roundtrip_is_arena_independent() {
        use seacma_util::json;
        let mut a = SymbolArena::new();
        // An arena with unrelated pre-existing symbols: resolved state
        // must not notice.
        a.intern("unrelated.example");
        let mut ledger = CampaignLedger::new(LedgerConfig::default());
        observe(&mut ledger, &mut a, 0, &[(&[0, 1], 3, &["a.com", "b.com"])], 2, 2);
        observe(&mut ledger, &mut a, 1, &[(&[0, 1, 2], 4, &["a.com", "b.com", "c.com"])], 3, 2);

        let text = json::to_string(&ledger.to_state(&a));
        let state: LedgerState = json::from_str(&text).expect("state parses");
        assert_eq!(json::to_string(&state), text, "re-serialization is byte-identical");

        // Restore into a *fresh* arena: records equal up to symbol values,
        // and the resolved state is byte-identical.
        let fresh = SharedArena::new();
        let back = CampaignLedger::from_state(state, &fresh);
        assert_eq!(back.records().len(), ledger.records().len());
        assert_eq!(json::to_string(&back.to_state(&fresh.read())), text);
        assert_eq!(back.assignments(), ledger.assignments());
    }
}
