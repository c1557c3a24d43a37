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
//! (ties to the lower cluster index), a cluster inherits the smallest id
//! that chose it, and any other claimants are recorded as merged into it.
//! Insertion-only clustering never splits a component, so the former
//! members of an id stay together and the vote is decisive.
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

use std::collections::BTreeMap;

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
    /// Unique-point indices of the cluster's members, ascending.
    pub members: Vec<u32>,
    /// Total screenshots (original multiplicity) across members.
    pub weight: u32,
    /// Distinct e2LD symbols, sorted by resolved string.
    pub domains: Vec<Sym>,
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
}

impl CampaignLedger {
    /// An empty ledger.
    pub fn new(config: LedgerConfig) -> Self {
        Self { config, records: Vec::new(), assign: Vec::new() }
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

    /// Closes an epoch: re-identifies `clusters` against the previous
    /// observation, journals every life event, and returns the events in
    /// deterministic order (cluster index order, merges before updates).
    ///
    /// `n_unique` is the clusterer's current unique-point count (members
    /// index into it); `theta_c` the campaign domain threshold; `arena`
    /// resolves the clusters' domain symbols — touched only when a
    /// rotation event needs its domain string, never on the steady path.
    pub fn observe(
        &mut self,
        epoch: u32,
        clusters: &[ObservedCluster],
        n_unique: usize,
        theta_c: usize,
        arena: &SymbolArena,
    ) -> Vec<LedgerEvent> {
        // Vote: each previously-known id backs the current cluster holding
        // most of its former members (ties to the lower cluster index).
        let mut votes: BTreeMap<u32, BTreeMap<usize, u32>> = BTreeMap::new();
        for (ci, c) in clusters.iter().enumerate() {
            for &u in &c.members {
                if let Some(p) = self.assign.get(u as usize).copied().flatten() {
                    *votes.entry(p).or_default().entry(ci).or_default() += 1;
                }
            }
        }
        // Claimant ids per cluster, ascending (BTreeMap iteration order).
        let mut claimants: Vec<Vec<u32>> = vec![Vec::new(); clusters.len()];
        for (&p, per_cluster) in &votes {
            let (&best_ci, _) = per_cluster
                .iter()
                .max_by_key(|&(&ci, &v)| (v, std::cmp::Reverse(ci)))
                .expect("id voted, so it has at least one cluster");
            claimants[best_ci].push(p);
        }

        let mut events: Vec<LedgerEvent> = Vec::new();
        let mut new_assign: Vec<Option<u32>> = vec![None; n_unique];
        for (ci, c) in clusters.iter().enumerate() {
            let id = match claimants[ci].first().copied() {
                Some(keep) => {
                    for &gone in &claimants[ci][1..] {
                        let ev = CampaignEvent::MergedInto { epoch, into: keep };
                        let rec = &mut self.records[gone as usize];
                        rec.state = LifeState::Merged;
                        rec.events.push(ev.clone());
                        events.push(LedgerEvent { id: gone, event: ev });
                    }
                    keep
                }
                None => {
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
                    events.push(LedgerEvent { id, event: ev });
                    for &u in &c.members {
                        new_assign[u as usize] = Some(id);
                    }
                    continue;
                }
            };

            let mut emitted: Vec<CampaignEvent> = Vec::new();
            let rec = &mut self.records[id as usize];
            // Linear scan, not binary search: symbols are sorted by their
            // *resolved* string, which `Sym` ordering does not reflect.
            // Domain lists are small (θc-scale), and symbol equality is an
            // integer compare — no strings materialize here.
            for &d in &c.domains {
                if !rec.domains.contains(&d) {
                    emitted.push(CampaignEvent::DomainRotated {
                        epoch,
                        domain: arena.resolve(d).to_string(),
                    });
                }
            }
            let qualifies = c.domains.len() >= theta_c;
            if qualifies && !rec.campaign {
                emitted.push(CampaignEvent::Promoted { epoch, domains: c.domains.len() as u32 });
            } else if !qualifies && rec.campaign {
                emitted.push(CampaignEvent::Demoted { epoch, domains: c.domains.len() as u32 });
            }
            if c.weight > rec.members {
                emitted.push(CampaignEvent::Grew {
                    epoch,
                    added: c.weight - rec.members,
                    members: c.weight,
                });
                if rec.state != LifeState::Active {
                    emitted.push(CampaignEvent::Reactivated { epoch });
                    rec.state = LifeState::Active;
                }
                rec.last_growth_epoch = epoch;
            } else {
                let quiet = epoch - rec.last_growth_epoch;
                match rec.state {
                    LifeState::Active if quiet >= self.config.quiet_window => {
                        emitted.push(CampaignEvent::WentDormant { epoch });
                        rec.state = LifeState::Dormant;
                    }
                    LifeState::Dormant if quiet >= self.config.death_window => {
                        emitted.push(CampaignEvent::Died { epoch });
                        rec.state = LifeState::Dead;
                    }
                    _ => {}
                }
            }
            rec.members = c.weight;
            rec.domains = c.domains.clone();
            rec.campaign = qualifies;
            for ev in emitted {
                rec.events.push(ev.clone());
                events.push(LedgerEvent { id, event: ev });
            }
            for &u in &c.members {
                new_assign[u as usize] = Some(id);
            }
        }
        self.assign = new_assign;
        events
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
    /// normally adds nothing).
    pub fn from_state(state: LedgerState, arena: &SharedArena) -> Self {
        Self {
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
        }
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

    fn obs(arena: &mut SymbolArena, members: &[u32], weight: u32, domains: &[&str]) -> ObservedCluster {
        ObservedCluster {
            members: members.to_vec(),
            weight,
            domains: domains.iter().map(|d| arena.intern(d)).collect(),
        }
    }

    #[test]
    fn birth_growth_rotation_promotion() {
        let mut a = SymbolArena::new();
        let mut ledger = CampaignLedger::new(LedgerConfig::default());
        let ev = ledger.observe(0, &[obs(&mut a, &[0, 1], 3, &["a.com", "b.com"])], 2, 3, &a);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0].event, CampaignEvent::Born { members: 3, domains: 2, .. }));
        assert!(!ledger.record(0).campaign);

        // Epoch 1: grows, rotates in a third domain, crosses θc = 3.
        let ev = {
            let c = obs(&mut a, &[0, 1, 2], 5, &["a.com", "b.com", "c.com"]);
            ledger.observe(1, &[c], 3, 3, &a)
        };
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
        let c = obs(&mut a, &[0], 2, &["a.com"]);
        ledger.observe(0, std::slice::from_ref(&c), 1, 1, &a);
        assert_eq!(ledger.record(0).state, LifeState::Active);
        ledger.observe(1, std::slice::from_ref(&c), 1, 1, &a);
        assert_eq!(ledger.record(0).state, LifeState::Active, "quiet 1 < window 2");
        let ev = ledger.observe(2, std::slice::from_ref(&c), 1, 1, &a);
        assert!(matches!(ev[0].event, CampaignEvent::WentDormant { epoch: 2 }));
        ledger.observe(3, std::slice::from_ref(&c), 1, 1, &a);
        let ev = ledger.observe(4, std::slice::from_ref(&c), 1, 1, &a);
        assert!(matches!(ev[0].event, CampaignEvent::Died { epoch: 4 }));
        assert_eq!(ledger.record(0).state, LifeState::Dead);

        let ev = {
            let c = obs(&mut a, &[0, 1], 3, &["a.com"]);
            ledger.observe(5, &[c], 2, 1, &a)
        };
        assert!(ev.iter().any(|e| matches!(e.event, CampaignEvent::Reactivated { epoch: 5 })));
        assert_eq!(ledger.record(0).state, LifeState::Active);
    }

    #[test]
    fn merge_keeps_smallest_id() {
        let mut a = SymbolArena::new();
        let mut ledger = CampaignLedger::new(LedgerConfig::default());
        // Two separate campaigns...
        let (c0, c1) = (obs(&mut a, &[0, 1], 2, &["a.com"]), obs(&mut a, &[2, 3], 2, &["b.com"]));
        ledger.observe(0, &[c0, c1], 4, 1, &a);
        assert_eq!(ledger.records().len(), 2);
        // ...that fuse into one cluster at epoch 1.
        let ev = {
            let c = obs(&mut a, &[0, 1, 2, 3, 4], 5, &["a.com", "b.com"]);
            ledger.observe(1, &[c], 5, 1, &a)
        };
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
        let c = obs(&mut a, &[0, 1, 2], 3, &["a.com", "b.com", "c.com"]);
        ledger.observe(0, &[c], 3, 3, &a);
        assert!(ledger.record(0).campaign);
        // A border domain migrated away: down to 2 domains.
        let ev = {
            let c = obs(&mut a, &[0, 1], 2, &["a.com", "b.com"]);
            ledger.observe(1, &[c], 3, 3, &a)
        };
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
        let c = obs(&mut a, &[0, 1], 3, &["a.com", "b.com"]);
        ledger.observe(0, &[c], 2, 2, &a);
        let c = obs(&mut a, &[0, 1, 2], 4, &["a.com", "b.com", "c.com"]);
        ledger.observe(1, &[c], 3, 2, &a);

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
