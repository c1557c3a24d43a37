//! The reputation query API's answer types.
//!
//! Every answer is a pure function of one published
//! [`ReputationSnapshot`](crate::snapshot::ReputationSnapshot), and every
//! type here serializes to canonical JSON via `seacma-util` — equal answers
//! are byte-identical strings, which is how the exactness gates (the
//! property suites and the benchmark's serve workloads) compare the daemon
//! against the offline batch pipeline.

use seacma_tracker::{CampaignRecord, LifeState};
use seacma_util::sym::SymbolArena;
use seacma_util::{impl_json_enum, impl_json_struct};

/// The daemon's answer to a URL (or bare e2LD) reputation lookup.
///
/// ```
/// use seacma_daemon::UrlVerdict;
/// use seacma_tracker::LifeState;
/// use seacma_util::json;
///
/// let v = UrlVerdict::Tracked { campaign: 3, state: LifeState::Active, qualified: true };
/// assert_eq!(
///     json::to_string(&v),
///     r#"{"Tracked":{"campaign":3,"state":"Active","qualified":true}}"#,
/// );
/// assert_eq!(json::to_string(&UrlVerdict::Unknown), r#""Unknown""#);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrlVerdict {
    /// The e2LD was not part of any tracked campaign at the served epoch.
    Unknown,
    /// The e2LD belongs to a tracked campaign.
    Tracked {
        /// Stable ledger id of the campaign.
        campaign: u32,
        /// The campaign's life state at the served epoch.
        state: LifeState,
        /// Whether the campaign's domain count meets θc (a cluster below
        /// θc is tracked but not a qualified SEACMA campaign).
        qualified: bool,
    },
}

/// The nearest tracked campaign to a probe dhash, within the clustering
/// radius.
///
/// `distance` is the exact 128-bit Hamming distance to the closest
/// campaign-assigned point; ties break to the lowest point index, so the
/// answer is a pure function of the snapshot.
///
/// ```
/// use seacma_daemon::DhashMatch;
/// use seacma_tracker::LifeState;
/// use seacma_util::json;
///
/// let m = DhashMatch { campaign: 0, distance: 2, state: LifeState::Dormant, qualified: true };
/// let text = json::to_string(&m);
/// assert_eq!(json::from_str::<DhashMatch>(&text).unwrap(), m);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhashMatch {
    /// Stable ledger id of the matched campaign.
    pub campaign: u32,
    /// Hamming distance (bits) to the nearest assigned point.
    pub distance: u32,
    /// The campaign's life state at the served epoch.
    pub state: LifeState,
    /// Whether the campaign's domain count meets θc.
    pub qualified: bool,
}

/// A campaign's lifecycle summary as served by the status query — the
/// ledger's [`CampaignRecord`] minus its event journal (which grows
/// without bound and is served by the offline reports instead).
///
/// ```
/// use seacma_daemon::CampaignStatus;
/// use seacma_tracker::LifeState;
/// use seacma_util::json;
///
/// let s = CampaignStatus {
///     id: 7,
///     state: LifeState::Active,
///     qualified: true,
///     members: 41,
///     domains: vec!["evil0.club".into(), "evil1.club".into()],
///     birth_epoch: 2,
///     last_growth_epoch: 5,
/// };
/// let text = json::to_string(&s);
/// assert_eq!(json::from_str::<CampaignStatus>(&text).unwrap(), s);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Stable ledger id.
    pub id: u32,
    /// Current life state.
    pub state: LifeState,
    /// Whether the domain count meets θc.
    pub qualified: bool,
    /// Screenshot count at the last observation.
    pub members: u32,
    /// Distinct e2LDs at the last observation, sorted.
    pub domains: Vec<String>,
    /// Epoch the campaign was first observed.
    pub birth_epoch: u32,
    /// Last epoch the member count grew.
    pub last_growth_epoch: u32,
}

impl CampaignStatus {
    /// Projects a ledger record into its served status, resolving the
    /// record's domain symbols against `arena` — the one point where the
    /// serving path materializes domain strings, once per epoch close
    /// rather than once per epoch per campaign per domain.
    pub fn from_record(r: &CampaignRecord, arena: &SymbolArena) -> Self {
        Self {
            id: r.id,
            state: r.state,
            qualified: r.campaign,
            members: r.members,
            domains: r.domains.iter().map(|&d| arena.resolve(d).to_string()).collect(),
            birth_epoch: r.birth_epoch,
            last_growth_epoch: r.last_growth_epoch,
        }
    }
}

impl_json_enum!(UrlVerdict {
    Unknown,
    Tracked { campaign: u32, state: LifeState, qualified: bool },
});
impl_json_struct!(DhashMatch { campaign, distance, state, qualified });
impl_json_struct!(CampaignStatus {
    id,
    state,
    qualified,
    members,
    domains,
    birth_epoch,
    last_growth_epoch,
});
