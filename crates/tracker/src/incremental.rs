//! Exact incremental DBSCAN over the banded Hamming index.
//!
//! The batch pipeline (`seacma-vision::cluster`) re-clusters the whole
//! corpus on every run; this module maintains DBSCAN labels *online*, one
//! screenshot at a time, with one region query per unique point plus one
//! per point it tips over the `min_pts` threshold — and the labels are
//! **byte-identical** to a batch
//! [`cluster_screenshots`](seacma_vision::cluster::cluster_screenshots)
//! over the same prefix, at every prefix.
//!
//! # Why exactness is possible
//!
//! DBSCAN's scan order looks load-bearing but is not. The labels produced
//! by [`dbscan_with`](seacma_vision::dbscan::dbscan_with) have an
//! order-independent characterization (argued in DESIGN.md §2e):
//!
//! 1. a point is **core** iff its radius neighbourhood (including itself)
//!    has at least `min_pts` points;
//! 2. clusters are the connected components of core points under radius
//!    adjacency, and cluster ids are assigned in ascending order of each
//!    component's **minimal core index**;
//! 3. a non-core point with core neighbours is a **border** and joins the
//!    adjacent cluster with the smallest id; everything else is noise.
//!
//! So it suffices to maintain, under insertion: per-point neighbour counts
//! (for 1), a union-find over core points whose root is the component's
//! minimal core index (for 2), and each **non-core** point's list of core
//! neighbours (for 3 — a core point's label never reads its list, so none
//! is kept: a non-core point has fewer than `min_pts` neighbours counting
//! itself, which bounds every list at `min_pts − 2` entries). Insertion
//! only ever *adds* neighbours, so a point crosses the `min_pts` threshold
//! at most once — when it does, its list is freed and one region query
//! (the new point's own, when it is the new point that is born core)
//! wires the new core into the union-find and into its non-core
//! neighbours' lists. Components only merge, never split; borders can
//! still *move* to an older cluster (and campaign domain counts can
//! therefore shrink — θc demotion is real, see the ledger).
//!
//! # Epoch close: only what the epoch touched
//!
//! An epoch close needs each *changed* cluster's size, weight and sorted
//! domain list, not the labels of every point. So the clusterer keeps, per
//! component root, an aggregate (unique size, weight, e2LD multiset in
//! resolved-string order) that unions merge small-into-large, plus a log
//! of what the open epoch changed: new points, the point a duplicate lands
//! on, points crossing `min_pts`, and non-core points that gained a core
//! neighbour are *touched*. The only points that can change cluster
//! without being touched are **ambiguous** borders — non-core points whose
//! core neighbours span two or more components: border `x`, adjacent to
//! components B and C, is labelled C because `rc < rb`; a new core that
//! unions B into A with `ra < rc` moves `x` to A∪B though nothing adjacent
//! to C was touched. [`IncrementalClusterer::settle`] places the touched
//! and ambiguous points again (each point's `home` core says where it is
//! counted), moves a migrated point's counts from the old cluster to the
//! new, and reports both, plus the roots unions absorbed — the ledger's
//! [`Boundary`](crate::ledger::Boundary). Placements are not serialized:
//! a resumed clusterer touches every point, so its first close is full.
//!
//! # Storage: struct-of-arrays over a symbol arena
//!
//! Unique points are not stored as `ScreenshotPoint` structs. The dhash
//! column lives inside the [`HammingIndex`] (one contiguous `u128` slice,
//! scanned directly by band probes), e2LDs are a parallel [`Sym`] column
//! into a shared [`SymbolArena`], and the
//! DBSCAN bookkeeping (neighbour counts, core flags, union-find parents)
//! are parallel `u32`/`bool` columns. The dedup key is `(u128, Sym)` —
//! no string hashing or cloning on the hot insert path. Exactness is
//! unaffected: symbols are in bijection with their strings within one
//! arena, so `(dhash, Sym)` dedup keeps exactly the pairs `(dhash, e2LD)`
//! dedup keeps, and every observable output resolves symbols back to
//! strings before leaving the crate.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use seacma_util::impl_json_struct;
use seacma_util::json::JsonError;
use seacma_util::sym::{SharedArena, Sym, SymbolArena};
use seacma_vision::cluster::{
    assemble_clusters, ClusterParams, ScreenshotClusters, ScreenshotPoint,
};
use seacma_vision::dbscan::Label;
use seacma_vision::dhash::Dhash;
use seacma_vision::index::HammingIndex;

use crate::ledger::ObservedCluster;

/// Streaming DBSCAN over `(dhash, e2LD)` screenshot points.
///
/// Duplicate pairs are deduplicated exactly as in the batch path: the
/// first occurrence becomes a *unique point* (the clustering domain), and
/// repeats only extend its original-index multiplicity.
#[derive(Debug, Clone)]
pub struct IncrementalClusterer {
    params: ClusterParams,
    /// The arena every e2LD symbol in `e2lds` resolves against. Shared:
    /// the pipeline hands its world arena in via
    /// [`IncrementalClusterer::with_arena`] so crawl records feed the
    /// clusterer without re-interning strings.
    arena: SharedArena,
    /// Owns the contiguous dhash column (see [`HammingIndex::hashes`]).
    index: HammingIndex,
    /// e2LD symbol per unique point — parallel to the index's hash column.
    e2lds: Vec<Sym>,
    /// Original (pre-dedup) indices carried by each unique point, ascending.
    originals: Vec<Vec<u32>>,
    /// `(dhash bits, e2LD symbol) → unique index` dedup map.
    pair_index: HashMap<(u128, Sym), u32>,
    n_original: u32,
    /// `min(|N(u)|, min_pts)` per unique point, counting `u` itself: the
    /// count only decides the core transition, so it stops at the
    /// threshold and a core point is never written again.
    neighbor_count: Vec<u32>,
    core: Vec<bool>,
    /// Union-find parents over unique points; unions happen only between
    /// core points, and roots are always the minimal index of their set.
    parent: Vec<u32>,
    /// Core points adjacent to each **non-core** unique point (at most
    /// `min_pts − 2` of them); empty for core points. Each `(border, core)`
    /// pair is recorded exactly once: at the border's insertion if the
    /// neighbour is already core, or at the neighbour's core transition.
    core_neighbors: Vec<Vec<u32>>,
    scratch: Vec<usize>,
    scratch2: Vec<usize>,
    /// Threshold crossings of the insert in progress (reused scratch).
    newly_core: Vec<u32>,
    /// Per point: a core point of the cluster the point is counted in at
    /// the last [`IncrementalClusterer::settle`] (the point itself when it
    /// is core), or [`UNPLACED`]. Components only merge, so `find` of it
    /// stays the point's cluster until the point itself migrates.
    home: Vec<u32>,
    /// Size, weight and e2LD multiset of each cluster, keyed by component
    /// root; merged on union, adjusted at settle.
    aggs: HashMap<u32, Aggregate>,
    /// Points whose cluster or weight may have changed since the last
    /// settle: new points, duplicate targets, threshold crossings, and
    /// non-core points that gained a core neighbour.
    touched: Vec<u32>,
    /// Membership bits of `touched`, so each point is listed once.
    touched_bits: Vec<u64>,
    /// Non-core points whose core neighbours spanned two or more
    /// components at the last settle — the only points a union elsewhere
    /// can move without touching them.
    ambiguous: Vec<u32>,
    /// Roots a union has hung under another root since the last settle.
    absorbed: Vec<u32>,
}

/// `home` of a point counted in no cluster (noise, or not yet settled).
const UNPLACED: u32 = u32::MAX;

/// One cluster's running totals.
#[derive(Debug, Clone, Default)]
struct Aggregate {
    /// Unique points counted in the cluster.
    size: u32,
    /// Their original multiplicity.
    weight: u32,
    /// e2LD multiset: `(symbol, member count)`, sorted by resolved string,
    /// so a settle reports a cluster's domain list without sorting it.
    domains: Vec<(Sym, u32)>,
    /// Listed among the settle in progress's changed clusters.
    dirty: bool,
}

impl Aggregate {
    /// Adds (`add`) or retracts one member with e2LD `domain` and
    /// multiplicity `weight`.
    fn count(&mut self, domain: Sym, weight: u32, add: bool, arena: &SymbolArena) {
        if add {
            self.size += 1;
            self.weight += weight;
            self.add_domain(domain, 1, arena);
        } else {
            self.size -= 1;
            self.weight -= weight;
            if let Some(i) = self.domains.iter().position(|&(d, _)| d == domain) {
                self.domains[i].1 -= 1;
                if self.domains[i].1 == 0 {
                    self.domains.remove(i);
                }
            }
        }
    }

    /// Counts `n` more members with e2LD `domain`. Symbols are found by
    /// integer compare; only a domain new to the cluster resolves strings,
    /// to find its place.
    fn add_domain(&mut self, domain: Sym, n: u32, arena: &SymbolArena) {
        match self.domains.iter().position(|&(d, _)| d == domain) {
            Some(i) => self.domains[i].1 += n,
            None => {
                let name = arena.resolve(domain);
                let i = self.domains.partition_point(|&(d, _)| arena.resolve(d) < name);
                self.domains.insert(i, (domain, n));
            }
        }
    }

    /// Folds `other` in, the smaller domain list into the larger.
    fn absorb(&mut self, mut other: Aggregate, arena: &SymbolArena) {
        if self.domains.len() < other.domains.len() {
            std::mem::swap(&mut self.domains, &mut other.domains);
        }
        self.size += other.size;
        self.weight += other.weight;
        for (d, n) in other.domains {
            self.add_domain(d, n, arena);
        }
    }
}

/// What changed since the previous settle (see
/// [`IncrementalClusterer::settle`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Settled {
    /// Every cluster whose member set, weight or domain set may have
    /// changed, ascending by key (the component's minimal core index).
    pub clusters: Vec<ObservedCluster>,
    /// Every point that may have joined, left or changed cluster.
    pub moved: Vec<u32>,
    /// Former cluster keys whose components a union has merged into
    /// another since the previous settle.
    pub absorbed: Vec<u32>,
}

impl IncrementalClusterer {
    /// An empty clusterer with its own private symbol arena.
    pub fn new(params: ClusterParams) -> Self {
        Self::with_arena(params, SharedArena::new())
    }

    /// An empty clusterer interning e2LDs into `arena` — the pipeline
    /// passes its world-level arena so crawl-record symbols can be
    /// ingested directly via [`IncrementalClusterer::insert_sym`].
    pub fn with_arena(params: ClusterParams, arena: SharedArena) -> Self {
        Self {
            params,
            arena,
            index: HammingIndex::build(&[], params.eps),
            e2lds: Vec::new(),
            originals: Vec::new(),
            pair_index: HashMap::new(),
            n_original: 0,
            neighbor_count: Vec::new(),
            core: Vec::new(),
            parent: Vec::new(),
            core_neighbors: Vec::new(),
            scratch: Vec::new(),
            scratch2: Vec::new(),
            newly_core: Vec::new(),
            home: Vec::new(),
            aggs: HashMap::new(),
            touched: Vec::new(),
            touched_bits: Vec::new(),
            ambiguous: Vec::new(),
            absorbed: Vec::new(),
        }
    }

    /// The clustering parameters.
    pub fn params(&self) -> ClusterParams {
        self.params
    }

    /// The arena this clusterer's e2LD symbols resolve against.
    pub fn arena(&self) -> &SharedArena {
        &self.arena
    }

    /// Number of original (pre-dedup) points ingested.
    pub fn len(&self) -> usize {
        self.n_original as usize
    }

    /// Whether nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.n_original == 0
    }

    /// Number of distinct `(dhash, e2LD)` pairs seen.
    pub fn unique_len(&self) -> usize {
        self.e2lds.len()
    }

    /// The unique points in arrival order, materialized from the dhash and
    /// e2LD-symbol columns. Hot paths should prefer the columns themselves
    /// ([`IncrementalClusterer::dhashes`] /
    /// [`IncrementalClusterer::e2ld_syms`]).
    pub fn unique_points(&self) -> Vec<ScreenshotPoint> {
        let arena = self.arena.read();
        self.index
            .hashes()
            .iter()
            .zip(&self.e2lds)
            .map(|(&d, &s)| ScreenshotPoint::new(d, arena.resolve(s)))
            .collect()
    }

    /// The contiguous dhash column, one entry per unique point.
    pub fn dhashes(&self) -> &[Dhash] {
        self.index.hashes()
    }

    /// The e2LD symbol column, parallel to
    /// [`IncrementalClusterer::dhashes`]; resolve via
    /// [`IncrementalClusterer::arena`].
    pub fn e2ld_syms(&self) -> &[Sym] {
        &self.e2lds
    }

    /// Original indices carried by each unique point.
    pub fn originals(&self) -> &[Vec<u32>] {
        &self.originals
    }

    /// Ingests one point given by reference, avoiding the caller-side
    /// `ScreenshotPoint` construction. Returns the new unique-point index
    /// when the pair was never seen before.
    pub fn insert_ref(&mut self, dhash: Dhash, e2ld: &str) -> Option<usize> {
        let sym = self.arena.intern(e2ld);
        self.insert_sym(dhash, sym)
    }

    /// Ingests one point given as a pre-interned symbol — the zero-string
    /// hot path. `e2ld` **must** come from this clusterer's arena
    /// ([`IncrementalClusterer::arena`]); symbols don't travel between
    /// arenas. Returns the new unique-point index when the `(dhash, e2LD)`
    /// pair was never seen before (`None` for an exact duplicate).
    ///
    /// Updates neighbour counts, core transitions and core-component
    /// connectivity. Cost: one region query for the new point plus one for
    /// each *other* point it tips over the `min_pts` threshold (each point
    /// transitions at most once, ever); no allocation beyond list and
    /// bucket growth.
    pub fn insert_sym(&mut self, dhash: Dhash, e2ld: Sym) -> Option<usize> {
        let orig = self.n_original;
        self.n_original += 1;
        match self.pair_index.entry((dhash.0, e2ld)) {
            Entry::Occupied(e) => {
                // Exact duplicate pair: multiplicity only, no new unique
                // point — identical to the batch dedup.
                let u = *e.get();
                self.originals[u as usize].push(orig);
                let home = self.home[u as usize];
                if home != UNPLACED {
                    let root = find(&mut self.parent, home);
                    if let Some(agg) = self.aggs.get_mut(&root) {
                        agg.weight += 1;
                    }
                }
                self.touch(u);
                return None;
            }
            Entry::Vacant(e) => {
                e.insert(self.e2lds.len() as u32);
            }
        }

        let min_pts = self.params.min_pts;
        let u = self.index.insert(dhash);
        debug_assert_eq!(u, self.e2lds.len());
        self.e2lds.push(e2ld);
        self.originals.push(vec![orig]);
        self.parent.push(u as u32);
        self.core_neighbors.push(Vec::new());
        self.home.push(UNPLACED);
        self.touch(u as u32);

        let mut nb = std::mem::take(&mut self.scratch);
        self.index.neighbours_into(u, &mut nb);
        let born_core = nb.len() >= min_pts;
        self.neighbor_count.push(nb.len().min(min_pts) as u32);
        self.core.push(false);

        // Phase 1: bump the non-core neighbours' counts and collect
        // threshold crossings. A crossing happens exactly when the count
        // *reaches* min_pts, so each point appears in `newly_core` at most
        // once over its life. Core neighbours are only read: their count
        // already sits at the threshold, and `u` lists them only if it is
        // not core itself.
        let mut newly_core = std::mem::take(&mut self.newly_core);
        newly_core.clear();
        if born_core {
            newly_core.push(u as u32);
        }
        for &q in nb.iter().filter(|&&q| q != u) {
            if self.core[q] {
                if !born_core {
                    self.core_neighbors[u].push(q as u32);
                }
            } else {
                self.neighbor_count[q] += 1;
                if self.neighbor_count[q] as usize >= min_pts {
                    newly_core.push(q as u32);
                }
            }
        }

        // Phase 2: mark all crossings first (so mutual unions between two
        // simultaneously-crossing cores are seen) and free their lists —
        // `Vec::new()`, not `clear()`: a core point never reads its list
        // again — then wire each new core into its neighbourhood: union
        // with the cores, get listed by the borders. `u`'s region is the
        // one already in `nb` (nothing was inserted since); every other
        // crossing costs one region query.
        for &c in &newly_core {
            self.core[c as usize] = true;
            self.core_neighbors[c as usize] = Vec::new();
            self.touch(c);
        }
        let mut nb2 = std::mem::take(&mut self.scratch2);
        for &c in &newly_core {
            let region = if c as usize == u {
                &nb
            } else {
                self.index.neighbours_into(c as usize, &mut nb2);
                &nb2
            };
            for &r in region.iter().filter(|&&r| r != c as usize) {
                if self.core[r] {
                    self.union(c, r as u32);
                } else {
                    self.core_neighbors[r].push(c);
                    self.touch(r as u32);
                }
            }
        }
        self.scratch = nb;
        self.scratch2 = nb2;
        self.newly_core = newly_core;
        Some(u)
    }

    /// Current DBSCAN labels over the unique points — byte-identical to
    /// `dbscan_with` run from scratch over the same points in the same
    /// order. The sweep reads only the bookkeeping columns (core flags,
    /// union-find parents, core-neighbour lists) — contiguous scans, no
    /// point structs.
    pub fn labels(&self) -> Vec<Label> {
        let n = self.e2lds.len();
        const NOISE: u32 = u32::MAX;
        // Component root per point (the component's minimal core index).
        let mut comp: Vec<u32> = vec![NOISE; n];
        for u in 0..n {
            if self.core[u] {
                comp[u] = find_ro(&self.parent, u as u32);
            } else {
                // Border rule: the smallest root among adjacent cores is
                // the earliest-formed cluster — the one whose expansion
                // claims the border first in the batch sweep.
                for &q in &self.core_neighbors[u] {
                    comp[u] = comp[u].min(find_ro(&self.parent, q));
                }
            }
        }
        // Batch cluster ids ascend with the component's minimal core
        // index, so ranking the distinct roots reproduces them exactly.
        let mut rank: Vec<u32> = vec![NOISE; n];
        for &r in comp.iter().filter(|&&r| r != NOISE) {
            rank[r as usize] = 0;
        }
        for (id, r) in rank.iter_mut().filter(|r| **r == 0).enumerate() {
            *r = id as u32;
        }
        comp.iter()
            .map(|&r| match rank.get(r as usize) {
                Some(&id) => Label::Cluster(id as usize),
                None => Label::Noise,
            })
            .collect()
    }

    /// Brings the per-cluster totals up to date with everything inserted
    /// since the last call, and reports what changed — the input an
    /// epoch close hands the ledger ([`Boundary`](crate::ledger::Boundary)).
    ///
    /// Only the touched points and the ambiguous borders are placed again
    /// (core: its own component; border: the adjacent component with the
    /// smallest root). A point whose cluster changed is retracted from the
    /// old totals and added to the new, and both clusters are reported; a
    /// touched point reports its cluster even when it stayed. Every other
    /// point's cluster is the component its `home` core sits in, which
    /// unions keep current. Cost: the touched and ambiguous points, plus a
    /// copy of each reported cluster's domain list (kept string-sorted, so
    /// it is its distinct e2LDs, not its members). After a resume every
    /// point is touched, so the first settle is a full one.
    pub fn settle(&mut self) -> Settled {
        let touched = std::mem::take(&mut self.touched);
        let ambiguous = std::mem::take(&mut self.ambiguous);
        let todo: Vec<(u32, bool)> = touched
            .iter()
            .map(|&u| (u, true))
            .chain(ambiguous.into_iter().filter(|&u| !self.is_touched(u)).map(|u| (u, false)))
            .collect();
        for u in touched {
            self.touched_bits[u as usize / 64] &= !(1 << (u % 64));
        }

        let mut dirty: Vec<u32> = Vec::new();
        let mut moved: Vec<u32> = Vec::new();
        let arena = self.arena.clone();
        let arena = arena.read();
        for (u, touched) in todo {
            let was = match self.home[u as usize] {
                UNPLACED => None,
                home => Some(find(&mut self.parent, home)),
            };
            let (home, ambiguous) = self.place(u);
            let now = (home != UNPLACED).then(|| find(&mut self.parent, home));
            self.home[u as usize] = home;
            if ambiguous {
                self.ambiguous.push(u);
            }
            if was == now && !touched {
                continue;
            }
            let (domain, weight) = (self.e2lds[u as usize], self.originals[u as usize].len());
            for (root, add) in was.map(|r| (r, false)).into_iter().chain(now.map(|r| (r, true))) {
                let agg = self.aggs.entry(root).or_default();
                if !agg.dirty {
                    agg.dirty = true;
                    dirty.push(root);
                }
                if was != now {
                    agg.count(domain, weight as u32, add, &arena);
                }
            }
            moved.push(u);
        }
        dirty.sort_unstable();

        let clusters = dirty
            .iter()
            .filter_map(|key| {
                let agg = self.aggs.get_mut(key)?;
                agg.dirty = false;
                let domains = agg.domains.iter().map(|&(d, _)| d).collect();
                (agg.size > 0).then(|| ObservedCluster {
                    key: *key,
                    size: agg.size,
                    weight: agg.weight,
                    domains,
                })
            })
            .collect();
        Settled { clusters, moved, absorbed: std::mem::take(&mut self.absorbed) }
    }

    /// Logs `u` as touched, once.
    fn touch(&mut self, u: u32) {
        let (word, bit) = (u as usize / 64, 1u64 << (u % 64));
        if word >= self.touched_bits.len() {
            self.touched_bits.resize(word + 1, 0);
        }
        if self.touched_bits[word] & bit == 0 {
            self.touched_bits[word] |= bit;
            self.touched.push(u);
        }
    }

    /// Whether `u` is logged as touched.
    fn is_touched(&self, u: u32) -> bool {
        self.touched_bits.get(u as usize / 64).is_some_and(|w| w & (1 << (u % 64)) != 0)
    }

    /// The current cluster key (component root) of point `u`, as of the
    /// last [`IncrementalClusterer::settle`]; `None` for noise.
    pub fn key_of(&self, u: u32) -> Option<u32> {
        match self.home.get(u as usize) {
            Some(&home) if home != UNPLACED => Some(find_ro(&self.parent, home)),
            _ => None,
        }
    }

    /// Where `u` belongs now: itself if core, else the core neighbour with
    /// the smallest root ([`UNPLACED`] if none) — plus whether its core
    /// neighbours span more than one component.
    fn place(&mut self, u: u32) -> (u32, bool) {
        if self.core[u as usize] {
            return (u, false);
        }
        let (mut best, mut best_root, mut ambiguous) = (UNPLACED, UNPLACED, false);
        for &q in &self.core_neighbors[u as usize] {
            let root = find(&mut self.parent, q);
            ambiguous |= best_root != UNPLACED && root != best_root;
            if root < best_root {
                (best, best_root) = (q, root);
            }
        }
        (best, ambiguous)
    }

    /// Union by minimal root (the surviving root is the smaller index,
    /// which keeps a set's root its minimal element); the two clusters'
    /// totals merge under it.
    fn union(&mut self, a: u32, b: u32) {
        let ra = find(&mut self.parent, a);
        let rb = find(&mut self.parent, b);
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        self.absorbed.push(hi);
        if let Some(gone) = self.aggs.remove(&hi) {
            match self.aggs.entry(lo) {
                Entry::Occupied(mut e) => e.get_mut().absorb(gone, &self.arena.read()),
                Entry::Vacant(e) => {
                    e.insert(gone);
                }
            }
        }
    }

    /// Assembles the current clusters — structurally identical to
    /// [`cluster_screenshots`](seacma_vision::cluster::cluster_screenshots)
    /// over the ingested prefix.
    pub fn clusters(&self) -> ScreenshotClusters {
        let arena = self.arena.read();
        let view: Vec<_> = self
            .index
            .hashes()
            .iter()
            .zip(&self.e2lds)
            .map(|(&d, &s)| (d, arena.resolve(s)))
            .collect();
        assemble_clusters(&view, &self.originals, &self.labels(), self.params.theta_c)
    }

    /// Canonical serializable snapshot. Union-find parents are fully
    /// collapsed to their roots so the snapshot is a pure function of the
    /// ingested sequence, independent of interior path-compression state.
    /// Symbols are resolved to strings on the way out, so the snapshot is
    /// **arena-independent**: two clusterers fed the same points produce
    /// byte-identical states even if their (possibly shared) arenas hold
    /// different surrounding content.
    pub fn to_state(&self) -> ClustererState {
        let parent: Vec<u32> =
            (0..self.parent.len() as u32).map(|u| find_ro(&self.parent, u)).collect();
        ClustererState {
            params: self.params,
            points: self.unique_points(),
            originals: self.originals.clone(),
            n_original: self.n_original,
            neighbor_count: self.neighbor_count.clone(),
            core: self.core.clone(),
            parent,
            core_neighbors: self.core_neighbors.clone(),
        }
    }

    /// Rebuilds a clusterer from a snapshot. The Hamming index and dedup
    /// map are reconstructed from the stored points (index construction is
    /// deterministic and equals repeated insertion), and the e2LDs are
    /// re-interned into a fresh arena in unique-point order — which is
    /// exactly each string's first-seen order in the original ingestion
    /// sequence (a string's first occurrence is always a new unique pair),
    /// so the resumed arena matches a never-snapshotted private arena
    /// symbol for symbol. Resuming is byte-identical to never having
    /// snapshotted.
    ///
    /// The state is outside input: every column is checked against the
    /// invariants the label sweep and the insert path index by (column
    /// lengths, parents that are roots, in-range core neighbours,
    /// `core ⇔ count ≥ min_pts`, ascending and disjoint originals, no
    /// `(dhash, e2LD)` pair listed twice) before anything is returned, so
    /// a corrupt snapshot is an `Err` here, never a later panic or a
    /// silently frozen multiplicity.
    /// Snapshots written before the border-only bookkeeping carry full
    /// neighbour counts and core-neighbour lists on core points too; both
    /// are normalised (counts clamped to `min_pts`, core points' lists
    /// dropped), so resuming one continues byte-identically to a run that
    /// never snapshotted.
    pub fn from_state(mut state: ClustererState) -> Result<Self, JsonError> {
        state.validate()?;
        let min_pts = state.params.min_pts as u32;
        for (u, &is_core) in state.core.iter().enumerate() {
            if is_core {
                state.neighbor_count[u] = min_pts;
                state.core_neighbors[u] = Vec::new();
            }
        }
        let hashes: Vec<_> = state.points.iter().map(|p| p.dhash).collect();
        let index = HammingIndex::build(&hashes, state.params.eps);
        let arena = SharedArena::new();
        let mut e2lds = Vec::with_capacity(state.points.len());
        let mut pair_index = HashMap::with_capacity(state.points.len());
        for (u, p) in state.points.iter().enumerate() {
            let sym = arena.intern(&p.e2ld);
            e2lds.push(sym);
            if let Some(first) = pair_index.insert((p.dhash.0, sym), u as u32) {
                // Two slots for one pair: every later duplicate would land
                // in the second and the first's multiplicity would freeze.
                return Err(JsonError::msg(format!(
                    "clusterer points {first} and {u} are the same (dhash, e2LD) pair"
                )));
            }
        }
        let n = e2lds.len() as u32;
        let mut clusterer = Self {
            params: state.params,
            arena,
            index,
            e2lds,
            originals: state.originals,
            pair_index,
            n_original: state.n_original,
            neighbor_count: state.neighbor_count,
            core: state.core,
            parent: state.parent,
            core_neighbors: state.core_neighbors,
            scratch: Vec::new(),
            scratch2: Vec::new(),
            newly_core: Vec::new(),
            // Placements are not serialized: every point is touched, so
            // the first settle rebuilds them and reports every cluster.
            home: vec![UNPLACED; n as usize],
            aggs: HashMap::new(),
            touched: Vec::new(),
            touched_bits: Vec::new(),
            ambiguous: Vec::new(),
            absorbed: Vec::new(),
        };
        for u in 0..n {
            clusterer.touch(u);
        }
        Ok(clusterer)
    }
}

/// Serializable snapshot of an [`IncrementalClusterer`] (see
/// [`IncrementalClusterer::to_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClustererState {
    /// Clustering parameters.
    pub params: ClusterParams,
    /// Unique points in arrival order.
    pub points: Vec<ScreenshotPoint>,
    /// Original indices per unique point.
    pub originals: Vec<Vec<u32>>,
    /// Total original points ingested.
    pub n_original: u32,
    /// Neighbourhood sizes per unique point, capped at `min_pts`.
    pub neighbor_count: Vec<u32>,
    /// Core flags per unique point.
    pub core: Vec<bool>,
    /// Canonicalized union-find parents (`parent[u]` = component root).
    pub parent: Vec<u32>,
    /// Core neighbours per non-core point, in recording order; `[]` for
    /// core points.
    pub core_neighbors: Vec<Vec<u32>>,
}

impl ClustererState {
    /// Checks the cross-column invariants [`IncrementalClusterer`] indexes
    /// by: every per-point column has one entry per point; `parent[u]` is
    /// `u`'s component root (no larger than `u`, itself a root);
    /// `core[u]` holds exactly when `neighbor_count[u]` reached `min_pts`;
    /// every `core_neighbors` entry names a core point; `originals` are
    /// non-empty and ascending, and together claim each index in
    /// `0..n_original` exactly once (so the counter can neither skip an
    /// index nor sit where the next insert would overflow it).
    fn validate(&self) -> Result<(), JsonError> {
        let n = self.points.len();
        let columns = [
            ("originals", self.originals.len()),
            ("neighbor_count", self.neighbor_count.len()),
            ("core", self.core.len()),
            ("parent", self.parent.len()),
            ("core_neighbors", self.core_neighbors.len()),
        ];
        for (name, len) in columns {
            if len != n {
                return Err(JsonError::msg(format!(
                    "clusterer column `{name}` has {len} entries for {n} points"
                )));
            }
        }
        let bad = |u: usize, what: &str| {
            Err(JsonError::msg(format!("clusterer point {u}: {what}")))
        };
        for u in 0..n {
            let root = self.parent[u] as usize;
            if root > u || self.parent[root] as usize != root {
                return bad(u, "parent is not a component root at or below the point");
            }
            if self.core[u] != (self.neighbor_count[u] as usize >= self.params.min_pts) {
                return bad(u, "core flag disagrees with neighbor_count and min_pts");
            }
            if self.core_neighbors[u].iter().any(|&q| self.core.get(q as usize) != Some(&true)) {
                return bad(u, "core_neighbors names a point that is not core");
            }
            let originals = &self.originals[u];
            if originals.is_empty() || !originals.windows(2).all(|w| w[0] < w[1]) {
                return bad(u, "originals are not non-empty and ascending");
            }
        }
        let mut claimed: Vec<u32> = self.originals.iter().flatten().copied().collect();
        claimed.sort_unstable();
        if claimed.len() != self.n_original as usize
            || claimed.iter().zip(0..).any(|(&o, i)| o != i)
        {
            return Err(JsonError::msg(format!(
                "clusterer originals do not claim each of 0..{} exactly once",
                self.n_original
            )));
        }
        Ok(())
    }
}

impl_json_struct!(ClustererState {
    params,
    points,
    originals,
    n_original,
    neighbor_count,
    core,
    parent,
    core_neighbors
});

/// Root of `x` without path compression — usable through `&self`.
/// Compression is cosmetic here: unions always hang the larger root under
/// the smaller, so chains stay short and every observable value is the
/// root itself.
fn find_ro(parent: &[u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        x = parent[x as usize];
    }
    x
}

/// Root of `x` with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let p = parent[x as usize];
        parent[x as usize] = parent[p as usize];
        x = parent[p as usize];
    }
    x
}


#[cfg(test)]
mod tests {
    use super::*;
    use seacma_util::prop::Rng;
    use seacma_vision::cluster::cluster_screenshots;
    use seacma_vision::dhash::Dhash;

    fn mixed_corpus(seed: u64, n: usize) -> Vec<ScreenshotPoint> {
        let mut rng = Rng::new(seed);
        let centers: Vec<u128> = (0..4).map(|_| rng.u128()).collect();
        (0..n)
            .map(|i| {
                if rng.f64() < 0.75 {
                    let c = rng.below(centers.len() as u64) as usize;
                    let flips = rng.below(4);
                    let mut h = centers[c];
                    for _ in 0..flips {
                        h ^= 1u128 << rng.below(128);
                    }
                    ScreenshotPoint::new(Dhash(h), format!("c{c}d{}.xyz", i % 7))
                } else {
                    ScreenshotPoint::new(Dhash(rng.u128()), format!("noise{i}.com"))
                }
            })
            .collect()
    }

    #[test]
    fn incremental_equals_batch_at_every_prefix() {
        let pts = mixed_corpus(0x7AC4, 120);
        let mut inc = IncrementalClusterer::new(ClusterParams::default());
        for (i, p) in pts.iter().enumerate() {
            inc.insert_ref(p.dhash, &p.e2ld);
            let batch = cluster_screenshots(&pts[..=i], ClusterParams::default());
            assert_eq!(inc.clusters(), batch, "diverged at prefix {}", i + 1);
        }
    }

    #[test]
    fn duplicates_extend_multiplicity_only() {
        let mut inc = IncrementalClusterer::new(ClusterParams::default());
        let p = ScreenshotPoint::new(Dhash(42), "dup.com");
        for _ in 0..5 {
            inc.insert_ref(p.dhash, &p.e2ld);
        }
        assert_eq!(inc.len(), 5);
        assert_eq!(inc.unique_len(), 1);
        assert_eq!(inc.originals()[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(inc.clusters().noise, 5);
        assert_eq!(inc.arena().len(), 1, "duplicates intern one symbol");
    }

    #[test]
    fn insert_sym_on_a_shared_arena_matches_insert() {
        let pts = mixed_corpus(0x5A5A, 80);
        let arena = SharedArena::new();
        // Pre-populate the shared arena with unrelated content, as the
        // pipeline's world arena would be: symbol *values* shift, outputs
        // must not.
        arena.intern("publisher0.com");
        arena.intern("adnet.example");
        let mut by_struct = IncrementalClusterer::new(ClusterParams::default());
        let mut by_sym = IncrementalClusterer::with_arena(ClusterParams::default(), arena.clone());
        for p in &pts {
            by_struct.insert_ref(p.dhash, &p.e2ld);
            let sym = arena.intern(&p.e2ld);
            by_sym.insert_sym(p.dhash, sym);
        }
        assert_eq!(by_sym.clusters(), by_struct.clusters());
        assert_eq!(by_sym.to_state(), by_struct.to_state(), "state is arena-independent");
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let params = ClusterParams { min_pts: 1, theta_c: 1, ..Default::default() };
        let pts = mixed_corpus(0xFEED, 40);
        let mut inc = IncrementalClusterer::new(params);
        for p in &pts {
            inc.insert_ref(p.dhash, &p.e2ld);
        }
        assert_eq!(inc.clusters(), cluster_screenshots(&pts, params));
        assert_eq!(inc.clusters().noise, 0);
    }

    #[test]
    fn state_roundtrip_then_continue_matches_uninterrupted() {
        let pts = mixed_corpus(0xBEEF, 100);
        let params = ClusterParams::default();
        let mut whole = IncrementalClusterer::new(params);
        let mut front = IncrementalClusterer::new(params);
        for p in &pts[..60] {
            whole.insert_ref(p.dhash, &p.e2ld);
            front.insert_ref(p.dhash, &p.e2ld);
        }
        let mut resumed =
            IncrementalClusterer::from_state(front.to_state()).expect("own state is valid");
        assert_eq!(
            resumed.arena().len(),
            front.arena().len(),
            "resume re-interns e2LDs in first-seen order"
        );
        for p in &pts[60..] {
            whole.insert_ref(p.dhash, &p.e2ld);
            resumed.insert_ref(p.dhash, &p.e2ld);
        }
        assert_eq!(resumed.to_state(), whole.to_state());
        assert_eq!(resumed.clusters(), whole.clusters());
        assert_eq!(resumed.arena().len(), whole.arena().len());
    }

    #[test]
    fn border_reassignment_can_shrink_a_cluster() {
        // min_pts = 4. Cluster X around 24·(low bits); border q = 12 sits
        // within radius of X's center only. Epoch 2 grows a second, older-
        // indexed region around y = 0 until y becomes core — q's smallest-
        // root adjacent cluster is now Y, so X loses q (and q's domain).
        let params = ClusterParams { min_pts: 4, theta_c: 1, eps: 0.1 };
        let y = 0u128;
        let q = (1u128 << 12) - 1; // 12 bits: within radius of y and x
        let x = (1u128 << 24) - 1; // 24 low bits: 12 from q, 24 from y

        let mut pts = vec![
            ScreenshotPoint::new(Dhash(y), "y0.com"),
            ScreenshotPoint::new(Dhash(q), "q.com"),
            ScreenshotPoint::new(Dhash(x), "x0.com"),
        ];
        // Make x core: three high-bit near-duplicates (far from q and y).
        for i in 0..3 {
            pts.push(ScreenshotPoint::new(Dhash(x ^ (1u128 << (100 + i))), format!("x{}.com", i + 1)));
        }
        let mut inc = IncrementalClusterer::new(params);
        for p in &pts {
            inc.insert_ref(p.dhash, &p.e2ld);
        }
        let before = inc.clusters();
        assert_eq!(before.total_clusters(), 1);
        assert!(before.campaigns[0].domains.contains("q.com"), "q starts as X's border");

        // Epoch 2: make y core.
        let epoch2: Vec<ScreenshotPoint> = (0..3)
            .map(|i| ScreenshotPoint::new(Dhash(y ^ (1u128 << (100 + i))), format!("y{}.com", i + 1)))
            .collect();
        for p in &epoch2 {
            inc.insert_ref(p.dhash, &p.e2ld);
        }
        let after = inc.clusters();
        assert_eq!(after.total_clusters(), 2);
        let x_cluster = after
            .campaigns
            .iter()
            .find(|c| c.domains.contains("x0.com"))
            .expect("X survives");
        assert!(!x_cluster.domains.contains("q.com"), "q must move to the older cluster Y");

        // Exactness gate on the full construction.
        let mut all = pts.clone();
        all.extend(epoch2);
        assert_eq!(after, cluster_screenshots(&all, params));
    }
}
