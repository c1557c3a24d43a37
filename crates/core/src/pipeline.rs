//! The end-to-end pipeline (Figure 2).

use seacma_util::sym::{SharedArena, Sym};

use seacma_blacklist::{GsbService, VirusTotal};
use seacma_crawler::{CrawlDataset, CrawlFarm, CrawlPolicy, LandingRecord};
use seacma_graph::{Attribution, Attributor, NetworkPattern};
use seacma_milker::{
    validate_candidates, Milker, MilkingCandidate, MilkingOutcome, MilkingSource,
};
use seacma_simweb::search::SourceSearch;
use seacma_simweb::{det, PublisherId, SimTime, Vantage, World, DAY};
use seacma_tracker::{CampaignTracker, EpochSummary, LedgerConfig, TrackerConfig};
use seacma_vision::cluster::{cluster_sym_columns_parallel, ScreenshotClusters, ScreenshotPoint};
use seacma_vision::dhash::Dhash;

use crate::config::PipelineConfig;
use crate::label::{label_clusters, ClusterLabel};
use crate::newnet::{discover_networks, NewNetworkDiscovery};

/// Fraction of the residential (cloaking-network) pool actually visited —
/// the paper managed 11,182 of 34,068 sites over residential links.
const RESIDENTIAL_VISIT_FRACTION: f64 = 0.33;

/// Output of the crawl phase alone (stages ②–③): the reversed pools and
/// the merged dataset, before clustering. Produced by
/// [`Pipeline::crawl_phase`], consumed by [`Pipeline::cluster_phase`] —
/// the split exists so the benchmark can time the two phases separately;
/// [`Pipeline::discover`] composes them.
pub struct CrawlPhase {
    /// Seed publisher pool from pattern reversal, institutional part.
    pub institutional_pool: Vec<PublisherId>,
    /// Residential pool (publishers embedding cloaking networks).
    pub residential_pool: Vec<PublisherId>,
    /// How many residential publishers were actually visited.
    pub residential_visited: usize,
    /// The merged crawl dataset.
    pub crawl: CrawlDataset,
}

/// Output of the discovery phase (stages ①–⑤ + ⑦).
pub struct DiscoveryOutput {
    /// The world-level symbol arena every crawl-record domain symbol
    /// resolves against (a handle to the pipeline's arena).
    pub arena: SharedArena,
    /// Seed publisher pool from pattern reversal, institutional part.
    pub institutional_pool: Vec<PublisherId>,
    /// Residential pool (publishers embedding cloaking networks).
    pub residential_pool: Vec<PublisherId>,
    /// How many residential publishers were actually visited.
    pub residential_visited: usize,
    /// The merged crawl dataset.
    pub crawl: CrawlDataset,
    /// Clustering result over all landing screenshots.
    pub clusters: ScreenshotClusters,
    /// Ground-truth labels, one per campaign cluster (same order as
    /// `clusters.campaigns`).
    pub labels: Vec<ClusterLabel>,
    /// Attribution verdict per landing index (aligned with the flattened
    /// landing order used for clustering).
    pub attributions: Vec<Attribution>,
}

impl DiscoveryOutput {
    /// Landings in the flattened order used by clustering/attribution.
    /// Borrowing iterator — callers that need random access collect it.
    pub fn landings(&self) -> impl Iterator<Item = &LandingRecord> {
        self.crawl.landings()
    }
}

/// Output of the tracking phase: the live tracker plus every closed
/// epoch's summary, split by which pipeline stage drove it.
pub struct TrackingOutput {
    /// The tracker after all crawl and milking epochs — live campaign
    /// state, ready for snapshotting ([`CampaignTracker::to_json`]) or
    /// further ingest.
    pub tracker: CampaignTracker,
    /// Epoch summaries from replaying the crawl landings.
    pub crawl_epochs: Vec<EpochSummary>,
    /// Epoch summaries from the milking discoveries (one per virtual day
    /// with discoveries, plus trailing quiet days so dormancy shows).
    pub milking_epochs: Vec<EpochSummary>,
}

/// A complete measurement run.
pub struct PipelineRun {
    /// Discovery-phase output.
    pub discovery: DiscoveryOutput,
    /// Validated milking sources.
    pub sources: Vec<MilkingSource>,
    /// Milking + GSB + VT measurement output.
    pub milking: MilkingOutcome,
    /// New-ad-network discovery from unknown attributions.
    pub new_networks: NewNetworkDiscovery,
    /// Campaign tracking across crawl + milking epochs.
    pub tracking: TrackingOutput,
}

/// The pipeline driver.
///
/// ```no_run
/// use seacma_core::{Pipeline, PipelineConfig};
///
/// let pipeline = Pipeline::new(PipelineConfig::small(42));
/// let run = pipeline.run_to_completion();
/// println!(
///     "{} campaigns discovered, {} domains milked",
///     run.discovery.labels.iter().filter(|l| l.is_campaign()).count(),
///     run.milking.discoveries.len(),
/// );
/// ```
pub struct Pipeline {
    config: PipelineConfig,
    world: World,
    arena: SharedArena,
}

impl Pipeline {
    /// Generates the world and prepares the pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        let world = World::generate(config.world.clone());
        Self { config, world, arena: SharedArena::new() }
    }

    /// The generated world (the "live web" of the measurement).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The world-level symbol arena: every domain string a crawl record,
    /// cluster column or tracker point carries is a symbol into this
    /// arena. Interning only happens at deterministic sequential points
    /// (crawl-farm assembly, tracker ingest), so its content is a pure
    /// function of the configuration.
    pub fn arena(&self) -> &SharedArena {
        &self.arena
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The seed ad-network invariant patterns (stage ①). In the paper
    /// these took ~15 manual minutes per network to derive; here they are
    /// the seed-listed networks' published invariants.
    pub fn seed_patterns(&self) -> Vec<NetworkPattern> {
        self.world
            .networks()
            .iter()
            .filter(|n| n.seed_listed)
            .map(|n| NetworkPattern { name: n.name.clone(), url_invariant: n.url_invariant.clone() })
            .collect()
    }

    /// Stage ②: reverse the seed patterns into a publisher pool and split
    /// it by cloaking-network presence (Propeller/Clickadu sites must be
    /// crawled from residential space).
    pub fn reverse_publishers(&self) -> (Vec<PublisherId>, Vec<PublisherId>) {
        let search = SourceSearch::new(&self.world);
        let js_patterns: Vec<String> = self
            .world
            .networks()
            .iter()
            .filter(|n| n.seed_listed)
            .map(|n| n.js_invariant.clone())
            .collect();
        let pats: Vec<&str> = js_patterns.iter().map(String::as_str).collect();
        let pool = search.search_any(&pats);

        let cloaker_patterns: Vec<String> = self
            .world
            .networks()
            .iter()
            .filter(|n| n.cloaks_nonresidential)
            .map(|n| n.js_invariant.clone())
            .collect();
        let cloaker_pats: Vec<&str> = cloaker_patterns.iter().map(String::as_str).collect();
        let cloaked: std::collections::HashSet<PublisherId> =
            search.search_any(&cloaker_pats).into_iter().collect();

        let mut institutional = Vec::new();
        let mut residential = Vec::new();
        for pid in pool {
            if cloaked.contains(&pid) {
                residential.push(pid);
            } else {
                institutional.push(pid);
            }
        }
        (institutional, residential)
    }

    /// Stages ②–③ only: reversal plus both vantage crawls.
    /// [`Pipeline::cluster_phase`] completes it into a [`DiscoveryOutput`].
    pub fn crawl_phase(&self) -> CrawlPhase {
        let (institutional_pool, residential_pool) = self.reverse_publishers();

        // Residential bandwidth cap (paper: 11,182 of 34,068 visited).
        let n_res = ((residential_pool.len() as f64) * RESIDENTIAL_VISIT_FRACTION).round() as usize;
        let residential_sample: Vec<PublisherId> = residential_pool
            .iter()
            .copied()
            .filter(|p| {
                det::det_f64(&[self.world.seed(), 0x2E5, u64::from(p.0)])
                    < RESIDENTIAL_VISIT_FRACTION
            })
            .take(n_res.max(1))
            .collect();

        let farm = CrawlFarm::new(&self.world, self.config.workers, CrawlPolicy::default());
        let mut crawl = farm.crawl(
            &institutional_pool,
            &self.config.uas,
            Vantage::Institutional,
            self.config.schedule,
            &self.arena,
        );
        let residential_visited = residential_sample.len();
        // The residential pool is crawled concurrently (the paper's
        // laptops ran alongside the servers).
        crawl.merge(farm.crawl(
            &residential_sample,
            &self.config.uas,
            Vantage::Residential,
            self.config.schedule,
            &self.arena,
        ));
        CrawlPhase { institutional_pool, residential_pool, residential_visited, crawl }
    }

    /// Stages ④–⑤ + ⑦ over a finished crawl: clustering, labeling,
    /// attribution. Runs on the calling thread; `config.workers` drives
    /// the crawl farm and milking only.
    pub fn cluster_phase(&self, phase: CrawlPhase) -> DiscoveryOutput {
        let CrawlPhase { institutional_pool, residential_pool, residential_visited, crawl } =
            phase;
        // Stage ④–⑤: perceptual hashing + clustering + θc filter. The
        // crawl records already carry `(dhash, e2LD-symbol)`, so the
        // clustering input is two parallel columns — no string copies.
        let landings: Vec<&LandingRecord> = crawl.landings().collect();
        let dhashes: Vec<Dhash> = landings.iter().map(|l| l.dhash).collect();
        let e2lds: Vec<Sym> = landings.iter().map(|l| l.landing_e2ld).collect();
        // Indexed clustering: same labels as the naive O(n²) scan (the
        // index is exact). Clustering is sequential — `config.workers`
        // drives the crawl farm and milking only — so the trailing
        // argument, which the callee ignores, is a plain 1.
        let clusters = cluster_sym_columns_parallel(
            &dhashes,
            &e2lds,
            &self.arena.read(),
            self.config.clustering,
            1,
        );

        // Ground-truth labeling (the paper's manual step).
        let labels = label_clusters(&self.world, &clusters.campaigns, &landings);

        // Stage ⑦: attribution of every landing via seed patterns over
        // the ad-loading chain (the click URL carries the invariant).
        let attributor = Attributor::new(self.seed_patterns());
        let attributions: Vec<Attribution> = landings
            .iter()
            .map(|l| attributor.attribute_urls(l.chain_urls().into_iter()))
            .collect();

        DiscoveryOutput {
            arena: self.arena.clone(),
            institutional_pool,
            residential_pool,
            residential_visited,
            crawl,
            clusters,
            labels,
            attributions,
        }
    }

    /// Stages ②–⑤ + ⑦: reversal, crawling (both vantage pools),
    /// clustering, labeling, attribution.
    pub fn discover(&self) -> DiscoveryOutput {
        self.cluster_phase(self.crawl_phase())
    }

    /// Phase ⑧ (tracking, this repo's extension of §5): replay the crawl
    /// landings through the campaign tracker in `crawl_track_epochs`
    /// contiguous prefix batches of the flattened landing order.
    ///
    /// Contiguous prefixes are load-bearing: batch DBSCAN numbering is
    /// input-order-sensitive, so feeding the tracker the same order the
    /// batch clustering saw makes the final epoch's live snapshot equal
    /// [`DiscoveryOutput::clusters`] **bit for bit** (the incremental
    /// exactness property) — no downstream table can change.
    pub fn track(&self, discovery: &DiscoveryOutput) -> (CampaignTracker, Vec<EpochSummary>) {
        // The tracker shares the world arena, so crawl-record symbols feed
        // it directly — no string materialization on the replay hot path.
        let mut tracker = CampaignTracker::with_arena(self.tracker_config(), self.arena.clone());
        let mut summaries = Vec::new();
        for batch in self.crawl_epoch_sym_batches(discovery) {
            for (dhash, e2ld) in batch {
                tracker.ingest_sym(dhash, e2ld);
            }
            summaries.push(tracker.end_epoch());
        }
        debug_assert_eq!(
            tracker.clusters(),
            discovery.clusters,
            "incremental tracker must reproduce the batch discovery clustering"
        );
        (tracker, summaries)
    }

    /// The tracker parameters this pipeline tracks (and the resident
    /// daemon serves) with: the batch clustering knobs plus the lifecycle
    /// ledger's dormancy windows. Exactness between the daemon's live
    /// snapshots and the offline batch pipeline requires both sides to use
    /// exactly this configuration.
    pub fn tracker_config(&self) -> TrackerConfig {
        TrackerConfig { params: self.config.clustering, ledger: LedgerConfig::default() }
    }

    /// Pipeline-as-library entry point for epoch schedulers: the per-epoch
    /// point batches the crawl replay ([`Pipeline::track`]) ingests, in
    /// ingestion order. Feeding these batches to any epoch-driven consumer
    /// (a [`CampaignTracker`], the `seacma-daemon` resident process)
    /// reproduces the tracking phase's crawl epochs exactly — the final
    /// boundary snapshot equals [`DiscoveryOutput::clusters`] bit for bit.
    pub fn crawl_epoch_batches(&self, discovery: &DiscoveryOutput) -> Vec<Vec<ScreenshotPoint>> {
        let arena = self.arena.read();
        self.crawl_epoch_sym_batches(discovery)
            .into_iter()
            .map(|batch| {
                batch.into_iter().map(|(d, e)| ScreenshotPoint::new(d, arena.resolve(e))).collect()
            })
            .collect()
    }

    /// The per-epoch crawl batches as `(dhash, e2LD-symbol)` column pairs
    /// for consumers sharing the world arena ([`Pipeline::track`], the
    /// benchmark); [`Pipeline::crawl_epoch_batches`] resolves them to
    /// strings. Symbols resolve via [`Pipeline::arena`].
    pub fn crawl_epoch_sym_batches(&self, discovery: &DiscoveryOutput) -> Vec<Vec<(Dhash, Sym)>> {
        discovery
            .crawl
            .landing_epochs(self.config.crawl_track_epochs)
            .into_iter()
            .map(|chunk| chunk.into_iter().map(|l| (l.dhash, l.landing_e2ld)).collect())
            .collect()
    }

    /// Pipeline-as-library entry point for epoch schedulers: one batch of
    /// `(dhash, e2LD-symbol)` column pairs per virtual day of the milking
    /// window (quiet days included), exactly as
    /// [`Pipeline::track_milking`] ingests them. Discovered domains are
    /// interned into the world arena here (a sequential point, so symbol
    /// assignment is deterministic).
    pub fn milking_epoch_sym_batches(
        &self,
        sources: &[MilkingSource],
        milking: &MilkingOutcome,
        start: SimTime,
    ) -> Vec<Vec<(Dhash, Sym)>> {
        let feed = seacma_milker::trackfeed::discovery_sym_points(
            &self.world,
            sources,
            milking,
            &self.arena,
        );
        let days = self.config.milking.duration.minutes().div_ceil(DAY.minutes()).max(1);
        seacma_milker::trackfeed::epoch_batches(&feed, start, days)
    }

    /// Feeds the milking discoveries back into the tracker, closing one
    /// epoch per virtual day of the milking window. Quiet days close too:
    /// campaigns that stop rotating (or were never milkable) sit still
    /// through them, which is exactly what drives the ledger's dormancy
    /// and death transitions.
    ///
    /// The replay runs on the symbol fast path, so `tracker` must share
    /// the world arena (as the tracker from [`Pipeline::track`] does).
    pub fn track_milking(
        &self,
        tracker: &mut CampaignTracker,
        sources: &[MilkingSource],
        milking: &MilkingOutcome,
        start: SimTime,
    ) -> Vec<EpochSummary> {
        debug_assert!(
            tracker.arena().ptr_eq(&self.arena),
            "sym-path milking replay requires a tracker sharing the world arena"
        );
        let mut summaries = Vec::new();
        for batch in self.milking_epoch_sym_batches(sources, milking, start) {
            for (dhash, e2ld) in batch {
                tracker.ingest_sym(dhash, e2ld);
            }
            summaries.push(tracker.end_epoch());
        }
        summaries
    }

    /// Stage ⑥ prep: extract per-campaign-cluster milking candidates from
    /// the crawl records and validate them (§4.2's pilot).
    ///
    /// Candidates come from **live tracker state** — the cluster set,
    /// membership and visual representatives are the tracker's current
    /// snapshot, not the frozen discovery clustering. Right after the
    /// crawl replay the two agree exactly (the gate in
    /// [`Pipeline::track`]), but anything ingested since — milking
    /// feedback, a resumed snapshot — is reflected here and not there.
    pub fn milking_sources(
        &self,
        discovery: &DiscoveryOutput,
        tracker: &CampaignTracker,
        t: SimTime,
    ) -> Vec<MilkingSource> {
        let landings: Vec<&LandingRecord> = discovery.landings().collect();
        let live = tracker.clusters();
        let mut candidates = Vec::new();
        for (ci, cluster) in live.campaigns.iter().enumerate() {
            // Ground-truth labels are aligned with the discovery clusters;
            // live clusters keep that alignment until post-crawl ingest
            // reorders them, at which point unlabeled clusters are skipped.
            if !discovery.labels.get(ci).is_some_and(|l| l.is_campaign()) {
                continue;
            }
            // Members index the tracker's ingest order, which starts with
            // the flattened crawl landings; later (milking-fed) members
            // have no crawl record to harvest a milkable URL from.
            let Some(rep) = landings.get(cluster.representative) else { continue };
            let reference = rep.dhash;
            for &m in &cluster.members {
                let Some(l) = landings.get(m).copied() else { continue };
                if let Some(url) = &l.milkable_candidate {
                    candidates.push(MilkingCandidate {
                        url: url.clone(),
                        ua: l.ua,
                        cluster: ci,
                        reference,
                    });
                }
            }
        }
        // Interleave UAs within each cluster before the source cap bites:
        // landings arrive in UA-pass order, and without mixing, the first
        // `max_milking_sources` candidates would nearly all carry the
        // first pass's UA (and so milk only one platform's payloads).
        // `Url::det_word()` equals `str_word(&url.to_string())` (pinned in
        // `seacma-simweb`), so the shuffle key is unchanged — but the sort
        // no longer materializes the textual URL per comparison.
        candidates.sort_by_key(|c| {
            (c.cluster, det::det_hash(&[c.url.det_word(), c.ua.index()]))
        });
        let mut sources = validate_candidates(&self.world, candidates, t);
        sources.truncate(self.config.max_milking_sources);
        sources
    }

    /// Stage ⑥: the milking experiment.
    pub fn milk(
        &self,
        sources: &[MilkingSource],
        start: SimTime,
        vt: &mut VirusTotal,
    ) -> MilkingOutcome {
        let mut gsb = GsbService::new(&self.world);
        // Simulate/merge milking shares `config.workers` with the crawl
        // farm; like the farm's, its output is byte-identical at any
        // worker count, so no downstream table can change.
        Milker::new(&self.world, self.config.milking).run_parallel(
            sources,
            &mut gsb,
            vt,
            start,
            self.config.workers,
        )
    }

    /// The full measurement: discovery, crawl-epoch tracking, source
    /// validation against live tracker state, milking (fed back into the
    /// tracker day by day) and the new-network feedback loop.
    pub fn run_to_completion(&self) -> PipelineRun {
        let discovery = self.discover();
        let (mut tracker, crawl_epochs) = self.track(&discovery);
        // Milking starts right after the last crawl pass.
        let crawl_end = crawl_end(&discovery.crawl) + seacma_simweb::HOUR;
        let sources = self.milking_sources(&discovery, &tracker, crawl_end);
        let mut vt = VirusTotal::new(self.world.seed() ^ 0x7A);
        let milking = self.milk(&sources, crawl_end, &mut vt);
        let milking_epochs = self.track_milking(&mut tracker, &sources, &milking, crawl_end);
        let new_networks = discover_networks(&self.world, &discovery);
        PipelineRun {
            discovery,
            sources,
            milking,
            new_networks,
            tracking: TrackingOutput { tracker, crawl_epochs, milking_epochs },
        }
    }
}

/// Crawl end time helper shared by reports.
pub fn crawl_end(crawl: &CrawlDataset) -> SimTime {
    crawl.visits.iter().map(|v| v.started).max().unwrap_or(SimTime::EPOCH)
}
