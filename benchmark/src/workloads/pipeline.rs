//! `pipeline-paper` and `pipeline-sweep`: the batch measurement
//! crawl → cluster → track → milk → track through `Pipeline`'s public
//! phase methods at `workers = 1`, without the string-reference replay
//! `e2e_scaling` carries. Each unit then boots a daemon from the final
//! tracker state, feeds it a few steady epochs, and the last unit serves
//! a short query mix — the measurement's result as the resident daemon
//! would take it over.

use seacma_blacklist::VirusTotal;
use seacma_core::{DiscoveryOutput, Pipeline, PipelineConfig};
use seacma_daemon::Daemon;
use seacma_milker::{MilkingOutcome, MilkingSource};
use seacma_simweb::{SimTime, UaProfile, World, WorldConfig, HOUR};
use seacma_util::json::ToJson;

use super::{gate_reserialises, query_tail, report_resume, steady_tail, Ctx, EpochTimes, Resume};
use crate::corpus::{fnv1a, FNV_INIT};
use crate::probes;
use crate::stats::median;
use crate::trace::total_of;

/// The `e2e_scaling` paper configuration at `publishers` (70,000 there).
pub fn paper_config(world_seed: u64, publishers: u32) -> PipelineConfig {
    PipelineConfig {
        world: WorldConfig {
            seed: world_seed,
            n_publishers: publishers,
            n_hidden_only_publishers: publishers / 10,
            n_advertisers: publishers / 20,
            ..Default::default()
        },
        uas: vec![UaProfile::ChromeMac, UaProfile::ChromeAndroid],
        workers: 1,
        crawl_track_epochs: 14,
        ..Default::default()
    }
}

/// The default configuration (all four UAs, 4 crawl-track epochs) on one
/// worker, with the default world's ratios kept at `publishers`.
pub fn sweep_config(world_seed: u64, publishers: u32) -> PipelineConfig {
    let base = WorldConfig::default();
    let scaled =
        |n: u32| (u64::from(n) * u64::from(publishers) / u64::from(base.n_publishers)) as u32;
    PipelineConfig {
        world: WorldConfig {
            seed: world_seed,
            n_publishers: publishers,
            n_hidden_only_publishers: scaled(base.n_hidden_only_publishers),
            n_advertisers: scaled(base.n_advertisers),
            ..base
        },
        workers: 1,
        ..Default::default()
    }
}

/// What the traced run's standalone probes get to work on.
pub struct PipelineInputs<'a> {
    pub pipeline: &'a Pipeline,
    pub discovery: &'a DiscoveryOutput,
    pub sources: &'a [MilkingSource],
    pub milking: &'a MilkingOutcome,
    pub crawl_end: SimTime,
    /// Seconds of the five phases, in pipeline order.
    pub phase_s: [f64; 5],
}

const PHASES: [&str; 5] = ["crawl", "cluster", "track_crawl", "milk", "track_milk"];

/// Seconds and allocation calls of the five phases of one unit.
type UnitPhases = ([f64; 5], [u64; 5]);

pub fn run(ctx: &mut Ctx, paper: bool) {
    let units = if paper {
        ctx.sizes.paper_units
    } else {
        ctx.sizes.sweep_worlds
    };
    let publishers = if paper {
        ctx.sizes.paper_publishers
    } else {
        ctx.sizes.sweep_publishers
    };
    let (mut setups, mut digest) = (Vec::new(), FNV_INIT);
    let mut phases: Vec<UnitPhases> = Vec::new();
    let mut epochs = EpochTimes::default();
    let mut resumes: Vec<Resume> = Vec::new();

    for unit in 0..units {
        // `pipeline-paper` repeats one world; `pipeline-sweep` visits several.
        let world_seed = ctx.derive("world", if paper { 0 } else { unit as u64 });
        let mut config = if paper {
            paper_config(world_seed, publishers)
        } else {
            sweep_config(world_seed, publishers)
        };
        if ctx.sizes.stretch_schedule {
            let small = PipelineConfig::small(world_seed);
            config.schedule = small.schedule;
            config.milking = small.milking;
            config.world.campaign_scale = small.world.campaign_scale;
        }
        if unit == 0 {
            ctx.out.config.push(("pipeline", config.to_json()));
        }

        // Set-up is world generation; three generations per unit.
        let mut gens = Vec::new();
        for _ in 0..2 {
            let (world, s) =
                ctx.tracer
                    .call("simweb", "world_generate", u64::from(publishers), || {
                        World::generate(config.world.clone())
                    });
            drop(world);
            gens.push(s);
        }
        let (pipeline, s) =
            ctx.tracer
                .call("simweb", "world_generate", u64::from(publishers), || {
                    Pipeline::new(config)
                });
        gens.push(s);
        setups.push(median(&gens));

        let tr = &mut ctx.tracer;
        let mut allocs = [0u64; 5];
        let o = tr.open("core", "crawl");
        let crawled = pipeline.crawl_phase();
        let landings = crawled.crawl.landing_count() as u64;
        let crawl_s = tr.close(o, landings);
        allocs[0] = tr.last_allocs();

        let o = tr.open("core", "cluster");
        let discovery = pipeline.cluster_phase(crawled);
        let cluster_s = tr.close(o, landings);
        allocs[1] = tr.last_allocs();

        let o = tr.open("core", "track_crawl");
        let (mut tracker, _crawl_epochs) = pipeline.track(&discovery);
        let track_crawl_s = tr.close(o, landings);
        allocs[2] = tr.last_allocs();
        let exact = tracker.clusters() == discovery.clusters;

        let crawl_end = discovery
            .crawl
            .visits
            .iter()
            .map(|v| v.started)
            .max()
            .unwrap_or(SimTime::EPOCH)
            + HOUR;
        let o = tr.open("core", "milk");
        let o2 = tr.open("core", "milk_sources");
        let sources = pipeline.milking_sources(&discovery, &tracker, crawl_end);
        tr.close(o2, sources.len() as u64);
        let mut vt = VirusTotal::new(pipeline.world().seed() ^ 0x7A);
        let milking = pipeline.milk(&sources, crawl_end, &mut vt);
        let discoveries = milking.discoveries.len() as u64;
        let milk_s = tr.close(o, discoveries);
        allocs[3] = tr.last_allocs();

        let o = tr.open("core", "track_milk");
        let _milking_epochs = pipeline.track_milking(&mut tracker, &sources, &milking, crawl_end);
        let track_milk_s = tr.close(o, discoveries);
        allocs[4] = tr.last_allocs();

        let phase_s = [crawl_s, cluster_s, track_crawl_s, milk_s, track_milk_s];
        phases.push((phase_s, allocs));
        ctx.out.attempted += 1;
        ctx.gate(
            "tracker.clusters() after track == discovery.clusters",
            exact,
        );
        ctx.note(format!(
            "unit {unit}: world {world_seed:#x}, {landings} landings, {} campaigns, {} sources, {discoveries} discoveries; \
             crawl {crawl_s:.3} cluster {cluster_s:.3} track-crawl {track_crawl_s:.3} milk {milk_s:.3} track-milk {track_milk_s:.3} s",
            discovery.clusters.campaigns.len(),
            sources.len(),
        ));

        // Hand the result to a resident daemon: serialise the final
        // tracker state and boot a daemon from it.
        let (text, to_json_s) = ctx
            .tracer
            .call("tracker", "to_json", 1, || tracker.to_json());
        let (booted, from_json_s) =
            ctx.tracer
                .call("daemon", "from_json", text.len() as u64, || {
                    Daemon::from_json(&text)
                });
        let mut daemon = booted.expect("the pipeline's tracker state parses");
        resumes.push(Resume {
            to_json_s,
            from_json_s,
            bytes: text.len(),
        });
        let last = unit + 1 == units;
        // A repeated world gives the same state; check and digest it once.
        if last || !paper {
            gate_reserialises(ctx, &daemon, &text);
            digest = fnv1a(digest, text.as_bytes());
            let counts = [
                landings,
                discovery.clusters.campaigns.len() as u64,
                sources.len() as u64,
                discoveries,
            ];
            digest = counts
                .iter()
                .fold(digest, |d, c| fnv1a(d, &c.to_le_bytes()));
        }
        drop(text);

        if last && ctx.tracer.enabled() {
            let inputs = PipelineInputs {
                pipeline: &pipeline,
                discovery: &discovery,
                sources: &sources,
                milking: &milking,
                crawl_end,
                phase_s,
            };
            probes::world_side(ctx, &inputs);
        }
        drop((tracker, milking, sources, discovery, pipeline));

        epochs.absorb(steady_tail(ctx, &mut daemon, unit as u64));
        if last {
            let pools = query_tail(ctx, &daemon);
            if ctx.tracer.enabled() {
                probes::corpus_side(ctx, &daemon, &pools);
            }
        }
    }

    // `pipeline-paper`: each phase's fastest repetition of the one world
    // (the least disturbed one); `pipeline-sweep`: the worlds summed.
    let fold = |pick: &dyn Fn(&UnitPhases) -> f64| -> f64 {
        let per_unit = phases.iter().map(pick);
        if paper {
            per_unit.fold(f64::MAX, f64::min)
        } else {
            per_unit.sum()
        }
    };
    let mut wall_s = 0.0;
    for (i, phase) in PHASES.iter().enumerate() {
        let secs = fold(&|u| u.0[i]);
        wall_s += secs;
        ctx.set(&format!("core.{phase}_ms"), secs * 1e3);
        ctx.set(&format!("core.{phase}_allocs"), fold(&|u| u.1[i] as f64));
    }
    ctx.set("pipeline_wall_s", wall_s);
    ctx.set(
        "setup_s",
        if paper {
            median(&setups)
        } else {
            setups.iter().sum()
        },
    );
    ctx.set("simweb.world_generate_ms", median(&setups) * 1e3);
    if ctx.tracer.enabled() {
        let (secs, calls) = total_of(ctx.tracer.spans(), "core", "milk_sources");
        ctx.set("core.milk_sources_ms", secs * 1e3 / calls as f64);
    }
    let block = ctx.sizes.tail_block;
    epochs.report(ctx, "steady (on the daemon booted from the result)", block);
    report_resume(ctx, &resumes);
    ctx.out.digest = digest;
}
