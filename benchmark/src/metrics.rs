//! The metric and workload registry — the single source of the names,
//! units, directions and bounds that `BENCHMARK.json` publishes (a unit
//! test pins the two together) and that every run prints.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// One single-layer metric from the traced run (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pipeline-paper",
        why: "Paper-shaped batch run (2 UAs, 14 epochs, 505-source milking) at 40 % of the paper's 70k publishers, run twice: the size where the super-linear tracker and cluster layers carry a third of the wall.",
    },
    Workload {
        name: "pipeline-sweep",
        why: "Default 8k-publisher pipeline on all four UAs at three seed-derived worlds: crawl-side layers dominate and the tracker does little, so a gain tuned to one world or UA cannot hide.",
    },
    Workload {
        name: "track-replay",
        why: "Daemon fed a synthetic near-duplicate corpus in bulk then steady epochs, then snapshot and resume: the writer side alone, with no simweb, browser or crawler work.",
    },
    Workload {
        name: "serve-static",
        why: "Closed-loop reader issuing nine query kinds against a frozen 50k-point snapshot, no writer: the read path by itself, where publication-only changes must show no change.",
    },
    Workload {
        name: "serve-live",
        why: "The same reader beside an open-loop writer closing an epoch every 250 ms: snapshot swap, refcount traffic, superseded-snapshot drops and cache contention on the read path.",
    },
];

use Better::{Higher, Lower};

/// Bounds are set by the reference host's noise floor, not by taste: on
/// the shared 2-vCPU VM this was sized on, identical runs of memory-bound
/// work differ by ±15–20 % for minutes at a time (README, "Host noise"),
/// so a tighter bound would reject the benchmark against itself.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pipeline_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "ingest_points_per_s",
        unit: "points/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "epoch_close_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "resume_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_qps",
        unit: "queries/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
];

/// The nine query kinds of the serving mix, in round-robin order. The
/// first five go through `QueryHandle::{url, dhash, campaign}`, the last
/// four through `QueryHandle::detect`.
pub const KINDS: [&str; 9] = [
    "url_hit",
    "url_miss",
    "dhash_near",
    "dhash_far",
    "campaign_state",
    "campaign_hit",
    "near_campaign",
    "suspicious",
    "benign",
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics; the prefix before the first `.` is the crate the
/// timed public calls belong to. A metric whose layer the workload never
/// enters reads 0 (see README, "Which workload fills which layer").
pub const PER_LAYER: &[PerLayer] = &[
    // core — the phase split of pipeline_wall_s
    pl("core.crawl_ms", "ms", Lower),
    pl("core.cluster_ms", "ms", Lower),
    pl("core.track_crawl_ms", "ms", Lower),
    pl("core.milk_sources_ms", "ms", Lower),
    pl("core.milk_ms", "ms", Lower),
    pl("core.track_milk_ms", "ms", Lower),
    pl("core.crawl_allocs", "count", Lower),
    pl("core.cluster_allocs", "count", Lower),
    pl("core.track_crawl_allocs", "count", Lower),
    pl("core.milk_allocs", "count", Lower),
    pl("core.track_milk_allocs", "count", Lower),
    pl("core.label_ms", "ms", Lower),
    pl("core.unattributed_share", "share", Lower),
    // simweb
    pl("simweb.world_generate_ms", "ms", Lower),
    pl("simweb.source_search_ms", "ms", Lower),
    pl("simweb.fetch_ns", "ns", Lower),
    pl("simweb.fetch_allocs", "count", Lower),
    pl("simweb.fetch_lite_ns", "ns", Lower),
    // browser
    pl("browser.navigate_us", "us", Lower),
    pl("browser.click_us", "us", Lower),
    pl("browser.session_allocs", "count", Lower),
    pl("browser.quiet_load_us", "us", Lower),
    pl("browser.quiet_probe_cached_ns", "ns", Lower),
    pl("browser.render_dhash_cold_us", "us", Lower),
    pl("browser.render_dhash_warm_ns", "ns", Lower),
    // crawler
    pl("crawler.visit_us_p50", "us", Lower),
    pl("crawler.visit_us_p99", "us", Lower),
    pl("crawler.visit_allocs", "count", Lower),
    pl("crawler.visits_with_landing_share", "share", Higher),
    pl("crawler.farm_w1_visits_per_s", "1/s", Higher),
    pl("crawler.farm_w2_visits_per_s", "1/s", Higher),
    // graph
    pl("graph.backtrack_build_us", "us", Lower),
    pl("graph.milkable_candidate_us", "us", Lower),
    pl("graph.attribute_ns", "ns", Lower),
    pl("graph.milkable_found_share", "share", Higher),
    // vision
    pl("vision.dhash128_us", "us", Lower),
    pl("vision.index_build_ms", "ms", Lower),
    pl("vision.index_insert_ns", "ns", Lower),
    pl("vision.index_probe_near_ns", "ns", Lower),
    pl("vision.index_probe_far_ns", "ns", Lower),
    pl("vision.index_nearest_ns", "ns", Lower),
    pl("vision.neighbours_per_probe", "count", Lower),
    pl("vision.cluster_w1_ms", "ms", Lower),
    pl("vision.cluster_w2_ms", "ms", Lower),
    // milker
    pl("milker.validate_ms", "ms", Lower),
    pl("milker.run_w1_ms", "ms", Lower),
    pl("milker.run_w2_ms", "ms", Lower),
    pl("milker.trackfeed_ms", "ms", Lower),
    pl("milker.discovery_share", "share", Higher),
    // blacklist
    pl("blacklist.gsb_first_listed_poll_ns", "ns", Lower),
    // tracker
    pl("tracker.ingest_ns_h25k", "ns", Lower),
    pl("tracker.ingest_ns_h50k", "ns", Lower),
    pl("tracker.ingest_ns_steady", "ns", Lower),
    pl("tracker.ingest_allocs", "count", Lower),
    pl("tracker.dup_share", "share", Higher),
    pl("tracker.end_epoch_ms", "ms", Lower),
    pl("tracker.clusters_ms", "ms", Lower),
    pl("tracker.to_json_ms", "ms", Lower),
    pl("tracker.from_json_ms", "ms", Lower),
    // detect
    pl("detect.build_ms", "ms", Lower),
    pl("detect.campaign_hit_ns", "ns", Lower),
    pl("detect.near_campaign_ns", "ns", Lower),
    pl("detect.suspicious_ns", "ns", Lower),
    pl("detect.benign_ns", "ns", Lower),
    pl("detect.scratch_allocs", "count", Lower),
    // daemon
    pl("daemon.snapshot_build_ms", "ms", Lower),
    pl("daemon.publish_us", "us", Lower),
    pl("daemon.load_ns", "ns", Lower),
    pl("daemon.snapshot_drop_ms", "ms", Lower),
    pl("daemon.epoch_close_ms_p75", "ms", Lower),
    pl("daemon.epoch_close_ms_max", "ms", Lower),
    pl("daemon.writer_lag_ms_max", "ms", Lower),
    pl("daemon.query_p999_us", "us", Lower),
    pl("daemon.query_max_us", "us", Lower),
    pl("daemon.snapshot_bytes_per_point", "bytes", Lower),
    pl("daemon.url_hit_p50_us", "us", Lower),
    pl("daemon.url_hit_p99_us", "us", Lower),
    pl("daemon.url_miss_p50_us", "us", Lower),
    pl("daemon.url_miss_p99_us", "us", Lower),
    pl("daemon.dhash_near_p50_us", "us", Lower),
    pl("daemon.dhash_near_p99_us", "us", Lower),
    pl("daemon.dhash_far_p50_us", "us", Lower),
    pl("daemon.dhash_far_p99_us", "us", Lower),
    pl("daemon.campaign_state_p50_us", "us", Lower),
    pl("daemon.campaign_state_p99_us", "us", Lower),
    pl("daemon.campaign_hit_p50_us", "us", Lower),
    pl("daemon.campaign_hit_p99_us", "us", Lower),
    pl("daemon.near_campaign_p50_us", "us", Lower),
    pl("daemon.near_campaign_p99_us", "us", Lower),
    pl("daemon.suspicious_p50_us", "us", Lower),
    pl("daemon.suspicious_p99_us", "us", Lower),
    pl("daemon.benign_p50_us", "us", Lower),
    pl("daemon.benign_p99_us", "us", Lower),
    // util
    pl("util.json_write_mb_per_s", "MB/s", Higher),
    pl("util.json_parse_mb_per_s", "MB/s", Higher),
    pl("util.arena_intern_ns", "ns", Lower),
    pl("util.arena_resolve_ns", "ns", Lower),
    // harness
    pl("trace.overhead_share", "share", Lower),
    pl("host.steal_share", "share", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// The contract's name rule: starts with a letter or digit, at most 64 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// The contract's unit rule: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// `BENCHMARK.json`, generated from the registry (`benchmark manifest`).
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_util::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name("µs") && !valid_unit("µs"));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_kind_has_its_two_daemon_metrics() {
        for k in KINDS {
            for p in ["p50", "p99"] {
                let name = format!("daemon.{k}_{p}_us");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }

    /// The names a run prints are the registry's; this pins the registry
    /// to the checked-in `BENCHMARK.json`, key for key.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            manifest_json(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
    }
}
