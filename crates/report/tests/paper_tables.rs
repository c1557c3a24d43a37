//! The paper's tables, end to end: a seeded pipeline run projected through
//! `ReportInputs::from_run` and the standard analyses' text.

use seacma_core::{Pipeline, PipelineConfig};
use seacma_report::{compose_text, standard_analyses, ReportInputs};

#[test]
fn a_pipeline_run_fills_every_paper_table() {
    let pipeline = Pipeline::new(PipelineConfig::small(42));
    let run = pipeline.run_to_completion();
    let inputs = ReportInputs::from_run(&pipeline, &run);
    let text = compose_text(&standard_analyses(), &inputs);

    let section = |id: &str| -> &str {
        let from = text.find(&format!("== {id}: ")).unwrap_or_else(|| panic!("no section {id}"));
        let body = &text[from..];
        body.find("\n\n").map_or(body, |end| &body[..end])
    };
    let t1 = section("campaign-statistics");
    assert!(t1.contains("| Fake Software "), "{t1}");
    assert!(t1.contains("| TOTAL "), "{t1}");
    assert!(section("publisher-categories").contains("| publisher domains "));
    let t3 = section("adnet-attribution");
    assert!(t3.lines().any(|l| l.starts_with("| Unknown ") && l.contains(" | - ")), "{t3}");
    let t4 = section("milked-domains");
    assert!(t4.contains("| GSB-final % |") && t4.contains("| Total "), "{t4}");

    // Only the two sections fed from checked-in bench files have no data.
    for a in standard_analyses() {
        let bench_fed = ["bench-trajectory", "online-detection"].contains(&a.id());
        assert_eq!(section(a.id()).contains("(no data)"), bench_fed, "{}", a.id());
    }
}
