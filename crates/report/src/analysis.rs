//! The [`Analysis`] trait and the report composer.
//!
//! An analysis is compute-then-render: [`Analysis::compute`] turns
//! [`ReportInputs`] into a typed [`Table`] (the machine-checkable
//! artifact), and the render methods project that table into an HTML
//! [`Section`] or dashboard [`Line`]s; the terminal projection is the
//! table's own [`Table::render_text`]. The default renders cover the
//! common table-shaped case; an analysis overrides them only to add
//! shape (meters, extra prose) on top of the same table.

use crate::ansi::{table_lines, Line};
use crate::html::{table_html, Section};
use crate::inputs::ReportInputs;
use crate::table::Table;

/// One report analysis: a stable id, a computation into a [`Table`], and
/// HTML/ANSI projections of that table.
///
/// ```
/// use seacma_report::{Analysis, Cell, ReportInputs, Table};
///
/// struct SeedEcho;
/// impl Analysis for SeedEcho {
///     fn id(&self) -> &'static str { "seed-echo" }
///     fn title(&self) -> &'static str { "Seed echo" }
///     fn compute(&self, inputs: &ReportInputs) -> Table {
///         let mut t = Table::new(self.id(), self.title(), &["seed"]);
///         t.push([Cell::UInt(inputs.seed)]);
///         t
///     }
/// }
///
/// let table = SeedEcho.compute(&ReportInputs::new(42));
/// let section = SeedEcho.render_html(&table);
/// assert_eq!(section.id, "seed-echo");
/// assert!(section.html.contains("<td class=\"num\">42</td>"));
/// assert_eq!(SeedEcho.render_ansi(&table)[0].plain(), "Seed echo");
/// ```
pub trait Analysis {
    /// Stable identifier — the HTML section anchor and the table id. Must
    /// be unique within a report; the composer asserts it.
    fn id(&self) -> &'static str;

    /// Human-readable section title.
    fn title(&self) -> &'static str;

    /// Context rendered above the table (paper mapping, units, the paper's
    /// own full-scale numbers). Empty by default.
    fn note(&self) -> &'static str {
        ""
    }

    /// Computes the machine-checkable table from the inputs. Must be a
    /// pure function of `inputs` — the determinism gate diffs two runs.
    fn compute(&self, inputs: &ReportInputs) -> Table;

    /// Projects a computed table into an HTML section.
    fn render_html(&self, table: &Table) -> Section {
        Section::new(self.id(), self.title(), table_html(table, self.note()))
    }

    /// Projects a computed table into dashboard lines.
    fn render_ansi(&self, table: &Table) -> Vec<Line> {
        table_lines(table)
    }
}

/// Composes analyses into the final self-contained HTML document.
///
/// Sections are emitted in ascending [`Analysis::id`] order regardless of
/// registration order — the report's layout is part of its byte-identity
/// contract, and callers should not have to care how their analysis list
/// happened to be assembled. Duplicate ids are a programming error and
/// panic.
///
/// ```
/// use seacma_report::{compose_html, standard_analyses, ReportInputs};
///
/// let html = compose_html("SEACMA report", &standard_analyses(), &ReportInputs::new(42));
/// assert!(html.starts_with("<!DOCTYPE html>"));
/// assert!(html.contains("<section id=\"blacklist-lag\">"));
/// ```
pub fn compose_html(title: &str, analyses: &[Box<dyn Analysis>], inputs: &ReportInputs) -> String {
    let sections: Vec<Section> =
        in_id_order(analyses).iter().map(|a| a.render_html(&a.compute(inputs))).collect();
    let intro = format!(
        "Deterministic analysis report over the simulated SEACMA measurement at seed {} \
         ({} closed tracking epochs). Every section is computed by a seacma-report \
         `Analysis` and is a pure function of the measurement outputs.",
        inputs.seed, inputs.epoch
    );
    crate::html::render_document(title, &intro, &sections)
}

/// The analyses in ascending id order; a duplicate id panics.
fn in_id_order(analyses: &[Box<dyn Analysis>]) -> Vec<&dyn Analysis> {
    let mut ordered: Vec<&dyn Analysis> = analyses.iter().map(|a| a.as_ref()).collect();
    ordered.sort_by_key(|a| a.id());
    for pair in ordered.windows(2) {
        assert_ne!(pair[0].id(), pair[1].id(), "duplicate analysis id");
    }
    ordered
}

/// Composes analyses into the terminal report: per analysis, in the same
/// ascending-id order as [`compose_html`], a `== id: title ==` line, the
/// note and the table's text grid.
///
/// ```
/// use seacma_report::{compose_text, standard_analyses, ReportInputs};
///
/// let text = compose_text(&standard_analyses(), &ReportInputs::new(42));
/// assert!(text.starts_with("== adblock: "));
/// assert!(text.contains("| (no data) "));
/// ```
pub fn compose_text(analyses: &[Box<dyn Analysis>], inputs: &ReportInputs) -> String {
    let mut out = String::new();
    for a in in_id_order(analyses) {
        out.push_str(&format!("== {}: {} ==\n", a.id(), a.title()));
        if !a.note().is_empty() {
            out.push_str(a.note());
            out.push('\n');
        }
        out.push_str(&a.compute(inputs).render_text());
        out.push('\n');
    }
    out
}

/// The standard report: the twenty shipped analyses, one instance each.
///
/// ```
/// use seacma_report::standard_analyses;
///
/// let ids: Vec<&str> = standard_analyses().iter().map(|a| a.id()).collect();
/// assert_eq!(
///     ids,
///     [
///         "campaign-statistics",
///         "publisher-categories",
///         "adnet-attribution",
///         "milked-domains",
///         "cluster-census",
///         "ethics-cost",
///         "campaign-growth",
///         "blacklist-lag",
///         "cluster-size-distribution",
///         "bench-trajectory",
///         "online-detection",
///         "pipeline-funnel",
///         "adblock",
///         "milked-files",
///         "milked-intelligence",
///         "blacklist-enrichment",
///         "parking-filter",
///         "clustering-ablation",
///         "milking-timeline",
///         "invariant-mining",
///     ],
/// );
/// ```
pub fn standard_analyses() -> Vec<Box<dyn Analysis>> {
    vec![
        Box::new(crate::analyses::CampaignStatistics),
        Box::new(crate::analyses::PublisherCategories),
        Box::new(crate::analyses::AdnetAttribution),
        Box::new(crate::analyses::MilkedDomains),
        Box::new(crate::analyses::ClusterCensus),
        Box::new(crate::analyses::EthicsCost),
        Box::new(crate::analyses::CampaignGrowth),
        Box::new(crate::analyses::BlacklistLag),
        Box::new(crate::analyses::ClusterSizeDistribution),
        Box::new(crate::analyses::BenchTrajectory),
        Box::new(crate::analyses::OnlineDetection),
        Box::new(crate::analyses::PipelineFunnel),
        Box::new(crate::analyses::AdblockCoverage),
        Box::new(crate::analyses::MilkedFileScans),
        Box::new(crate::analyses::MilkedFeeds),
        Box::new(crate::analyses::BlacklistEnrichment),
        Box::new(crate::analyses::ParkingFilter),
        Box::new(crate::analyses::ClusteringAblation),
        Box::new(crate::analyses::SourceTimeline),
        Box::new(crate::analyses::InvariantMining),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;

    struct Fixed(&'static str);
    impl Analysis for Fixed {
        fn id(&self) -> &'static str {
            self.0
        }
        fn title(&self) -> &'static str {
            self.0
        }
        fn compute(&self, _inputs: &ReportInputs) -> Table {
            let mut t = Table::new(self.id(), self.title(), &["v"]);
            t.push([Cell::UInt(1)]);
            t
        }
    }

    #[test]
    fn composition_is_registration_order_independent() {
        let inputs = ReportInputs::new(1);
        let ab: Vec<Box<dyn Analysis>> = vec![Box::new(Fixed("a")), Box::new(Fixed("b"))];
        let ba: Vec<Box<dyn Analysis>> = vec![Box::new(Fixed("b")), Box::new(Fixed("a"))];
        assert_eq!(compose_html("t", &ab, &inputs), compose_html("t", &ba, &inputs));
    }

    #[test]
    #[should_panic(expected = "duplicate analysis id")]
    fn duplicate_ids_panic() {
        let dup: Vec<Box<dyn Analysis>> = vec![Box::new(Fixed("a")), Box::new(Fixed("a"))];
        compose_html("t", &dup, &ReportInputs::new(1));
    }
}
