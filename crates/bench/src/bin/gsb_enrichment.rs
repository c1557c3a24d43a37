//! Blacklist-enrichment analysis (paper §6: "our results show how
//! existing URL blacklists can be enriched to include and protect from
//! many new web pages that contain SE attacks").
//!
//! For every domain the milker discovered, compute the *protection
//! window*: the span between our discovery and GSB's own listing (or the
//! end of the study, for domains GSB never lists). During that window, a
//! blacklist enriched by the milker protects users GSB does not.

use seacma_bench::{banner, run_args};
use seacma_core::{report, Pipeline};
use seacma_report::{Analysis, BlacklistLag, ReportInputs};
use seacma_simweb::SimDuration;

fn main() {
    let args = run_args();
    banner("GSB enrichment: protection window gained by milking");
    let run = Pipeline::new(args.config()).run_to_completion();
    let mut inputs = ReportInputs::new(args.seed);
    inputs.gsb_lag_days = report::gsb_lag_days(&run.milking);
    inputs.gsb_unlisted = report::gsb_unlisted(&run.milking) as u64;
    let study_span = SimDuration::from_days(args.milk_days + 60);

    // One window per milked domain: GSB's lag where it listed the domain,
    // the whole study where it never did.
    let never = inputs.gsb_unlisted as usize;
    let mut windows = inputs.gsb_lag_days.clone();
    windows.resize(windows.len() + never, study_span.as_days());
    windows.sort_by(f64::total_cmp);
    let n = windows.len();

    println!("milked domains:                      {n}");
    if n > 0 {
        println!("never listed by GSB at all:          {never} ({:.1}%)", 100.0 * never as f64 / n as f64);
        println!("protection window (days) — mean:     {:.1}", windows.iter().sum::<f64>() / n as f64);
        println!("protection window (days) — median:   {:.1}", windows[n / 2]);
        println!(
            "window percentiles: p10 {:.1}  p50 {:.1}  p90 {:.1}",
            windows[n / 10],
            windows[n / 2],
            windows[(n * 9) / 10]
        );
    }

    println!("\nGSB listing lag behind the milker, cumulative over all milked domains:");
    print!("{}", BlacklistLag.compute(&inputs).render_text());
    println!(
        "\nreading: every milked domain could be pushed to a blacklist the moment it\n\
         appears; users would be protected for the whole window during which GSB\n\
         has not yet listed it (or never does)."
    );
}
