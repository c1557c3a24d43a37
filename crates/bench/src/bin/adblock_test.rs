//! Regenerates the §4.4 ad-blocker experiment: latest Chrome + AdBlock
//! Plus vs. the 11 seed networks — which ads still display?

use seacma_bench::{banner, paper_note, run_args};
use seacma_core::adblock::{adblock_experiment, FilterList};
use seacma_simweb::SimTime;

fn main() {
    let args = run_args();
    banner("AdBlock Plus experiment (paper §4.4)");
    let pipeline = seacma_core::Pipeline::new(args.config());
    let world = pipeline.world();
    let list = FilterList::easylist(world);
    println!("filter list entries: {}\n", list.len());

    let results = adblock_experiment(world, SimTime::EPOCH, 500);
    println!("{:<14} {:>8} {:>10}  verdict", "network", "sampled", "% blocked");
    for r in &results {
        println!(
            "{:<14} {:>8} {:>9.1}%  {}",
            r.network,
            r.sampled,
            100.0 * r.blocked_fraction,
            if r.effectively_blocked() { "BLOCKED" } else { "ads still display" }
        );
    }
    let blocked = results.iter().filter(|r| r.effectively_blocked()).count();
    println!("\n{blocked}/11 networks effectively blocked");
    paper_note(&[
        "only Clicksor's ads stopped displaying; the other 10 networks kept serving",
        "malicious ads (rotating code domains stay ahead of the filter lists)",
    ]);
}
