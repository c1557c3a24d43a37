//! Reproduces **Figure 4** — milking one upstream URL over time: the
//! succession of fresh attack domains it yields, with GSB listing status.

use seacma_bench::{banner, run_args};
use seacma_blacklist::{GsbService, VirusTotal};
use seacma_milker::{Milker, MilkingSource};
use seacma_simweb::{SeCategory, SimTime};
use seacma_vision::dhash::dhash128;

fn main() {
    let args = run_args();
    banner("Figure 4: milking a single upstream URL");
    let pipeline = seacma_core::Pipeline::new(args.config());
    let world = pipeline.world();

    let campaign = world
        .campaigns()
        .iter()
        .find(|c| c.tds_domain.is_some() && c.category == SeCategory::FakeSoftware)
        .expect("a milkable fake-software campaign exists");
    let source = MilkingSource {
        url: campaign.tds_url(0).unwrap(),
        ua: seacma_simweb::UaProfile::ChromeMac,
        cluster: 0,
        reference: dhash128(&campaign.template().render(1)),
    };
    println!("milkable URL: {}  (campaign: {})\n", source.url, campaign.category);

    let mut gsb = GsbService::new(world);
    let mut vt = VirusTotal::new(7);
    let mut config = pipeline.config().milking;
    config.duration = seacma_simweb::SimDuration::from_days(args.milk_days);
    let out = Milker::new(world, config).run_parallel(
        &[source],
        &mut gsb,
        &mut vt,
        SimTime::EPOCH,
        0,
    );

    println!("{:>10}  {:<28}  {}", "sim time", "fresh attack domain", "GSB status");
    for d in &out.discoveries {
        let status = match d.gsb_listed_at {
            Some(at) => format!("listed after {:.1} days", (at - d.first_seen).as_days()),
            None => "never listed".to_string(),
        };
        println!("{:>10}  {:<28}  {status}", d.first_seen.to_string(), d.domain);
    }
    println!(
        "\n{} domains over {} days ({} sessions); files milked: {}",
        out.discoveries.len(),
        args.milk_days,
        out.sessions,
        out.files.len()
    );
    println!("paper reference: findglo210.info -> live6nmld10.club -> relsta60.club -> 99cret1040.club ...");
}
