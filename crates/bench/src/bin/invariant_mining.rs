//! Automates the paper's only substantial manual step (§3.1/§5): deriving
//! each ad network's invariant pattern from obfuscated loader snippets
//! ("about 15 minutes per network" by hand). The miner intersects
//! snippets/URLs from publishers known to run the network, filters
//! boilerplate shared with other networks, and checks that the mined
//! token reverses to the *same* publisher pool as the hand-derived one.

use seacma_bench::{banner, run_args};
use seacma_core::invariants::{mine_world_patterns, pools_match};

fn main() {
    let args = run_args();
    banner("Automatic invariant mining (replaces the §3.1 manual step)");
    let pipeline = seacma_core::Pipeline::new(args.config());
    let world = pipeline.world();

    let mined = mine_world_patterns(world, 5);
    println!(
        "{:<13} {:<24} {:<22} {:>10}",
        "network", "mined JS token", "mined URL token", "pool match"
    );
    let mut matched = 0;
    for (name, m) in &mined {
        let net = world.networks().iter().find(|n| &n.name == name).unwrap();
        let js = m.js_token.as_deref().unwrap_or("-");
        let url = m.url_token.as_deref().unwrap_or("-");
        let ok = m
            .js_token
            .as_deref()
            .map(|tok| pools_match(world, tok, &net.js_invariant))
            .unwrap_or(false);
        if ok {
            matched += 1;
        }
        println!("{name:<13} {js:<24} {url:<22} {:>10}", if ok { "yes" } else { "NO" });
    }
    println!(
        "\n{matched}/{} networks: mined token reverses to the identical publisher pool\n\
         as the hand-derived invariant — stage ① fully automated.",
        mined.len()
    );
}
