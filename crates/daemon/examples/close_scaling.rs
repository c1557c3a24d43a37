//! How an epoch close scales with history: p50 of `end_epoch` and of
//! `Daemon::close_epoch` over 20 steady 250-point epochs, at 15k, 30k, 60k
//! and 120k unique points. History is the benchmark's synthetic shape (one
//! campaign template per 150 points, 80 % near-duplicates on 12 rotating
//! e2LDs, 20 % noise); a steady epoch is 80 % near-duplicates of resident
//! points on their own e2LDs plus 20 % noise. Run with
//! `cargo run --release -p seacma-daemon --example close_scaling`.

use std::time::Instant;

use seacma_daemon::Daemon;
use seacma_tracker::{CampaignTracker, TrackerConfig};
use seacma_util::prop::Rng;
use seacma_vision::cluster::ScreenshotPoint as Point;
use seacma_vision::dhash::Dhash;

/// `n` points, each with 80 % odds a near-duplicate (≤ 3 flipped bits) of
/// the `(hash, e2LD)` that `like` draws, else uniform noise.
fn draw(
    rng: &mut Rng,
    n: usize,
    tag: &str,
    like: impl Fn(&mut Rng) -> (u128, String),
) -> Vec<Point> {
    (0..n)
        .map(|i| {
            if !rng.bool(0.8) {
                return Point::new(Dhash(rng.u128()), format!("{tag}-{i}.info"));
            }
            let (mut h, e2ld) = like(rng);
            for _ in 0..rng.below(4) {
                h ^= 1u128 << rng.below(128);
            }
            Point::new(Dhash(h), e2ld)
        })
        .collect()
}

fn p50(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

fn main() {
    let mut rng = Rng::new(0x5CA1E);
    let mut tracker = CampaignTracker::new(TrackerConfig::default());
    let mut daemon = Daemon::new(TrackerConfig::default());
    let mut resident: Vec<Point> = Vec::new();
    println!("  unique  end_epoch p50 ms  close_epoch p50 ms");
    for (step, target) in [15_000, 30_000, 60_000, 120_000].into_iter().enumerate() {
        let n = target - tracker.unique_len().min(target);
        let centers: Vec<u128> = (0..n / 150 + 1).map(|_| rng.u128()).collect();
        let (mut end, mut close) = (Vec::new(), Vec::new());
        for e in 0..=20 {
            // Epoch 0 tops the history up to `target`; 1..=20 are timed.
            let batch = if e == 0 {
                draw(&mut rng, n, &format!("noise{step}"), |rng| {
                    let c = rng.below(centers.len() as u64) as usize;
                    (centers[c], format!("c{step}-{c}-{}.club", rng.below(12)))
                })
            } else {
                draw(&mut rng, 250, &format!("fresh{step}-{e}"), |rng| {
                    let p = rng.pick(&resident);
                    (p.dhash.0, p.e2ld.clone())
                })
            };
            tracker.ingest_all(batch.iter().cloned());
            daemon.ingest_all(batch.iter().cloned());
            resident.extend(batch);
            let t = Instant::now();
            tracker.end_epoch();
            end.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            daemon.close_epoch();
            close.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let (end, close) = (p50(end.split_off(1)), p50(close.split_off(1)));
        println!("{:>8} {end:>17.3} {close:>19.3}", tracker.unique_len());
    }
}
