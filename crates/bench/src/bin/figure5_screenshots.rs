//! Reproduces **Figures 5 and 6** — the screenshot galleries of
//! discovered SEACMA campaigns. Writes PGM images (one per campaign
//! category plus the confounders) under `target/seacma-gallery/` and
//! prints ASCII previews.

use std::fs;
use std::path::PathBuf;

use seacma_bench::{banner, run_args};
use seacma_simweb::visual::VisualTemplate;

fn main() {
    let args = run_args();
    banner("Figures 5/6: SE attack screenshot gallery");
    let dir = PathBuf::from("target/seacma-gallery");
    fs::create_dir_all(&dir).expect("create gallery dir");

    let gallery: Vec<(&str, VisualTemplate)> = vec![
        ("fake_software", VisualTemplate::FakeSoftware { skin: 3 }),
        ("tech_support_scam", VisualTemplate::TechSupport { skin: 1 }),
        ("lottery_scam", VisualTemplate::Lottery { skin: 2 }),
        ("scareware", VisualTemplate::Scareware { skin: 0 }),
        ("chrome_notification", VisualTemplate::ChromeNotification { skin: 1 }),
        ("registration", VisualTemplate::Registration { skin: 4 }),
        ("parked_domain", VisualTemplate::Parked { provider: 2 }),
        ("stock_adult", VisualTemplate::StockAdult { image: 1 }),
        ("url_shortener", VisualTemplate::ShortenerFrame { service: 0 }),
    ];

    for (name, template) in &gallery {
        let shot = template.render(args.seed);
        let path = dir.join(format!("{name}.pgm"));
        fs::write(&path, shot.to_pgm()).expect("write pgm");
        println!("\n--- {name} -> {} ---", path.display());
        println!("{}", shot.to_ascii(64));
    }
    println!("gallery written to {}", dir.display());
}
