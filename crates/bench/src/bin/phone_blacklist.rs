//! Intelligence side-channels of the milker (paper §4.3): scam
//! call-center numbers from tech-support pages, survey-scam gateways from
//! lottery pages and push-notification permission grants — each a
//! blacklist/feed the system produces in real time.

use seacma_bench::{banner, paper_note, run_args};
use seacma_core::Pipeline;

fn main() {
    let args = run_args();
    banner("Milked intelligence: phones, survey gateways, notification grants");
    let run = Pipeline::new(args.config()).run_to_completion();
    let m = &run.milking;

    println!("scam phone numbers collected ({}):", m.scam_phones.len());
    for (phone, t, cluster) in &m.scam_phones {
        println!("  {t}  {phone}  (campaign cluster {cluster})");
    }

    println!("\nsurvey-scam gateways collected ({}):", m.survey_gateways.len());
    for (gw, t, cluster) in m.survey_gateways.iter().take(20) {
        println!("  {t}  {gw}  (campaign cluster {cluster})");
    }
    if m.survey_gateways.len() > 20 {
        println!("  … and {} more", m.survey_gateways.len() - 20);
    }

    println!(
        "\nnotification-permission grants recorded: {} (on {} distinct domains)",
        m.notification_grants.len(),
        m.notification_grants
            .iter()
            .map(|(u, _, _)| u.e2ld())
            .collect::<std::collections::HashSet<_>>()
            .len()
    );
    paper_note(&[
        "tech-support scams are cross-channel: the web page exists to deliver a phone",
        "number; collecting them in real time feeds call-blocking lists (§4.3).",
        "lottery pages gateway into survey scams (Surveylance); notification grants",
        "let attackers push malicious content long after the page is gone.",
    ]);
}
