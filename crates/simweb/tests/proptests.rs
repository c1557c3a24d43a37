//! Property-based tests over the simulated-web primitives, on the in-tree
//! deterministic harness (`seacma_util::prop`). Each `forall!` case is a
//! pure function of its case index — a failure report names the case,
//! which is a complete reproduction recipe.

use seacma_util::forall;
use seacma_util::prop::{Rng, DIGITS, LOWER, LOWER_DIGITS};

use seacma_simweb::det::{det_f64, det_hash, det_range, det_weighted};
use seacma_simweb::{e2ld, SimDuration, SimTime, Url};

/// `[a-z][a-z0-9]{0,8}` labels, 1–3 of them, dot-joined.
fn gen_host(rng: &mut Rng) -> String {
    let labels = rng.range(1, 4);
    (0..labels)
        .map(|_| {
            let mut label = rng.string_of(LOWER, 1, 1);
            label.push_str(&rng.string_of(LOWER_DIGITS, 0, 8));
            label
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// `/` plus 0–3 `[a-zA-Z0-9_.-]{1,8}` segments.
fn gen_path(rng: &mut Rng) -> String {
    const SEG: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    let segs = rng.vec_of(0, 3, |r| r.string_of(SEG, 1, 8));
    format!("/{}", segs.join("/"))
}

/// Url display → parse round-trips.
#[test]
fn url_roundtrip() {
    forall!(|rng| {
        let host = gen_host(rng);
        let mut p = gen_path(rng);
        let q = rng.string_of("abcdefghijklmnopqrstuvwxyz0123456789=&", 0, 12);
        if !q.is_empty() {
            p.push('?');
            p.push_str(&q);
        }
        let u = Url::http(host, p);
        let s = u.to_string();
        let back: Url = s.parse().expect("display form must parse");
        assert_eq!(back, u);
    });
}

/// e2LD is idempotent and a suffix of the input host.
#[test]
fn e2ld_idempotent_and_suffix() {
    forall!(|rng| {
        let host = gen_host(rng);
        let a = e2ld(&host);
        assert_eq!(e2ld(&a), a);
        assert!(host.ends_with(&a) || host == a);
    });
}

/// Subdomains never change the e2LD of a registrable (≥ 2 label) host.
#[test]
fn e2ld_ignores_subdomains() {
    forall!(|rng| {
        let host = gen_host(rng);
        if !host.contains('.') {
            return;
        }
        let sub = rng.string_of(LOWER, 1, 6);
        let base = e2ld(&host);
        assert_eq!(e2ld(&format!("{sub}.{host}")), base);
    });
}

/// same_site is reflexive and symmetric.
#[test]
fn same_site_symmetry() {
    forall!(|rng| {
        let a = gen_host(rng);
        let b = gen_host(rng);
        assert!(seacma_simweb::domain::same_site(&a, &a));
        assert_eq!(
            seacma_simweb::domain::same_site(&a, &b),
            seacma_simweb::domain::same_site(&b, &a)
        );
    });
}

/// det_hash has no accidental word-order collisions on random input.
#[test]
fn det_hash_order_sensitive() {
    forall!(|rng| {
        let a = rng.u64();
        let b = rng.u64();
        if a == b {
            return;
        }
        assert_ne!(det_hash(&[a, b]), det_hash(&[b, a]));
    });
}

/// det_range always lands in range and det_f64 in [0,1).
#[test]
fn det_bounds() {
    forall!(|rng| {
        let words = rng.vec_of(1, 5, Rng::u64);
        let n = rng.range_u64(1, 10_000);
        assert!(det_range(&words, n) < n);
        let x = det_f64(&words);
        assert!((0.0..1.0).contains(&x));
    });
}

/// det_weighted never picks a zero-weight index.
#[test]
fn det_weighted_skips_zeros() {
    forall!(|rng| {
        let seed = rng.u64();
        let zero_at = rng.range(0, 4);
        let mut weights = [1.0f64; 4];
        weights[zero_at] = 0.0;
        for i in 0..50u64 {
            let pick = det_weighted(&[seed, i], &weights);
            assert_ne!(pick, zero_at);
        }
    });
}

/// SimTime arithmetic is associative with durations.
#[test]
fn time_arithmetic() {
    forall!(|rng| {
        let t = rng.range_u64(0, 1_000_000);
        let a = rng.range_u64(0, 10_000);
        let b = rng.range_u64(0, 10_000);
        let base = SimTime(t);
        let left = base + SimDuration(a) + SimDuration(b);
        let right = base + (SimDuration(a) + SimDuration(b));
        assert_eq!(left, right);
        assert_eq!((left - base).minutes(), a + b);
    });
}

/// Throwaway and common domain generators always emit parseable hosts
/// whose e2LD equals themselves (single registrable label + TLD).
#[test]
fn generated_domains_are_registrable() {
    forall!(|rng| {
        let words = rng.vec_of(1, 3, Rng::u64);
        let d1 = seacma_simweb::names::throwaway_domain(&words);
        let d2 = seacma_simweb::names::common_domain(&words);
        for d in [d1, d2] {
            assert_eq!(e2ld(&d), d, "generator must emit apex domains");
            let u = Url::http(d, "/x");
            assert!(u.to_string().parse::<Url>().is_ok());
        }
    });
}

/// Digit-heavy hosts exercise the label edge cases too.
#[test]
fn e2ld_handles_numeric_labels() {
    forall!(|rng| {
        let host = format!("{}.{}", rng.string_of(DIGITS, 1, 4), gen_host(rng));
        let a = e2ld(&host);
        assert_eq!(e2ld(&a), a);
    });
}

mod json_roundtrips {
    use seacma_simweb::SeCategory;
    use seacma_util::json;

    #[test]
    fn enums_json_roundtrip() {
        for cat in SeCategory::ALL {
            let text = json::to_string(&cat);
            assert_eq!(json::from_str::<SeCategory>(&text).unwrap(), cat);
        }
    }
}
