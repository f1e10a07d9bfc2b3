//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, not just the synthetic presets. Each property runs `CASES`
//! seeded cases; case `k` draws from its own [`SplitMix64`] stream, so
//! a failure names the case that reproduces it.

use tweetmob::data::{Timestamp, Tweet, TweetDataset, UserId};
use tweetmob::geo::{destination, haversine_km, BoundingBox, Point};
use tweetmob::models::{FittedModel, FlowObservation, Gravity2Fit};
use tweetmob::stats::correlation::pearson;
use tweetmob::stats::descriptive::{mean, quantile};
use tweetmob::stats::metrics::{hit_rate, sorensen_index};
use tweetmob::stats::rng::SplitMix64;

const CASES: u64 = 64;

fn arb_point(rng: &mut SplitMix64) -> Point {
    Point::new_unchecked(rng.next_range(-85.0, 85.0), rng.next_range(-179.0, 179.0))
}

/// Between `lo` and `hi - 1` draws of `item`.
fn arb_vec<T>(
    rng: &mut SplitMix64,
    lo: usize,
    hi: usize,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let n = lo + rng.next_below(hi - lo);
    (0..n).map(|_| item(rng)).collect()
}

#[test]
fn haversine_is_a_metric() {
    for case in 0..CASES {
        let rng = &mut SplitMix64::new(case);
        let (a, b, c) = (arb_point(rng), arb_point(rng), arb_point(rng));
        let ab = haversine_km(a, b);
        let ba = haversine_km(b, a);
        assert!((ab - ba).abs() < 1e-9, "case {case}: symmetry");
        assert!(ab >= 0.0, "case {case}: non-negativity");
        // Triangle inequality (with float slack).
        let ac = haversine_km(a, c);
        let cb = haversine_km(c, b);
        assert!(ab <= ac + cb + 1e-6, "case {case}: triangle inequality");
    }
}

#[test]
fn destination_inverts_distance() {
    for case in 0..CASES {
        let rng = &mut SplitMix64::new(case);
        let p = arb_point(rng);
        let bearing = rng.next_range(0.0, 360.0);
        let dist = rng.next_range(0.0, 5_000.0);
        let q = destination(p, bearing, dist);
        let measured = haversine_km(p, q);
        assert!(
            (measured - dist).abs() < 1e-6 * dist.max(1.0),
            "case {case}: wanted {dist}, measured {measured}"
        );
    }
}

#[test]
fn bounding_box_covering_contains_all() {
    for case in 0..CASES {
        let pts = arb_vec(&mut SplitMix64::new(case), 1, 100, arb_point);
        let bbox = BoundingBox::covering(pts.iter().copied()).unwrap();
        for p in &pts {
            assert!(bbox.contains(*p), "case {case}: {p}");
        }
    }
}

#[test]
fn dataset_is_sorted_and_complete() {
    for case in 0..CASES {
        let tweets = arb_vec(&mut SplitMix64::new(case), 0, 300, |rng| {
            Tweet::new(
                UserId(rng.next_below(20) as u32),
                Timestamp::from_secs(rng.next_below(10_000) as i64),
                Point::new_unchecked(rng.next_range(-40.0, -20.0), rng.next_range(120.0, 150.0)),
            )
        });
        let ds = TweetDataset::from_tweets(tweets.clone());
        assert_eq!(ds.n_tweets(), tweets.len(), "case {case}");
        // Rows sorted by (user, time).
        let mut prev: Option<(UserId, Timestamp)> = None;
        for t in ds.iter_tweets() {
            if let Some((pu, pt)) = prev {
                assert!((t.user, t.time) >= (pu, pt), "case {case}: unsorted");
            }
            prev = Some((t.user, t.time));
        }
        // Per-user views partition the rows.
        let total: usize = ds.iter_users().map(|v| v.len()).sum();
        assert_eq!(total, tweets.len(), "case {case}");
    }
}

#[test]
fn pearson_bounded_and_affine_invariant() {
    for case in 0..CASES {
        let rng = &mut SplitMix64::new(case);
        let pairs = arb_vec(rng, 3, 100, |r| {
            (r.next_range(-1e6, 1e6), r.next_range(-1e6, 1e6))
        });
        let scale = rng.next_range(0.001, 1000.0);
        let offset = rng.next_range(-1e5, 1e5);
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Ok(c) = pearson(&x, &y) {
            assert!((-1.0..=1.0).contains(&c.r), "case {case}: r = {}", c.r);
            if c.p_two_tailed.is_finite() {
                assert!((0.0..=1.0).contains(&c.p_two_tailed), "case {case}");
            }
            let x2: Vec<f64> = x.iter().map(|v| v * scale + offset).collect();
            if let Ok(c2) = pearson(&x2, &y) {
                assert!(
                    (c.r - c2.r).abs() < 1e-6,
                    "case {case}: r {} vs {}",
                    c.r,
                    c2.r
                );
            }
        }
    }
}

#[test]
fn quantile_within_sample_range() {
    for case in 0..CASES {
        let rng = &mut SplitMix64::new(case);
        let xs = arb_vec(rng, 1, 200, |r| r.next_range(-1e9, 1e9));
        let q = rng.next_f64();
        let v = quantile(&xs, q).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo && v <= hi, "case {case}: q = {q}");
        // Monotone in q.
        let v2 = quantile(&xs, (q + 0.1).min(1.0)).unwrap();
        assert!(v2 >= v - 1e-9, "case {case}: q = {q}");
    }
}

#[test]
fn mean_between_min_and_max() {
    for case in 0..CASES {
        let xs = arb_vec(&mut SplitMix64::new(case), 1, 200, |r| {
            r.next_range(-1e9, 1e9)
        });
        let m = mean(&xs).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo - 1e-6 && m <= hi + 1e-6, "case {case}");
    }
}

#[test]
fn hit_rate_and_sorensen_bounded() {
    for case in 0..CASES {
        let pairs = arb_vec(&mut SplitMix64::new(case), 1, 100, |r| {
            (r.next_range(0.1, 1e6), r.next_range(0.1, 1e6))
        });
        let est: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let obs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let hr = hit_rate(&est, &obs, 0.5).unwrap();
        assert!((0.0..=1.0).contains(&hr), "case {case}");
        let ssi = sorensen_index(&est, &obs).unwrap();
        assert!((0.0..=1.0).contains(&ssi), "case {case}");
        // Perfect estimates are perfect under both metrics.
        assert_eq!(hit_rate(&obs, &obs, 0.5).unwrap(), 1.0, "case {case}");
        assert!(
            (sorensen_index(&obs, &obs).unwrap() - 1.0).abs() < 1e-12,
            "case {case}"
        );
    }
}

#[test]
fn gravity2_fit_recovers_generating_law() {
    for case in 0..CASES {
        let rng = &mut SplitMix64::new(case);
        let c = rng.next_range(0.001, 10.0);
        let gamma = rng.next_range(0.2, 3.0);
        let obs = arb_vec(rng, 10, 60, |r| {
            let (m, n, d) = (
                r.next_range(1e3, 1e6),
                r.next_range(1e3, 1e6),
                r.next_range(5.0, 3_000.0),
            );
            FlowObservation {
                origin_population: m,
                dest_population: n,
                distance_km: d,
                intervening_population: 0.0,
                observed_flow: c * m * n / d.powf(gamma),
            }
        });
        if let Ok(fit) = Gravity2Fit::fit(&obs) {
            assert!(
                (fit.gamma - gamma).abs() < 1e-6,
                "case {case}: gamma {} vs {gamma}",
                fit.gamma
            );
            for o in &obs {
                let rel = (fit.predict_flow(o) - o.observed_flow).abs() / o.observed_flow;
                assert!(rel < 1e-6, "case {case}: relative error {rel}");
            }
        }
    }
}
