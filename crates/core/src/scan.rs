//! The one per-user area scan behind both §III population and §IV trips.
//!
//! Both ask the same question of the same `(user, time)`-sorted stream:
//! which areas cover this tweet? Population counts a user once in every
//! area within ε of any of their tweets; trips take each tweet's nearest
//! covering area and count consecutive pairs that land in two areas. One
//! pass over the CSR user ranges answers both, one
//! [`AreaSet::for_each_covering`] call per tweet.

use crate::areaset::AreaSet;
use crate::odmatrix::OdMatrix;
use tweetmob_data::TweetDataset;

/// What one scan of a dataset over an area set found.
pub(crate) struct AreaScan {
    /// Directed trips between the tweets' nearest covering areas.
    pub od: OdMatrix,
    /// Consecutive same-user pairs that contribute no trip.
    pub drops: DropCounts,
    /// Per area, the distinct users with at least one tweet within ε.
    pub users: Vec<u64>,
}

impl AreaScan {
    fn new(n_areas: usize) -> Self {
        Self {
            od: OdMatrix::new(n_areas),
            drops: DropCounts::default(),
            users: vec![0; n_areas],
        }
    }

    fn merge(mut self, other: AreaScan) -> Self {
        self.od.merge(&other.od);
        self.drops.merge(other.drops);
        for (a, b) in self.users.iter_mut().zip(other.users) {
            *a += b;
        }
        self
    }
}

/// Scans every user's time-ordered tweets once.
///
/// Users are sharded by index range over the dataset's CSR user offsets
/// and dispatched over the [`tweetmob_par`] pool as `par/<stage>/*`. A
/// per-chunk `last_user[area]` stamp counts each user once per area, so
/// there is no hit vector, sort or dedup. Every output is an integer sum
/// over users, hence identical at every thread count.
pub(crate) fn scan_areas(dataset: &TweetDataset, areas: &AreaSet, stage: &str) -> AreaScan {
    let starts = dataset.user_starts();
    let (lats, lons) = (dataset.lats(), dataset.lons());
    tweetmob_par::par_map_reduce(
        stage,
        dataset.n_users(),
        64,
        |range| {
            let mut scan = AreaScan::new(areas.len());
            let mut last_user = vec![usize::MAX; areas.len()];
            let mut codes: Vec<i32> = Vec::new();
            for u in range {
                codes.clear();
                for k in starts[u] as usize..starts[u + 1] as usize {
                    codes.push(areas.for_each_covering(lats[k], lons[k], |i| {
                        if last_user[i] != u {
                            last_user[i] = u;
                            scan.users[i] += 1;
                        }
                    }));
                }
                scan.drops.merge(record_codes(&codes, &mut scan.od));
            }
            scan
        },
        AreaScan::merge,
    )
}

/// Folds one user's nearest-area codes (area index or `-1`) into `od`,
/// counting the consecutive pairs that contribute no trip.
fn record_codes(codes: &[i32], od: &mut OdMatrix) -> DropCounts {
    let mut drops = DropCounts::default();
    for w in codes.windows(2) {
        match (w[0], w[1]) {
            (a, b) if a >= 0 && b >= 0 && a != b => od.record(a as usize, b as usize),
            (a, b) if a >= 0 && b >= 0 => drops.same_area += 1,
            _ => drops.unassigned += 1,
        }
    }
    drops
}

/// Tallies of consecutive same-user pairs that contribute no trip.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DropCounts {
    /// Both endpoints resolved to the same area.
    pub same_area: u64,
    /// At least one endpoint resolved to no study area.
    pub unassigned: u64,
}

impl DropCounts {
    fn merge(&mut self, other: DropCounts) {
        self.same_area += other.same_area;
        self.unassigned += other.unassigned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweetmob_data::{Timestamp, Tweet, UserId};
    use tweetmob_geo::{destination, haversine_km, Point};
    use tweetmob_stats::rng::SplitMix64;
    use tweetmob_synth::Area;

    fn aus_point(rng: &mut SplitMix64) -> Point {
        Point::new_unchecked(rng.next_range(-44.0, -10.0), rng.next_range(113.0, 154.0))
    }

    /// Seeded property loop: case `k` draws 1–40 areas (some repeated,
    /// so exact distance ties occur), a log-uniform radius in
    /// 0.1–2,000 km and 200–800 tweets over up to 100 users, half of
    /// them scattered around area centres. The scan's per-area user
    /// counts and OD matrix, and the covering kernel's nearest-area
    /// codes, must equal a brute-force haversine walk, at 1 and at 8
    /// threads.
    #[test]
    fn area_scan_matches_brute_force() {
        for case in 0..64 {
            let rng = &mut SplitMix64::new(case);
            let radius = 10f64.powf(rng.next_range(-1.0, 2_000f64.log10()));
            let mut list: Vec<Area> = Vec::new();
            for _ in 0..1 + rng.next_below(40) {
                let area = match list.len() {
                    n if n > 0 && rng.next_below(6) == 0 => list[rng.next_below(n)],
                    _ => Area {
                        name: "area",
                        center: aus_point(rng),
                        population: 1,
                    },
                };
                list.push(area);
            }
            let areas = AreaSet::new(list.clone(), radius);
            let tweets: Vec<Tweet> = (0..200 + rng.next_below(600))
                .map(|_| {
                    let p = if rng.next_below(2) == 0 {
                        let c = list[rng.next_below(list.len())].center;
                        destination(
                            c,
                            rng.next_range(0.0, 360.0),
                            rng.next_range(0.0, 1.2) * radius,
                        )
                    } else {
                        aus_point(rng)
                    };
                    let user = UserId(rng.next_below(100) as u32);
                    Tweet::new(user, Timestamp::from_secs(rng.next_below(50) as i64), p)
                })
                .collect();
            let ds = TweetDataset::from_tweets(tweets);

            let nearest = |p: Point| -> Option<usize> {
                let mut best: Option<(usize, f64)> = None;
                for (i, a) in list.iter().enumerate() {
                    let d = haversine_km(a.center, p);
                    if d <= radius && best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
                best.map(|(i, _)| i)
            };
            let mut users = vec![0u64; list.len()];
            let mut od = OdMatrix::new(list.len());
            for view in ds.iter_users() {
                for (i, a) in list.iter().enumerate() {
                    if view
                        .iter_points()
                        .any(|p| haversine_km(a.center, p) <= radius)
                    {
                        users[i] += 1;
                    }
                }
                let codes: Vec<Option<usize>> = view.iter_points().map(nearest).collect();
                for w in codes.windows(2) {
                    if let (Some(a), Some(b)) = (w[0], w[1]) {
                        if a != b {
                            od.record(a, b);
                        }
                    }
                }
            }
            let want_codes: Vec<i32> = ds
                .iter_points()
                .map(|p| nearest(p).map_or(-1, |i| i as i32))
                .collect();

            let mut codes = Vec::new();
            areas.assign_batch(ds.lats(), ds.lons(), &mut codes);
            assert_eq!(codes, want_codes, "case {case}, radius {radius} km");
            for threads in [1, 8] {
                let scan = tweetmob_par::with_threads(threads, || scan_areas(&ds, &areas, "test"));
                assert_eq!(
                    scan.users, users,
                    "case {case}, {threads} threads, radius {radius} km"
                );
                assert_eq!(scan.od, od, "case {case}, {threads} threads");
            }
        }
    }
}
