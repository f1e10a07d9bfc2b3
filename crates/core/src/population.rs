//! Population estimation from unique Twitter users (paper §III, Fig. 3).

use crate::areaset::AreaSet;
use crate::scan::scan_areas;
use std::fmt;
use tweetmob_data::TweetDataset;
use tweetmob_stats::correlation::{log_pearson, pearson, Correlation};
use tweetmob_stats::StatsError;

/// One area's population estimate.
#[derive(Debug, Clone)]
pub struct AreaPopulation {
    /// Area name.
    pub name: &'static str,
    /// Census population.
    pub census: f64,
    /// Unique Twitter users with at least one tweet within ε of the
    /// centre.
    pub twitter_users: u64,
    /// `C · twitter_users` where `C = Σ census / Σ twitter` over the
    /// scale (the paper's rescaling `C·p_Twitter ≈ p_Census`).
    pub rescaled: f64,
}

/// Population-estimation result for one area set.
#[derive(Debug, Clone)]
pub struct PopulationCorrelation {
    /// Per-area estimates, in area-set order.
    pub areas: Vec<AreaPopulation>,
    /// The rescaling factor `C`.
    pub rescale_factor: f64,
    /// Pearson correlation of log10(rescaled) vs log10(census) — the
    /// paper's log-log Fig. 3 reading.
    pub correlation: Correlation,
    /// Pearson correlation on raw (linear) values, for reference.
    pub correlation_raw: Correlation,
    /// Median unique-user count across the areas (paper §III quotes
    /// 4166 / 743 / 3988 for its scales).
    pub median_users: f64,
}

impl fmt::Display for PopulationCorrelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>12} {:>14} {:>14}",
            "area", "census", "twitter users", "rescaled"
        )?;
        for a in &self.areas {
            writeln!(
                f,
                "{:<18} {:>12.0} {:>14} {:>14.0}",
                a.name, a.census, a.twitter_users, a.rescaled
            )?;
        }
        write!(
            f,
            "r(log) = {:.3} (p = {:.2e}), r(raw) = {:.3}, C = {:.1}",
            self.correlation.r,
            self.correlation.p_two_tailed,
            self.correlation_raw.r,
            self.rescale_factor
        )
    }
}

/// Pooled population correlation over several scales — the paper's
/// headline "60 samples … Pearson correlation coefficient of 0.816 …
/// two-tailed p-value of 2.06×10⁻¹⁵".
#[derive(Debug, Clone)]
pub struct PooledPopulation {
    /// Per-scale results, in input order.
    pub per_scale: Vec<PopulationCorrelation>,
    /// Pooled log-space correlation across all areas of all scales
    /// (each scale rescaled by its own `C` first, as in Fig. 3).
    pub pooled: Correlation,
    /// Pooled raw-value correlation.
    pub pooled_raw: Correlation,
}

/// Estimates populations for one area set: the paper's §III count of
/// distinct users with at least one tweet within ε of each centre. A
/// tweet counts toward every area that covers it, not only the nearest.
/// The counts come from the one per-user area scan that trips also use,
/// so they are identical at every thread count.
///
/// # Errors
///
/// [`StatsError::EmptySample`] when no tweet falls within any study
/// area — the rescaling factor `Σcensus / Σtwitter` is undefined (it
/// used to silently come out NaN and poison every downstream metric).
/// Otherwise propagates correlation failures (e.g. every area had the
/// same user count → zero variance).
pub fn estimate_population(
    dataset: &TweetDataset,
    areas: &AreaSet,
) -> Result<PopulationCorrelation, StatsError> {
    let _span = tweetmob_obs::span!("population");
    population_from_counts(areas, &scan_areas(dataset, areas, "population").users)
}

/// Rescales per-area distinct-user counts and correlates them with the
/// census.
///
/// # Errors
///
/// As [`estimate_population`].
pub(crate) fn population_from_counts(
    areas: &AreaSet,
    twitter: &[u64],
) -> Result<PopulationCorrelation, StatsError> {
    let census = areas.census_populations();
    let census_total: f64 = census.iter().sum();
    let twitter_total: f64 = twitter.iter().map(|&u| u as f64).sum();
    if twitter_total <= 0.0 {
        return Err(StatsError::EmptySample(
            "no tweets within any study area; rescaling factor undefined",
        ));
    }
    let rescale_factor = census_total / twitter_total;
    let rescaled: Vec<f64> = twitter.iter().map(|&u| u as f64 * rescale_factor).collect();
    let correlation = log_pearson(&rescaled, &census)?;
    let correlation_raw = pearson(&rescaled, &census)?;
    let user_counts: Vec<f64> = twitter.iter().map(|&u| u as f64).collect();
    let median_users = tweetmob_stats::descriptive::median(&user_counts)?;

    let areas_out = areas
        .areas()
        .iter()
        .zip(twitter.iter().zip(&rescaled))
        .map(|(a, (&tw, &rs))| AreaPopulation {
            name: a.name,
            census: a.population as f64,
            twitter_users: tw,
            rescaled: rs,
        })
        .collect();
    Ok(PopulationCorrelation {
        areas: areas_out,
        rescale_factor,
        correlation,
        correlation_raw,
        median_users,
    })
}

/// Pools several per-scale results into the paper's 60-sample
/// correlation.
///
/// # Errors
///
/// Correlation failures on the pooled samples.
pub fn pool_population(
    per_scale: Vec<PopulationCorrelation>,
) -> Result<PooledPopulation, StatsError> {
    let mut est = Vec::new();
    let mut census = Vec::new();
    for scale in &per_scale {
        for a in &scale.areas {
            est.push(a.rescaled);
            census.push(a.census);
        }
    }
    let pooled = log_pearson(&est, &census)?;
    let pooled_raw = pearson(&est, &census)?;
    Ok(PooledPopulation {
        per_scale,
        pooled,
        pooled_raw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::areaset::Scale;
    use tweetmob_data::{Timestamp, Tweet, UserId};

    /// Builds a dataset with `users_per_area[i]` distinct users tweeting
    /// at national area `i`'s centre.
    fn dataset_with_users(users_per_area: &[u64]) -> TweetDataset {
        let areas = Scale::National.areas();
        let mut tweets = Vec::new();
        let mut uid = 0u32;
        for (i, &n) in users_per_area.iter().enumerate() {
            for _ in 0..n {
                // Two tweets per user, both at the same centre: unique
                // user counting must not double-count.
                tweets.push(Tweet::new(
                    UserId(uid),
                    Timestamp::from_secs(100),
                    areas[i].center,
                ));
                tweets.push(Tweet::new(
                    UserId(uid),
                    Timestamp::from_secs(200),
                    areas[i].center,
                ));
                uid += 1;
            }
        }
        TweetDataset::from_tweets(tweets)
    }

    #[test]
    fn unique_users_counted_once() {
        // Users proportional to census → perfect correlation, C exact.
        let areas = AreaSet::of_scale(Scale::National);
        let users: Vec<u64> = areas
            .areas()
            .iter()
            .map(|a| (a.population / 10_000).max(1))
            .collect();
        let ds = dataset_with_users(&users);
        let pop = estimate_population(&ds, &areas).unwrap();
        for (a, &want) in pop.areas.iter().zip(&users) {
            assert_eq!(a.twitter_users, want, "{}", a.name);
        }
        assert!(pop.correlation.r > 0.999, "r = {}", pop.correlation.r);
        // C should be close to 10,000 (the construction ratio).
        assert!(
            (pop.rescale_factor - 10_000.0).abs() / 10_000.0 < 0.05,
            "C = {}",
            pop.rescale_factor
        );
    }

    #[test]
    fn rescaled_totals_match_census_total() {
        let areas = AreaSet::of_scale(Scale::National);
        let users: Vec<u64> = (1..=20).map(|i| i * 7).collect();
        let ds = dataset_with_users(&users);
        let pop = estimate_population(&ds, &areas).unwrap();
        let rescaled_total: f64 = pop.areas.iter().map(|a| a.rescaled).sum();
        let census_total: f64 = pop.areas.iter().map(|a| a.census).sum();
        assert!((rescaled_total - census_total).abs() / census_total < 1e-9);
    }

    #[test]
    fn scrambled_users_give_weak_correlation() {
        // Assign user counts inversely to population rank (the census
        // list is descending, so ascending counts anti-align) → negative
        // or weak correlation.
        let users: Vec<u64> = (1..=20).map(|i| i * 50).collect();
        let areas = AreaSet::of_scale(Scale::National);
        let ds = dataset_with_users(&users);
        let pop = estimate_population(&ds, &areas).unwrap();
        assert!(pop.correlation.r < 0.3, "r = {}", pop.correlation.r);
    }

    #[test]
    fn users_outside_radius_not_counted() {
        // One user 60 km from Sydney: outside the 50 km national radius.
        let sydney = Scale::National.areas()[0].center;
        let far = tweetmob_geo::destination(sydney, 90.0, 60.0);
        let mut tweets = vec![Tweet::new(UserId(0), Timestamp::from_secs(1), far)];
        // Give every other area one user so correlation is defined.
        for (i, a) in Scale::National.areas().iter().enumerate().skip(1) {
            tweets.push(Tweet::new(
                UserId(i as u32 + 1),
                Timestamp::from_secs(1),
                a.center,
            ));
        }
        let ds = TweetDataset::from_tweets(tweets);
        let areas = AreaSet::of_scale(Scale::National);
        let pop = estimate_population(&ds, &areas).unwrap();
        assert_eq!(pop.areas[0].twitter_users, 0, "Sydney should see nobody");
    }

    #[test]
    fn a_tweet_counts_in_every_covering_area_but_trips_take_the_nearest() {
        // Sydney and Newcastle are ~117 km apart, so their 100 km discs
        // overlap; Melbourne is far from both.
        let national = Scale::National.areas();
        let (syd, new, mel) = (national[0], national[6], national[1]);
        let areas = AreaSet::new(vec![syd, new, mel], 100.0);
        // ~90 km from Sydney, ~30 km from Newcastle.
        let overlap = tweetmob_geo::Point::new_unchecked(-33.15, 151.60);
        let at = |user: u32, secs: i64, p| Tweet::new(UserId(user), Timestamp::from_secs(secs), p);
        let ds = TweetDataset::from_tweets(vec![
            at(0, 1, overlap),
            at(0, 2, overlap),
            at(1, 1, syd.center),
            at(1, 2, new.center),
            at(2, 1, syd.center),
            at(3, 1, mel.center),
        ]);
        let pop = estimate_population(&ds, &areas).unwrap();
        let users: Vec<u64> = pop.areas.iter().map(|a| a.twitter_users).collect();
        // User 0 counts once in Sydney and once in Newcastle; nearest-area
        // counting would give [2, 2, 1].
        assert_eq!(users, vec![3, 2, 1]);
        // Trips take the nearest covering area: user 0's pair is a
        // Newcastle → Newcastle non-trip, user 1 travels Sydney → Newcastle.
        assert_eq!(areas.assign(overlap), Some(1));
        let od = crate::trips::extract_trips(&ds, &areas);
        assert_eq!(od.total(), 1);
        assert_eq!(od.count(0, 1), 1);
    }

    #[test]
    fn no_hits_is_an_error_not_nan() {
        // Every tweet is in the outback, outside all national areas.
        // Regression: the rescale factor used to come out NaN and poison
        // every downstream metric silently.
        let tweets: Vec<Tweet> = (0..10)
            .map(|u| {
                Tweet::new(
                    UserId(u),
                    Timestamp::from_secs(i64::from(u)),
                    tweetmob_geo::Point::new_unchecked(-25.0, 135.0),
                )
            })
            .collect();
        let ds = TweetDataset::from_tweets(tweets);
        let areas = AreaSet::of_scale(Scale::National);
        let err = estimate_population(&ds, &areas).unwrap_err();
        assert!(matches!(err, StatsError::EmptySample(_)), "got {err:?}");
    }

    #[test]
    fn pooling_concatenates_scales() {
        let areas = AreaSet::of_scale(Scale::National);
        let users: Vec<u64> = areas
            .areas()
            .iter()
            .map(|a| (a.population / 10_000).max(1))
            .collect();
        let ds = dataset_with_users(&users);
        let a = estimate_population(&ds, &areas).unwrap();
        let b = estimate_population(&ds, &areas).unwrap();
        let pooled = pool_population(vec![a, b]).unwrap();
        assert_eq!(pooled.per_scale.len(), 2);
        assert_eq!(pooled.pooled.n, 40);
        assert!(pooled.pooled.r > 0.999);
    }

    #[test]
    fn display_shows_table() {
        let areas = AreaSet::of_scale(Scale::National);
        let users: Vec<u64> = (1..=20).collect();
        let ds = dataset_with_users(&users);
        let text = estimate_population(&ds, &areas).unwrap().to_string();
        assert!(text.contains("Sydney"));
        assert!(text.contains("r(log)"));
    }
}
