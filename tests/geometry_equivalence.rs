//! Equivalence suite for the cached fitting path (DESIGN.md §11): the
//! shared `PairGeometry` must give **byte-identical** model fits on
//! every paper scale at one worker thread and at eight. Cached geometry
//! against scalar haversine distances is asserted at the unit level
//! (`geo/cache.rs`, `models/radiation.rs`). `with_threads` serialises
//! callers on a global lock, so these tests are safe under the parallel
//! test runner.

use tweetmob::core::{Experiment, Scale};
use tweetmob::par::with_threads;
use tweetmob::synth::{GeneratorConfig, TweetGenerator};

fn config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::small();
    cfg.n_users = 2_000;
    cfg
}

/// One mobility run rendered with `{:?}`, which prints every float
/// exactly (NaN and −0.0 included).
fn report_json(ds: &tweetmob::data::TweetDataset, scale: Scale) -> String {
    let report = Experiment::new(ds)
        .mobility(scale)
        .expect("mobility report");
    format!("{report:?}")
}

#[test]
fn fits_are_thread_invariant_on_every_scale() {
    let ds = TweetGenerator::new(config()).generate();
    for scale in Scale::ALL {
        let baseline = with_threads(1, || report_json(&ds, scale));
        let run = with_threads(8, || report_json(&ds, scale));
        assert_eq!(
            baseline,
            run,
            "{} scale diverged at 8 threads",
            scale.name()
        );
    }
}
