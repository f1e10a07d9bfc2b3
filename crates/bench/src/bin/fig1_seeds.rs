//! Checks **Figure 1**'s top-cell shape across generator seeds.
//!
//! For each seed it rasterises the stream at 0.5° (the raster of
//! `tests/paper_shapes.rs::fig1_density_concentrates_on_the_coast`) and
//! prints the five densest cells with three figures each: the distance
//! to the nearest top-20 national city, the distance to the nearest
//! gazetteer settlement (national ∪ NSW ∪ background towns), and the
//! share of the cell's tweets posted by its heaviest user. A last
//! column per seed gives the densest cell's distance to Sydney and the
//! share of tweets in the 300 km interior disc.
//!
//! Seeds: the calibrated preset and 1–10, each at the default 20,000
//! users.

use tweetmob_geo::{haversine_km, DensityGrid, Point, AUSTRALIA_BBOX};
use tweetmob_synth::{
    Area, GeneratorConfig, TweetGenerator, BACKGROUND_TOWNS, NATIONAL_TOP20, NSW_TOP20,
};

const CELL_DEG: f64 = 0.5;

fn nearest_km(areas: &[Area], p: Point) -> (f64, &'static str) {
    areas
        .iter()
        .map(|a| (haversine_km(a.center, p), a.name))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("gazetteer not empty")
}

/// The raster cell of `p`, by the same expression as [`DensityGrid`].
fn cell_of(p: Point) -> (usize, usize) {
    let b = AUSTRALIA_BBOX;
    (
        ((p.lon - b.min_lon) / CELL_DEG).floor() as usize,
        ((p.lat - b.min_lat) / CELL_DEG).floor() as usize,
    )
}

fn main() {
    let seeds = std::iter::once(GeneratorConfig::default().seed).chain(1..=10);
    let gazetteer: Vec<Area> = NATIONAL_TOP20
        .iter()
        .chain(&NSW_TOP20)
        .chain(&BACKGROUND_TOWNS)
        .copied()
        .collect();
    println!("| seed | rank | cell | tweets | top-20 city km | settlement km | top user share |");
    println!("|---|---|---|---|---|---|---|");
    let mut summary = Vec::new();
    for seed in seeds {
        let ds = TweetGenerator::new(GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        })
        .generate();
        let mut grid = DensityGrid::new(AUSTRALIA_BBOX, CELL_DEG);
        grid.extend(ds.iter_points());
        let top = grid.top_cells(5);
        for (rank, cell) in top.iter().enumerate() {
            let heaviest = ds
                .iter_users()
                .map(|v| {
                    v.iter_points()
                        .filter(|&p| {
                            AUSTRALIA_BBOX.contains(p) && cell_of(p) == (cell.col, cell.row)
                        })
                        .count()
                })
                .max()
                .unwrap_or(0);
            let (city_km, city) = nearest_km(&NATIONAL_TOP20, cell.center);
            let (town_km, town) = nearest_km(&gazetteer, cell.center);
            println!(
                "| {seed} | {} | {:.2}, {:.2} | {} | {city_km:.0} ({city}) | {town_km:.0} ({town}) | {:.0} % |",
                rank + 1,
                cell.center.lat,
                cell.center.lon,
                cell.count,
                100.0 * heaviest as f64 / cell.count as f64
            );
        }
        let sydney = Point::new_unchecked(-33.8688, 151.2093);
        let interior = Point::new_unchecked(-25.6, 134.4);
        let inland = ds
            .iter_points()
            .filter(|&p| haversine_km(interior, p) < 300.0)
            .count();
        summary.push((
            seed,
            haversine_km(sydney, top[0].center),
            100.0 * inland as f64 / ds.n_tweets() as f64,
        ));
    }
    println!();
    println!("| seed | densest cell to Sydney, km | interior share |");
    println!("|---|---|---|");
    for (seed, sydney_km, inland) in summary {
        println!("| {seed} | {sydney_km:.0} | {inland:.2} % |");
    }
}
