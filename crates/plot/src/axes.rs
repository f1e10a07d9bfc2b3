//! Axis mapping: data coordinates → pixels, with tick generation.

/// Linear or logarithmic axis scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisKind {
    /// Linear interpolation between min and max.
    Linear,
    /// Base-10 logarithmic; requires positive bounds and drops
    /// non-positive samples.
    Log,
}

/// A one-dimensional axis: data range plus a pixel range.
#[derive(Debug, Clone)]
pub struct Axis {
    kind: AxisKind,
    data_min: f64,
    data_max: f64,
    px_min: f64,
    px_max: f64,
}

impl Axis {
    /// Builds an axis. For [`AxisKind::Log`] the data bounds are clamped
    /// to a positive floor; a degenerate range is widened symmetrically
    /// so projection never divides by zero.
    pub fn new(kind: AxisKind, data_min: f64, data_max: f64, px_min: f64, px_max: f64) -> Self {
        let (mut lo, mut hi) = match kind {
            AxisKind::Linear => (data_min, data_max),
            AxisKind::Log => (data_min.max(1e-12), data_max.max(1e-12)),
        };
        // A NaN bound counts as degenerate too.
        if hi <= lo || hi.is_nan() || lo.is_nan() {
            match kind {
                AxisKind::Linear => {
                    lo -= 0.5;
                    hi += 0.5;
                }
                AxisKind::Log => {
                    lo /= 2.0;
                    hi *= 2.0;
                }
            }
        }
        Self {
            kind,
            data_min: lo,
            data_max: hi,
            px_min,
            px_max,
        }
    }

    /// The (possibly adjusted) data bounds.
    pub fn data_bounds(&self) -> (f64, f64) {
        (self.data_min, self.data_max)
    }

    /// Projects a data value to pixels. Log axes return `None` for
    /// non-positive values (they have no position on the axis).
    pub fn project(&self, v: f64) -> Option<f64> {
        let t = match self.kind {
            AxisKind::Linear => (v - self.data_min) / (self.data_max - self.data_min),
            AxisKind::Log => {
                if v <= 0.0 {
                    return None;
                }
                (v.ln() - self.data_min.ln()) / (self.data_max.ln() - self.data_min.ln())
            }
        };
        Some(self.px_min + t * (self.px_max - self.px_min))
    }

    /// Tick positions in data space: decades for log axes, ~5 round steps
    /// for linear ones. Always inside the data bounds.
    pub fn ticks(&self) -> Vec<f64> {
        match self.kind {
            AxisKind::Log => {
                let lo = self.data_min.log10().ceil() as i32;
                let hi = self.data_max.log10().floor() as i32;
                (lo..=hi).map(|e| 10f64.powi(e)).collect()
            }
            AxisKind::Linear => {
                let span = self.data_max - self.data_min;
                let raw_step = span / 5.0;
                // Round to 1/2/5 × 10^k.
                let mag = 10f64.powf(raw_step.log10().floor());
                let norm = raw_step / mag;
                let step = if norm < 1.5 {
                    mag
                } else if norm < 3.5 {
                    2.0 * mag
                } else if norm < 7.5 {
                    5.0 * mag
                } else {
                    10.0 * mag
                };
                let start = (self.data_min / step).ceil() * step;
                let mut ticks = Vec::new();
                let mut v = start;
                while v <= self.data_max + step * 1e-9 {
                    ticks.push(v);
                    v += step;
                }
                ticks
            }
        }
    }

    /// Compact label for a tick value (`10^k` decades as `1e k`, linear
    /// values trimmed).
    pub fn tick_label(&self, v: f64) -> String {
        match self.kind {
            AxisKind::Log => {
                let e = v.log10().round() as i32;
                format!("1e{e}")
            }
            AxisKind::Linear => {
                if v.abs() >= 1e4 || (v != 0.0 && v.abs() < 1e-2) {
                    format!("{v:.1e}")
                } else {
                    let s = format!("{v:.2}");
                    s.trim_end_matches('0').trim_end_matches('.').to_string()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_projection_endpoints() {
        let a = Axis::new(AxisKind::Linear, 0.0, 10.0, 100.0, 200.0);
        assert_eq!(a.project(0.0), Some(100.0));
        assert_eq!(a.project(10.0), Some(200.0));
        assert_eq!(a.project(5.0), Some(150.0));
    }

    #[test]
    fn log_projection_is_decade_uniform() {
        let a = Axis::new(AxisKind::Log, 1.0, 100.0, 0.0, 100.0);
        assert!((a.project(1.0).unwrap() - 0.0).abs() < 1e-9);
        assert!((a.project(10.0).unwrap() - 50.0).abs() < 1e-9);
        assert!((a.project(100.0).unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(a.project(0.0), None);
        assert_eq!(a.project(-5.0), None);
    }

    #[test]
    fn inverted_pixel_range_supported() {
        // SVG y grows downward; charts pass px_min > px_max for y.
        let a = Axis::new(AxisKind::Linear, 0.0, 1.0, 300.0, 50.0);
        assert_eq!(a.project(0.0), Some(300.0));
        assert_eq!(a.project(1.0), Some(50.0));
    }

    #[test]
    fn degenerate_ranges_are_widened() {
        let lin = Axis::new(AxisKind::Linear, 3.0, 3.0, 0.0, 100.0);
        let (lo, hi) = lin.data_bounds();
        assert!(lo < 3.0 && hi > 3.0);
        assert!(lin.project(3.0).unwrap().is_finite());
        let log = Axis::new(AxisKind::Log, 5.0, 5.0, 0.0, 100.0);
        assert!(log.project(5.0).unwrap().is_finite());
    }

    #[test]
    fn log_ticks_are_decades() {
        let a = Axis::new(AxisKind::Log, 3.0, 5_000.0, 0.0, 1.0);
        assert_eq!(a.ticks(), vec![10.0, 100.0, 1_000.0]);
        assert_eq!(a.tick_label(100.0), "1e2");
    }

    #[test]
    fn linear_ticks_are_round_and_bounded() {
        let a = Axis::new(AxisKind::Linear, 0.0, 23.0, 0.0, 1.0);
        let ticks = a.ticks();
        assert!(ticks.len() >= 4 && ticks.len() <= 7, "{ticks:?}");
        for t in &ticks {
            assert!(*t >= 0.0 && *t <= 23.0);
        }
        assert_eq!(a.tick_label(5.0), "5");
        assert_eq!(a.tick_label(2.5), "2.5");
    }

    #[test]
    fn log_bounds_clamped_positive() {
        let a = Axis::new(AxisKind::Log, -3.0, 10.0, 0.0, 1.0);
        let (lo, _) = a.data_bounds();
        assert!(lo > 0.0);
    }
}
