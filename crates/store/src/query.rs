//! Range queries: shared aggregate folds and windowed aggregators.
//!
//! Both store backends funnel their point streams through the fold
//! functions here, so every aggregate accumulates **in ascending
//! timestamp order with identical operation order** — float addition is
//! not associative, and bit-exact backend equivalence (plus byte-stable
//! `repro` output) depends on never combining partial sums.

use crate::index::SeriesKey;

/// Aggregate statistics over one series range (used by level-2
/// "consolidation" analyses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    /// Number of points.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Latest value in the range.
    pub last: f64,
}

/// Folds a timestamp-ordered point stream into [`SeriesStats`]; `None`
/// when the stream is empty. This is the *only* stats accumulation loop
/// in the crate — both backends and both query paths call it.
pub(crate) fn fold_stats(points: impl Iterator<Item = (u64, f64)>) -> Option<SeriesStats> {
    let mut count = 0usize;
    let (mut min, mut max, mut sum, mut last) = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0.0);
    for (_, v) in points {
        count += 1;
        min = min.min(v);
        max = max.max(v);
        sum += v;
        last = v;
    }
    if count == 0 {
        return None;
    }
    Some(SeriesStats {
        count,
        min,
        max,
        mean: sum / count as f64,
        last,
    })
}

/// Least-squares slope in value units **per minute** over a point
/// stream, streamed in two passes (means, then residuals); `None` with
/// fewer than two points or zero time spread. `make_iter` must yield
/// the same timestamp-ordered stream on both calls.
pub(crate) fn fold_trend<I, F>(make_iter: F) -> Option<f64>
where
    I: Iterator<Item = (u64, f64)>,
    F: Fn() -> I,
{
    let mut count = 0usize;
    let mut t0 = 0u64;
    let mut sum_x = 0.0;
    let mut sum_y = 0.0;
    for (t, y) in make_iter() {
        if count == 0 {
            t0 = t;
        }
        count += 1;
        // Work in minutes relative to the first point for conditioning.
        sum_x += (t - t0) as f64 / 60_000.0;
        sum_y += y;
    }
    if count < 2 {
        return None;
    }
    let n = count as f64;
    let mean_x = sum_x / n;
    let mean_y = sum_y / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, y) in make_iter() {
        let x = (t - t0) as f64 / 60_000.0;
        num += (x - mean_x) * (y - mean_y);
        den += (x - mean_x) * (x - mean_x);
    }
    if den == 0.0 {
        return None;
    }
    Some(num / den)
}

/// Which aggregate a windowed query computes per bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Minimum value in the window.
    Min,
    /// Maximum value in the window.
    Max,
    /// Arithmetic mean of the window.
    Mean,
    /// Forward-order sum of the window.
    Sum,
    /// Number of points in the window.
    Count,
    /// Least-squares slope (per minute) across the window.
    Trend,
}

impl AggKind {
    /// Parses an aggregator name (`min`/`max`/`mean`/`sum`/`count`/`trend`).
    pub fn parse(name: &str) -> Option<AggKind> {
        match name {
            "min" => Some(AggKind::Min),
            "max" => Some(AggKind::Max),
            "mean" | "avg" => Some(AggKind::Mean),
            "sum" => Some(AggKind::Sum),
            "count" => Some(AggKind::Count),
            "trend" => Some(AggKind::Trend),
            _ => None,
        }
    }
}

/// One windowed-aggregate bucket: window start plus the aggregate over
/// points in `[start, start + step)`. Empty windows are omitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// Window start timestamp (aligned to `from + k * step`).
    pub window_ms: u64,
    /// The aggregate value (for `Count`, the count as f64).
    pub value: f64,
}

/// Buckets a timestamp-ordered point stream into `step_ms`-wide windows
/// anchored at `from_ms` and folds each with `kind`. Windows with no
/// points produce no output row. The per-window fold order is the
/// stream order — bit-exact across backends and query paths.
pub(crate) fn windowed(
    points: impl Iterator<Item = (u64, f64)>,
    from_ms: u64,
    step_ms: u64,
    kind: AggKind,
) -> Vec<WindowPoint> {
    let mut fold = WindowFold::new(from_ms, step_ms, kind);
    for (t, v) in points {
        fold.push(t, v);
    }
    fold.finish()
}

/// Push-style windowed aggregator: the chunked backend streams decoded
/// points straight into it (no intermediate buffer), the naive backend
/// drives it through [`windowed`]. Both paths execute the identical
/// `push` sequence, so their outputs are bit-for-bit equal.
pub(crate) struct WindowFold {
    from_ms: u64,
    step_ms: u64,
    kind: AggKind,
    acc: WindowAcc,
    start: u64,
    end: u64,
    open: bool,
    out: Vec<WindowPoint>,
}

impl WindowFold {
    pub(crate) fn new(from_ms: u64, step_ms: u64, kind: AggKind) -> WindowFold {
        assert!(step_ms > 0, "window step must be positive");
        WindowFold {
            from_ms,
            step_ms,
            kind,
            acc: WindowAcc::fresh(),
            start: 0,
            end: 0,
            open: false,
            out: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, t: u64, v: f64) {
        debug_assert!(
            !self.open || t >= self.start,
            "windowed input must be time-ordered"
        );
        if !self.open || t >= self.end {
            if self.open {
                self.acc.flush(self.start, self.kind, &mut self.out);
            }
            self.start = self.from_ms + (t - self.from_ms) / self.step_ms * self.step_ms;
            self.end = self.start.saturating_add(self.step_ms);
            self.open = true;
        }
        self.acc.add(t, v, self.kind);
    }

    /// Folds a whole chunk's header summary (`count` points spanning
    /// `[start_ts, end_ts]`, with forward-fold extrema `min`/`max`)
    /// without decoding it, when the chunk fits inside a single window
    /// and the aggregate combines exactly: count adds, and min/max of a
    /// left fold over a concatenation equals the fold over the
    /// chunk-folds (ties resolve identically because combine order
    /// follows stream order). Sum/mean/trend never absorb — float
    /// addition is not associative and the accumulation order must stay
    /// the sequential one. Returns whether the summary was absorbed.
    pub(crate) fn try_absorb(
        &mut self,
        start_ts: u64,
        end_ts: u64,
        count: usize,
        min: f64,
        max: f64,
    ) -> bool {
        if !matches!(self.kind, AggKind::Min | AggKind::Max | AggKind::Count) {
            return false;
        }
        let wstart = self.from_ms + (start_ts - self.from_ms) / self.step_ms * self.step_ms;
        let wend = wstart.saturating_add(self.step_ms);
        if end_ts >= wend {
            return false; // chunk straddles a window boundary
        }
        debug_assert!(!self.open || start_ts >= self.start, "time-ordered input");
        if !self.open || start_ts >= self.end {
            if self.open {
                self.acc.flush(self.start, self.kind, &mut self.out);
            }
            self.start = wstart;
            self.end = wend;
            self.open = true;
        }
        debug_assert_eq!(
            self.start, wstart,
            "absorbed chunk must fit the open window"
        );
        match self.kind {
            AggKind::Count => self.acc.count += count,
            AggKind::Min => self.acc.min = f64::min(self.acc.min, min),
            AggKind::Max => self.acc.max = f64::max(self.acc.max, max),
            _ => unreachable!("filtered above"),
        }
        true
    }

    pub(crate) fn finish(mut self) -> Vec<WindowPoint> {
        if self.open {
            self.acc.flush(self.start, self.kind, &mut self.out);
        }
        self.out
    }
}

impl crate::chunks::RunVisitor for WindowFold {
    fn point(&mut self, ts: u64, value: f64) {
        self.push(ts, value);
    }

    fn chunk(&mut self, chunk: &crate::chunks::SealedChunk) -> bool {
        self.try_absorb(
            chunk.start_ms(),
            chunk.end_ms(),
            chunk.len(),
            chunk.min(),
            chunk.max(),
        )
    }
}

/// Incremental accumulator for one window: folds each kind with the
/// exact operation order of the whole-series folds above (so the
/// windowed path stays bit-identical across backends); only the
/// two-pass `Trend` fold buffers points, in a reused allocation.
struct WindowAcc {
    count: usize,
    min: f64,
    max: f64,
    sum: f64,
    pts: Vec<(u64, f64)>,
}

impl WindowAcc {
    fn fresh() -> WindowAcc {
        WindowAcc {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            pts: Vec::new(),
        }
    }

    #[inline]
    fn add(&mut self, t: u64, v: f64, kind: AggKind) {
        match kind {
            AggKind::Count => self.count += 1,
            AggKind::Sum => self.sum += v,
            AggKind::Min => self.min = f64::min(self.min, v),
            AggKind::Max => self.max = f64::max(self.max, v),
            AggKind::Mean => {
                self.count += 1;
                self.sum += v;
            }
            AggKind::Trend => self.pts.push((t, v)),
        }
    }

    fn flush(&mut self, start: u64, kind: AggKind, out: &mut Vec<WindowPoint>) {
        let value = match kind {
            AggKind::Count => self.count as f64,
            AggKind::Sum => self.sum,
            AggKind::Min => self.min,
            AggKind::Max => self.max,
            AggKind::Mean => self.sum / self.count as f64,
            AggKind::Trend => {
                let slope = fold_trend(|| self.pts.iter().copied());
                self.reset();
                match slope {
                    Some(slope) => slope,
                    None => return, // underdetermined window: omit the row
                }
            }
        };
        self.reset();
        out.push(WindowPoint {
            window_ms: start,
            value,
        });
    }

    fn reset(&mut self) {
        self.count = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.sum = 0.0;
        self.pts.clear();
    }
}

/// One series' result row in a multi-series query.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindows {
    /// The series key (`device`, `metric`).
    pub key: SeriesKey,
    /// The windowed aggregate rows, in time order.
    pub windows: Vec<WindowPoint>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<(u64, f64)> {
        (0..10u64).map(|i| (i * 1_000, i as f64)).collect()
    }

    #[test]
    fn fold_stats_matches_hand_computation() {
        let s = fold_stats(pts().into_iter()).unwrap();
        assert_eq!(
            (s.count, s.min, s.max, s.mean, s.last),
            (10, 0.0, 9.0, 4.5, 9.0)
        );
        assert!(fold_stats(std::iter::empty()).is_none());
    }

    #[test]
    fn windowed_buckets_align_to_from() {
        let rows = windowed(pts().into_iter(), 0, 4_000, AggKind::Count);
        assert_eq!(
            rows,
            [
                WindowPoint {
                    window_ms: 0,
                    value: 4.0
                },
                WindowPoint {
                    window_ms: 4_000,
                    value: 4.0
                },
                WindowPoint {
                    window_ms: 8_000,
                    value: 2.0
                },
            ]
        );
        let rows = windowed(pts().into_iter(), 0, 4_000, AggKind::Sum);
        assert_eq!(rows[0].value, 0.0 + 1.0 + 2.0 + 3.0);
        let rows = windowed(pts().into_iter(), 0, 4_000, AggKind::Max);
        assert_eq!(rows[2].value, 9.0);
    }

    #[test]
    fn windowed_trend_recovers_slope_and_omits_underdetermined() {
        // 1 unit per second = 60 per minute.
        let rows = windowed(pts().into_iter(), 0, 5_000, AggKind::Trend);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].value - 60.0).abs() < 1e-9);
        // Single-point windows are omitted.
        let rows = windowed(pts().into_iter(), 0, 1_000, AggKind::Trend);
        assert!(rows.is_empty());
    }
}
