//! Result containers, CSV output and ASCII plotting.

use crate::shape::ShapeCheck;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Harness configuration shared by every figure.
#[derive(Debug, Clone)]
pub struct Config {
    /// Output directory for CSV files (created if missing).
    pub out_dir: PathBuf,
    /// Fast mode: coarser grids for smoke tests / CI.
    pub fast: bool,
    /// Worker threads for sweeps (0 = available parallelism).
    pub threads: usize,
    /// Chaos seed: when set, figures inject deterministic faults
    /// (NaN/panic at the rates of `ChaosConfig::smoke`) into their sweep
    /// tasks to exercise the recovery machinery. `None` = no injection.
    pub chaos: Option<u64>,
    /// Population rescale: when set, ensemble figures run on an `n`-CP
    /// ensemble (the paper uses 1000) with every capacity grid scaled by
    /// `n / 1000` so the congestion regimes are preserved. Figures whose
    /// workload is fixed (fig2's demand curves, fig3's trio) ignore it.
    pub scale: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            out_dir: PathBuf::from("out"),
            fast: false,
            threads: 0,
            chaos: None,
            scale: None,
        }
    }
}

impl Config {
    /// Grid size helper: `full` normally, `fast` in fast mode.
    pub fn grid(&self, full: usize, fast: usize) -> usize {
        if self.fast {
            fast
        } else {
            full
        }
    }

    /// Capacity scale factor implied by [`Config::scale`]: per-capita
    /// capacities in the paper's figures are calibrated to the 1000-CP
    /// ensemble, and the ensemble's saturation point `Σ α θ̂` grows
    /// linearly with the CP count, so an `n`-CP rerun multiplies every ν
    /// by `n / 1000` to stay in the same congestion regime.
    pub fn nu_scale(&self) -> f64 {
        self.scale.map_or(1.0, |n| n as f64 / 1000.0)
    }

    /// Effective worker-thread count.
    pub fn worker_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }
}

/// A rectangular data table destined for CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// New table with the given headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the headers.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.headers.len(), "row/header length mismatch");
        self.rows.push(row);
    }

    /// Extract one column by header name.
    ///
    /// # Panics
    ///
    /// Panics if the header does not exist.
    pub fn column(&self, name: &str) -> Vec<f64> {
        let idx = self
            .headers
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column named {name}"));
        self.rows.iter().map(|r| r[idx]).collect()
    }

    /// Serialise as CSV text.
    pub fn to_csv(&self) -> String {
        let mut s = self.headers.join(",");
        s.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|v| format!("{v:.10e}")).collect();
            s.push_str(&line.join(","));
            s.push('\n');
        }
        s
    }

    /// Write the CSV to `dir/name` atomically: the text goes to a
    /// uniquely named temporary file in `dir`, which is then renamed over
    /// `name`, so a concurrent reader sees the old file or the new one,
    /// never a truncated one.
    ///
    /// # Panics
    ///
    /// Panics on IO failure (experiment output paths are operator-chosen;
    /// failing loudly beats silently missing data files).
    pub fn write_csv(&self, dir: &Path, name: &str) -> PathBuf {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        let path = dir.join(name);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));
        fs::write(&tmp, self.to_csv())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", tmp.display()));
        fs::rename(&tmp, &path)
            .unwrap_or_else(|e| panic!("cannot rename onto {}: {e}", path.display()));
        path
    }
}

/// Health of a figure's sweep under fault isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FigureStatus {
    /// Every sweep task succeeded on the first attempt.
    #[default]
    Ok,
    /// Faults occurred (tasks failed, panicked, or needed recovery) but
    /// the figure still produced usable output — possibly with skipped
    /// or interpolated grid points.
    Degraded,
    /// The sweep lost too much data to produce a meaningful figure.
    Failed,
}

impl FigureStatus {
    /// Lowercase label for reports (`ok` / `degraded` / `failed`).
    pub fn label(&self) -> &'static str {
        match self {
            FigureStatus::Ok => "ok",
            FigureStatus::Degraded => "degraded",
            FigureStatus::Failed => "failed",
        }
    }
}

/// Everything a figure run produces.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure id (e.g. `"fig4"`).
    pub id: String,
    /// Paths of the CSV files written.
    pub files: Vec<PathBuf>,
    /// Human-readable summary (includes the ASCII plot).
    pub summary: String,
    /// Shape-check verdicts.
    pub checks: Vec<ShapeCheck>,
    /// Sweep health under fault isolation.
    pub status: FigureStatus,
    /// Sweep tasks that initially failed or panicked but produced a value
    /// on retry.
    pub recovered_points: usize,
    /// Sweep tasks that never produced a value (skipped or interpolated
    /// in the output).
    pub failed_points: usize,
}

impl FigureResult {
    /// A healthy result: status [`FigureStatus::Ok`], no fault counts.
    /// Figures that run resilient sweeps overwrite the status fields from
    /// their [`SweepStats`](crate::resilience::SweepStats).
    pub fn new(
        id: impl Into<String>,
        files: Vec<PathBuf>,
        summary: String,
        checks: Vec<ShapeCheck>,
    ) -> Self {
        Self {
            id: id.into(),
            files,
            summary,
            checks,
            status: FigureStatus::Ok,
            recovered_points: 0,
            failed_points: 0,
        }
    }

    /// `true` when every shape check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Render a quick ASCII line plot of `ys` over `xs` (single series),
/// `width × height` characters plus axes. Intended for terminal summaries,
/// not publication.
pub fn ascii_plot(title: &str, xs: &[f64], ys: &[f64], width: usize, height: usize) -> String {
    assert_eq!(xs.len(), ys.len());
    if xs.is_empty() || width < 2 || height < 2 {
        return format!("{title}: (no data)\n");
    }
    let (xmin, xmax) = (
        xs.iter().cloned().fold(f64::INFINITY, f64::min),
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let (ymin, ymax) = (
        ys.iter().cloned().fold(f64::INFINITY, f64::min),
        ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let xspan = (xmax - xmin).max(f64::EPSILON);
    let yspan = (ymax - ymin).max(f64::EPSILON);
    let mut grid = vec![vec![b' '; width]; height];
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
        let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
        grid[height - 1 - row][col.min(width - 1)] = b'*';
    }
    let mut out = format!("{title}  [y: {ymin:.3} .. {ymax:.3}]\n");
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str(&format!("\n x: {xmin:.3} .. {xmax:.3}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(vec!["x", "y"]);
        t.push(vec![1.0, 2.0]);
        t.push(vec![3.0, 4.0]);
        let csv = t.to_csv();
        assert!(csv.starts_with("x,y\n"));
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(t.column("y"), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row/header length mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["x"]);
        t.push(vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn missing_column_panics() {
        Table::new(vec!["x"]).column("z");
    }

    #[test]
    fn csv_written_to_disk() {
        let dir = std::env::temp_dir().join("pubopt-report-test");
        let mut t = Table::new(vec!["a"]);
        t.push(vec![1.5]);
        let p = t.write_csv(&dir, "t.csv");
        let content = std::fs::read_to_string(&p).unwrap();
        assert!(content.contains("1.5"));
        let leftover = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(
            !leftover,
            "the atomic write's temporary file must be renamed away"
        );
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn ascii_plot_renders() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let plot = ascii_plot("parabola", &xs, &ys, 40, 10);
        assert!(plot.contains('*'));
        assert!(plot.contains("parabola"));
        assert_eq!(plot.lines().count(), 13);
    }

    #[test]
    fn ascii_plot_empty() {
        let plot = ascii_plot("none", &[], &[], 40, 10);
        assert!(plot.contains("no data"));
    }

    #[test]
    fn config_grid_switch() {
        let mut c = Config::default();
        assert_eq!(c.grid(100, 10), 100);
        c.fast = true;
        assert_eq!(c.grid(100, 10), 10);
        assert!(c.worker_threads() >= 1);
    }
}
