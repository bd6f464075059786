//! Text tables: breakdown bars, normalized comparisons, speedups.

use ncp2_sim::{Breakdown, Category};

/// Renders one row per run: normalized time and the five-way category
/// split in percent, like the stacked bars of Figs 2 and 5–10. The first
/// run is the 100% baseline.
///
/// ```
/// use ncp2::stats::breakdown_table;
/// let rows = [("Base", 1000u64, ncp2_sim::Breakdown { busy: 500, data: 300, synch: 150, ipc: 30, other: 20 }, 10.0)];
/// let s = breakdown_table(&rows);
/// assert!(s.contains("Base"));
/// assert!(s.contains("100.0"));
/// ```
pub fn breakdown_table(rows: &[(&str, u64, Breakdown, f64)]) -> String {
    let base = rows.first().map(|r| r.1).unwrap_or(1).max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "config", "norm%", "busy%", "data%", "synch%", "ipc%", "others%", "diff%"
    ));
    for (label, cycles, b, diff_pct) in rows {
        let norm = 100.0 * *cycles as f64 / base as f64;
        out.push_str(&format!(
            "{:<10} {:>8.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1}\n",
            label,
            norm,
            100.0 * b.fraction(Category::Busy),
            100.0 * b.fraction(Category::Data),
            100.0 * b.fraction(Category::Synch),
            100.0 * b.fraction(Category::Ipc),
            100.0 * b.fraction(Category::Other),
            diff_pct,
        ));
    }
    out
}

/// CSV form of [`breakdown_table`] for external plotting.
pub fn breakdown_csv(rows: &[(&str, u64, Breakdown, f64)]) -> String {
    let base = rows.first().map(|r| r.1).unwrap_or(1).max(1);
    let mut out = String::from("config,cycles,norm_pct,busy,data,synch,ipc,others,diff_pct\n");
    for (label, cycles, b, diff_pct) in rows {
        out.push_str(&format!(
            "{},{},{:.3},{},{},{},{},{},{:.3}\n",
            label,
            cycles,
            100.0 * *cycles as f64 / base as f64,
            b.busy,
            b.data,
            b.synch,
            b.ipc,
            b.other,
            diff_pct
        ));
    }
    out
}

/// Renders per-configuration normalized running-time bars (Figs 11–12
/// style), first entry = 100.
///
/// ```
/// let s = ncp2::stats::normalized_bars(&[("I+D", 800), ("AURC", 1000)]);
/// assert!(s.starts_with("I+D"));
/// ```
pub fn normalized_bars(rows: &[(&str, u64)]) -> String {
    let base = rows.first().map(|r| r.1).unwrap_or(1).max(1);
    let mut out = String::new();
    for (label, cycles) in rows {
        let norm = 100.0 * *cycles as f64 / base as f64;
        let width = (norm / 2.0).round().min(120.0) as usize;
        out.push_str(&format!("{label:<8} {norm:>6.1}% {}\n", "#".repeat(width)));
    }
    out
}

/// Speedup table: one row per processor count, one column per application
/// (Fig 1). `cells[i][j]` is the speedup of app `j` on `procs[i]`.
pub fn speedup_table(apps: &[&str], procs: &[usize], cells: &[Vec<f64>]) -> String {
    assert_eq!(procs.len(), cells.len(), "one row per processor count");
    let mut out = format!("{:>6}", "procs");
    for a in apps {
        out.push_str(&format!(" {a:>8}"));
    }
    out.push('\n');
    for (p, row) in procs.iter().zip(cells) {
        assert_eq!(row.len(), apps.len(), "one cell per application");
        out.push_str(&format!("{p:>6}"));
        for v in row {
            out.push_str(&format!(" {v:>8.2}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(busy: u64, data: u64) -> Breakdown {
        Breakdown {
            busy,
            data,
            synch: 0,
            ipc: 0,
            other: 0,
        }
    }

    #[test]
    fn breakdown_table_normalizes_to_first_row() {
        let rows = [
            ("Base", 1000, b(600, 400), 5.0),
            ("I+D", 500, b(400, 100), 1.0),
        ];
        let s = breakdown_table(&rows);
        assert!(s.contains("100.0"), "baseline row: {s}");
        assert!(s.contains("50.0"), "improved row: {s}");
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rows = [("X", 10, b(10, 0), 0.0)];
        let csv = breakdown_csv(&rows);
        assert!(csv.starts_with("config,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("X,10,100.000"));
    }

    #[test]
    fn bars_scale_with_time() {
        let s = normalized_bars(&[("A", 100), ("B", 200)]);
        let lines: Vec<&str> = s.lines().collect();
        let hashes = |l: &str| l.matches('#').count();
        assert_eq!(hashes(lines[0]), 50);
        assert_eq!(hashes(lines[1]), 100);
    }

    #[test]
    fn speedup_table_shape() {
        let s = speedup_table(
            &["TSP", "Ocean"],
            &[2, 4],
            &[vec![1.9, 1.2], vec![3.5, 1.5]],
        );
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("TSP") && s.contains("3.50"));
    }

    #[test]
    #[should_panic(expected = "one row per processor count")]
    fn speedup_table_validates_dimensions() {
        let _ = speedup_table(&["A"], &[2, 4], &[vec![1.0]]);
    }
}
