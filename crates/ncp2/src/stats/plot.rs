//! ASCII x/y plots for the parameter sweeps (Figs 13–16).

/// Renders one or more named series over a shared x axis as a fixed-size
/// ASCII chart, plus an exact numeric legend (the numbers are the data; the
/// chart is orientation).
///
/// ```
/// let s = ncp2::stats::xy_plot(
///     "Effect of Network Bandwidth",
///     "MB/s",
///     &[20.0, 50.0, 100.0],
///     &[("TM", vec![1.1, 1.0, 0.98]), ("AURC", vec![2.4, 1.4, 1.05])],
/// );
/// assert!(s.contains("AURC"));
/// assert!(s.contains("2.400"));
/// ```
///
/// # Panics
///
/// Panics if a series' length differs from the x axis length.
pub fn xy_plot(title: &str, x_label: &str, xs: &[f64], series: &[(&str, Vec<f64>)]) -> String {
    const H: usize = 16;
    const W: usize = 60;
    for (name, ys) in series {
        assert_eq!(ys.len(), xs.len(), "series {name} length mismatch");
    }
    let all: Vec<f64> = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .collect();
    let (min, max) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (max - min).max(1e-12);
    let xmin = xs.first().copied().unwrap_or(0.0);
    let xmax = xs.last().copied().unwrap_or(1.0);
    let xspan = (xmax - xmin).max(1e-12);
    let mut grid = vec![vec![' '; W]; H];
    let marks = ['*', '+', 'o', 'x', '#'];
    for (si, (_, ys)) in series.iter().enumerate() {
        for (x, y) in xs.iter().zip(ys) {
            let col = (((x - xmin) / xspan) * (W - 1) as f64).round() as usize;
            let row = (((max - y) / span) * (H - 1) as f64).round() as usize;
            grid[row.min(H - 1)][col.min(W - 1)] = marks[si % marks.len()];
        }
    }
    let mut out = format!("{title}\n");
    out.push_str(&format!("{max:>9.3} ┤"));
    out.push_str(&grid[0].iter().collect::<String>());
    out.push('\n');
    for row in grid.iter().take(H).skip(1) {
        out.push_str("          │");
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{min:>9.3} └{}\n", "─".repeat(W)));
    out.push_str(&format!(
        "           {xmin:<10.1}{:>width$.1} {x_label}\n",
        xmax,
        width = W - 10
    ));
    // Exact values.
    out.push_str(&format!("{:>10}", x_label));
    for x in xs {
        out.push_str(&format!(" {x:>8.1}"));
    }
    out.push('\n');
    for (si, (name, ys)) in series.iter().enumerate() {
        out.push_str(&format!("{:>8}({})", name, marks[si % marks.len()]));
        for y in ys {
            out.push_str(&format!(" {y:>8.3}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_contains_all_values() {
        let s = xy_plot("T", "x", &[1.0, 2.0], &[("a", vec![10.0, 20.0])]);
        assert!(s.contains("10.000") && s.contains("20.000"));
        assert!(s.contains('T'));
    }

    #[test]
    fn multiple_series_use_distinct_marks() {
        let s = xy_plot(
            "T",
            "x",
            &[1.0, 2.0, 3.0],
            &[("a", vec![1.0, 2.0, 3.0]), ("b", vec![3.0, 2.0, 1.0])],
        );
        assert!(s.contains('*') && s.contains('+'));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_panics() {
        let _ = xy_plot("T", "x", &[1.0], &[("a", vec![1.0, 2.0])]);
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let s = xy_plot("T", "x", &[1.0, 2.0], &[("a", vec![5.0, 5.0])]);
        assert!(s.contains("5.000"));
    }
}
