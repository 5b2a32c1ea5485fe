//! # bench — experiment harness for every table and figure
//!
//! One binary per paper artifact (run with
//! `cargo run -p bench --release --bin <name>`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_table1` | Table I — programming models / Kokkos backend support |
//! | `exp_table2` | Table II — node hardware of the four systems |
//! | `exp_table3` | Table III — the four model configurations |
//! | `exp_table4` | Table IV — weak-scaling series |
//! | `exp_table5_fig8` | Table V + Fig. 8 — strong scaling (projected at paper scale, measured locally) |
//! | `exp_fig1_sst` | Fig. 1 — SST structure + Mariana-trench column |
//! | `exp_fig2_landscape` | Fig. 2 — high-resolution ocean modelling landscape |
//! | `exp_fig6_rossby` | Fig. 6 — Rossby number vs resolution (submesoscale emergence) |
//! | `exp_fig7_portability` | Fig. 7 — single-node SYPD, Kokkos vs Fortran, four platforms |
//! | `exp_fig9_weak` | Fig. 9 — weak scaling |
//! | `exp_ablation` | §VII-C text — optimized vs original speedups, per-optimization ablation |
//!
//! `licom_bench` (`src/bin/licom_bench/`, its own package) is the one
//! program that times a step, end to end and layer by layer. Criterion
//! microbenchmarks in `benches/` keep the questions it has no probe for:
//! the pool-gate crossover and registry matching, views, pooled vs
//! allocating and serial vs threaded halo packing, the canuto and limiter
//! options, barrier cost.

/// Render one formatted table row (fixed-width columns).
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{:>width$}  ", c, width = w));
    }
    out.trim_end().to_string()
}

/// Print a titled section banner.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Relative deviation (%) of `model` from `paper`.
pub fn deviation_pct(model: f64, paper: f64) -> f64 {
    100.0 * (model - paper) / paper
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_math() {
        assert_eq!(deviation_pct(1.1, 1.0), 10.000000000000009);
        assert!(deviation_pct(0.9, 1.0) < 0.0);
    }

    #[test]
    fn row_formats_right_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}

/// Render a log-log-ish ASCII line chart of one or more (x, y) series —
/// enough to eyeball the *shape* of Fig. 8/9-style scaling curves in a
/// terminal. X positions are spaced by log(x); Y is scaled linearly in
/// log(y). Each series gets a distinct glyph.
pub fn ascii_chart(
    title: &str,
    series: &[(&str, Vec<(f64, f64)>)],
    width: usize,
    height: usize,
) -> String {
    let glyphs = ['o', 'x', '+', '*', '#', '@'];
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for (_, s) in series {
        pts.extend(s.iter().copied());
    }
    if pts.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        let (lx, ly) = (x.ln(), y.ln());
        x0 = x0.min(lx);
        x1 = x1.max(lx);
        y0 = y0.min(ly);
        y1 = y1.max(ly);
    }
    let (dx, dy) = ((x1 - x0).max(1e-12), (y1 - y0).max(1e-12));
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        for &(x, y) in s {
            let cx = (((x.ln() - x0) / dx) * (width - 1) as f64).round() as usize;
            let cy = (((y.ln() - y0) / dy) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = glyphs[si % glyphs.len()];
        }
    }
    let mut out = format!("{title}  (log-log)\n");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", glyphs[i % glyphs.len()], name))
        .collect();
    out.push_str(&format!("  {}\n", legend.join("    ")));
    out
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_renders_points_and_legend() {
        let s = ascii_chart(
            "SYPD vs devices",
            &[
                ("orise", vec![(4000.0, 0.8), (16000.0, 1.8)]),
                ("sunway", vec![(77750.0, 0.24), (590250.0, 1.1)]),
            ],
            40,
            10,
        );
        assert!(s.contains('o') && s.contains('x'));
        assert!(s.contains("orise") && s.contains("sunway"));
        assert!(s.lines().count() > 10);
    }

    #[test]
    fn chart_handles_empty() {
        assert!(ascii_chart("t", &[("a", vec![])], 10, 5).contains("no data"));
    }
}
