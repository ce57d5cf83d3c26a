//! Regenerate every figure of the paper's evaluation in one run and print
//! the headline comparisons (paper claim vs measured).

use peercache_bench::{teeln, FigureCli, Tee};
use peercache_sim::{fig3, fig4, fig5, fig6, render_table, FigureRow};

fn headline(tee: &mut Tee, rows: &[FigureRow]) {
    let pick =
        |f: &dyn Fn(&&FigureRow) -> bool| -> Option<&FigureRow> { rows.iter().find(|r| f(r)) };
    teeln!(tee, "Headline claims (paper → measured):");
    if let Some(r) = pick(&|r| r.figure == "fig5" && r.mode == "stable" && r.n >= 1024) {
        teeln!(
            tee,
            "  Chord stable n=1024, k=log n:  paper ≈ 57 %   measured {:.1} %",
            r.reduction_pct
        );
    }
    if let Some(r) = pick(&|r| r.figure == "fig5" && r.mode == "churn" && r.n >= 1024) {
        teeln!(
            tee,
            "  Chord churn  n=1024, k=log n:  paper ≈ 25 %   measured {:.1} %",
            r.reduction_pct
        );
    }
    if let Some(r) = pick(&|r| r.figure == "fig3" && r.n >= 2048 && (r.alpha - 1.2).abs() < 1e-9) {
        teeln!(
            tee,
            "  Pastry stable n=2048, α=1.2:   paper ≈ 49 %   measured {:.1} %",
            r.reduction_pct
        );
    }
    if let Some(r) = pick(&|r| r.figure == "fig3" && r.n >= 2048 && (r.alpha - 0.91).abs() < 1e-9) {
        teeln!(
            tee,
            "  Pastry stable n=2048, α=0.91:  paper ≈ 29 %   measured {:.1} %",
            r.reduction_pct
        );
    }
}

fn main() {
    let cli = FigureCli::parse();
    let mut tee = Tee::create("all_figures");
    let mut all = Vec::new();
    for (name, rows) in [
        ("Figure 3", fig3(&cli.scale, cli.seed)),
        ("Figure 4", fig4(&cli.scale, cli.seed)),
        ("Figure 5", fig5(&cli.scale, cli.seed)),
        ("Figure 6", fig6(&cli.scale, cli.seed)),
    ] {
        teeln!(tee, "== {name}");
        teeln!(tee, "{}", render_table(&rows));
        all.extend(rows);
    }
    headline(&mut tee, &all);
    if let Some(path) = &cli.json {
        std::fs::write(path, peercache_json::to_string_pretty(&all)).expect("write JSON output");
        println!("(rows written to {path})");
    }
}
