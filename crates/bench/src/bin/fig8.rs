//! Reproduces the paper's **Figure 8 — Sensitivity of System Load**:
//! admission probability as a function of backbone utilization U, at
//! β = 0, 0.5 and 1.0.
//!
//! Expected shape (paper §6.2): AP decreases as U grows; β = 0.5
//! dominates both extremes at heavy load.
//!
//! Run with: `cargo run --release -p hetnet-bench --bin fig8`

use hetnet_bench::{ascii_plot, measure_ap, write_csv, ApPoint, REPLICATIONS, REQUESTS_PER_RUN};
use hetnet_cac::cac::{AdmissionOptions, CacConfig};

fn main() {
    let loads: Vec<f64> = (1..=10).map(|k| k as f64 / 10.0).collect();
    let betas = [0.0, 0.5, 1.0];

    println!(
        "Figure 8: AP vs utilization ({} requests x {} seeds pooled per point, Wilson 95% intervals)\n",
        REQUESTS_PER_RUN, REPLICATIONS
    );
    println!(
        "{:>6} | {:>19} | {:>19} | {:>19}",
        "U", "AP @ beta=0", "AP @ beta=0.5", "AP @ beta=1"
    );
    println!("{:-<7}+{:-<21}+{:-<21}+{:-<21}", "", "", "", "");

    let mut curves: Vec<Vec<ApPoint>> = vec![Vec::new(); betas.len()];
    let mut rows = Vec::new();
    for &u in &loads {
        let mut cells = Vec::new();
        for (bi, &beta) in betas.iter().enumerate() {
            let opts = AdmissionOptions::beta_search(CacConfig::fast().with_beta(beta));
            let p = measure_ap(u, &opts, u);
            cells.push(p.cell());
            curves[bi].push(p);
        }
        println!(
            "{u:>6.1} | {:>19} | {:>19} | {:>19}",
            cells[0], cells[1], cells[2]
        );
        rows.push(format!(
            "{u},{},{},{}",
            curves[0].last().unwrap().ap(),
            curves[1].last().unwrap().ap(),
            curves[2].last().unwrap().ap()
        ));
    }

    println!();
    println!(
        "{}",
        ascii_plot(&[
            ("beta=0", &curves[0]),
            ("beta=0.5", &curves[1]),
            ("beta=1", &curves[2]),
        ])
    );
    write_csv("fig8.csv", "u,ap_beta0,ap_beta05,ap_beta1", &rows);
}
