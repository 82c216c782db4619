//! Reproduces the paper's **Figure 7 — Sensitivity of β**: admission
//! probability as a function of the allocation knob β, at backbone
//! utilizations U = 0.3, 0.6 and 0.9.
//!
//! Expected shape (paper §6.1): at heavy load AP dips at both β = 0
//! (allocations too tight; newcomers' disturbance violates existing
//! deadlines) and β = 1 (allocations too greedy; rings exhaust), with a
//! robust plateau around β ∈ [0.4, 0.7]; at light load sensitivity is
//! small and AP mildly increases with β.
//!
//! Run with: `cargo run --release -p hetnet-bench --bin fig7`

use hetnet_bench::{ascii_plot, measure_ap, write_csv, ApPoint, REPLICATIONS, REQUESTS_PER_RUN};
use hetnet_cac::cac::{AdmissionOptions, CacConfig};

fn main() {
    let betas: Vec<f64> = vec![0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0];
    let loads = [0.3, 0.6, 0.9];

    println!(
        "Figure 7: AP vs beta ({} requests x {} seeds pooled per point, Wilson 95% intervals)\n",
        REQUESTS_PER_RUN, REPLICATIONS
    );
    println!(
        "{:>6} | {:>19} | {:>19} | {:>19}",
        "beta", "AP @ U=0.3", "AP @ U=0.6", "AP @ U=0.9"
    );
    println!("{:-<7}+{:-<21}+{:-<21}+{:-<21}", "", "", "", "");

    let mut curves: Vec<Vec<ApPoint>> = vec![Vec::new(); loads.len()];
    let mut rows = Vec::new();
    for &beta in &betas {
        let mut cells = Vec::new();
        for (li, &u) in loads.iter().enumerate() {
            let opts = AdmissionOptions::beta_search(CacConfig::fast().with_beta(beta));
            let p = measure_ap(u, &opts, beta);
            cells.push(p.cell());
            curves[li].push(p);
        }
        println!(
            "{beta:>6.1} | {:>19} | {:>19} | {:>19}",
            cells[0], cells[1], cells[2]
        );
        rows.push(format!(
            "{beta},{},{},{}",
            curves[0].last().unwrap().ap(),
            curves[1].last().unwrap().ap(),
            curves[2].last().unwrap().ap()
        ));
    }

    println!();
    println!(
        "{}",
        ascii_plot(&[
            ("U=0.3", &curves[0]),
            ("U=0.6", &curves[1]),
            ("U=0.9", &curves[2]),
        ])
    );
    write_csv("fig7.csv", "beta,ap_u03,ap_u06,ap_u09", &rows);
}
