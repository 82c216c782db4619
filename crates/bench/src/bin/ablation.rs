//! Ablation: the paper's heterogeneous β-CAC vs FDDI-only local
//! allocation schemes applied per-segment.
//!
//! §5/§7 argue that allocation rules designed for a stand-alone FDDI
//! ring "may not be applied directly" in a heterogeneous network: a rule
//! that is efficient for one segment ignores the disturbance its choice
//! creates on the backbone and the far ring. This binary quantifies the
//! claim by running the same seeded churn workload under:
//!
//! * the β-CAC at β ∈ {0, 0.5, 1};
//! * the §5.3 strawman that grabs everything available on both rings;
//! * local proportional-to-rate allocation with head-room factors 1.3
//!   and 2.0 (no end-to-end search — the per-ring rule fixes H and the
//!   connection is admitted iff deadlines happen to hold).
//!
//! Every policy is an [`AllocationPolicy`] run through the shared
//! experiment driver.
//!
//! Run with: `cargo run --release -p hetnet-bench --bin ablation`

use hetnet_bench::{measure_ap, write_csv, REPLICATIONS, REQUESTS_PER_RUN};
use hetnet_cac::cac::{AdmissionOptions, AllocationPolicy, CacConfig};
use hetnet_fddi::schemes::AllocationScheme;

fn main() {
    let beta = |b: f64| AdmissionOptions::beta_search(CacConfig::fast().with_beta(b));
    let baseline = |allocation| AdmissionOptions {
        cac: CacConfig::fast(),
        allocation,
    };
    let local = |headroom| {
        baseline(AllocationPolicy::Local {
            scheme: AllocationScheme::ProportionalToRate,
            headroom,
        })
    };
    let policies = [
        ("beta-CAC (beta=0)", beta(0.0)),
        ("beta-CAC (beta=0.5)", beta(0.5)),
        ("beta-CAC (beta=1)", beta(1.0)),
        ("grab everything", baseline(AllocationPolicy::GrabAvailable)),
        ("local proportional x1.3", local(1.3)),
        ("local proportional x2.0", local(2.0)),
    ];
    let loads = [0.3, 0.6, 0.9];

    println!(
        "Ablation: admission probability by policy ({REQUESTS_PER_RUN} requests x \
         {REPLICATIONS} seeds pooled per point, Wilson 95% intervals)\n"
    );
    print!("{:<26}", "policy");
    for u in loads {
        print!(" | {:>19}", format!("AP @ U={u}"));
    }
    println!();
    println!(
        "{:-<26}{}",
        "",
        format!(" | {:-<19}", "").repeat(loads.len())
    );

    let mut rows = Vec::new();
    for (name, opts) in &policies {
        print!("{name:<26}");
        let mut cells = Vec::new();
        for &u in &loads {
            let p = measure_ap(u, opts, u);
            print!(" | {:>19}", p.cell());
            cells.push(format!("{}", p.ap()));
        }
        println!();
        rows.push(format!("{name},{}", cells.join(",")));
    }

    write_csv("ablation.csv", "policy,ap_u03,ap_u06,ap_u09", &rows);
    println!(
        "\nThe local per-segment rules either under-allocate (head-room too small: the\n\
         MAC is unstable and everything is rejected) or allocate blindly (AP collapses\n\
         at load because the fixed choice ignores the rest of the network) — the\n\
         paper's argument for an integrated, end-to-end allocation."
    );
}
