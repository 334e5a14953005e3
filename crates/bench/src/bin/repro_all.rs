//! One-command reproduction gate: runs every experiment of
//! [`movr_bench::paper`] and prints each claim, evaluated on the figures'
//! own data, as one PASS/FAIL table. A claim is *reproduced* when its
//! statistic is an output of the simulated system and *calibrated* when a
//! constant the simulator was tuned to or given sets it; only the first
//! kind counts as a reproduction. Exits 1 if any claim fails.
//!
//! ```sh
//! cargo run -p movr-bench --release --bin repro_all
//! ```

use movr_bench::figure_header;
use movr_bench::paper::{self, Kind};

fn main() {
    print!("{}", figure_header("repro_all", "every claim of the paper's evaluation, on the figures' data"));
    let claims: Vec<_> = paper::all().into_iter().flat_map(|e| e.claims).collect();

    println!(
        "\n{:<22} {:<10} {:<40} {:<26} {:>6}",
        "claim", "kind", "paper", "measured", "status"
    );
    println!("{}", "-".repeat(108));
    for c in &claims {
        let status = if c.pass { "PASS" } else { "FAIL" };
        let kind = format!("{:?}", c.kind);
        println!("{:<22} {kind:<10} {:<40} {:<26} {status:>6}", c.id, c.paper, c.measured);
    }

    let tally = |kind: Kind| {
        let of_kind = claims.iter().filter(|c| c.kind == kind);
        let pass = of_kind.clone().filter(|c| c.pass).count();
        format!("{pass}/{} {kind:?}", of_kind.count())
    };
    println!(
        "\nclaims holding: {}; {} (inputs the simulator was tuned to, not reproductions).",
        tally(Kind::Reproduced),
        tally(Kind::Calibrated)
    );
    let all = claims.iter().all(|c| c.pass);
    if !all {
        println!("SOME CLAIMS FAIL — see EXPERIMENTS.md.");
    }
    std::process::exit(if all { 0 } else { 1 });
}
