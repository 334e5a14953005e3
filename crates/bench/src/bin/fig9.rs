//! Figure 9 — SNR with MoVR vs LOS vs Opt. NLOS. Prints the report of
//! [`movr_bench::paper::fig9`].
//!
//! ```sh
//! cargo run -p movr-bench --release --bin fig9
//! ```

fn main() {
    print!("{}", movr_bench::paper::fig9().report);
}
