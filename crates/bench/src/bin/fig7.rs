//! Figure 7 — TX→RX leakage across beam angles. Prints the report of
//! [`movr_bench::paper::fig7`].
//!
//! ```sh
//! cargo run -p movr-bench --release --bin fig7
//! ```

fn main() {
    print!("{}", movr_bench::paper::fig7().report);
}
