//! Figure 3 — blockage impact on SNR and data rate. Prints the report of
//! [`movr_bench::paper::fig3`].
//!
//! ```sh
//! cargo run -p movr-bench --release --bin fig3
//! ```

fn main() {
    print!("{}", movr_bench::paper::fig3().report);
}
