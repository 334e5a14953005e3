//! Figure 8 — beam alignment accuracy over 100 runs. Prints the report of
//! [`movr_bench::paper::fig8`].
//!
//! ```sh
//! cargo run -p movr-bench --release --bin fig8
//! ```

fn main() {
    print!("{}", movr_bench::paper::fig8().report);
}
