//! §6 battery — headset runtime on the paper's pack. Prints the report of
//! [`movr_bench::paper::battery`].
//!
//! ```sh
//! cargo run -p movr-bench --release --bin battery
//! ```

fn main() {
    print!("{}", movr_bench::paper::battery().report);
}
