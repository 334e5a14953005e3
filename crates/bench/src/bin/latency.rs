//! §6 latency — component latencies vs the 10 ms frame budget. Prints the report of
//! [`movr_bench::paper::latency`].
//!
//! ```sh
//! cargo run -p movr-bench --release --bin latency
//! ```

fn main() {
    print!("{}", movr_bench::paper::latency().report);
}
