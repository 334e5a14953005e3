//! The benchmark's own determinism checks: one seed fixes every
//! simulated output, different seeds give different outputs, the fleet
//! does not depend on its worker count, and tracing never perturbs the
//! simulation. Each run is warm-up only (`seconds = 0`), which is what
//! the digests and statistics cover.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use movr_perfbench::{align, fleet, session, Options, Outcome, END_TO_END, PER_LAYER};

fn warmup(run: fn(&Options) -> Outcome, seed: u64, trace: bool, workers: usize) -> Outcome {
    let opts = Options {
        seed,
        seconds: 0.0,
        trace,
        workers,
        spans_out: None,
    };
    let out = run(&opts);
    assert_eq!(out.failed, 0, "seed {seed} trace {trace}: {:?}", out.notes);
    assert!(out.attempted > 0);
    out
}

fn stat_bits(out: &Outcome) -> Vec<(String, u64)> {
    out.stats
        .iter()
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

/// Same seed twice, another seed, and the same seed traced.
fn check_workload(run: fn(&Options) -> Outcome) {
    let workers = movr_sim::available_threads().max(2);
    let a = warmup(run, 7, false, workers);
    let b = warmup(run, 7, false, workers);
    assert_eq!(a.digest, b.digest, "same seed, different digest");
    assert_eq!(
        stat_bits(&a),
        stat_bits(&b),
        "same seed, different statistics"
    );
    let other = warmup(run, 8, false, workers);
    assert_ne!(a.digest, other.digest, "different seeds, same digest");
    let traced = warmup(run, 7, true, workers);
    assert_eq!(a.digest, traced.digest, "tracing perturbed the simulation");
    assert_eq!(stat_bits(&a), stat_bits(&traced));
}

#[test]
fn align_is_deterministic() {
    check_workload(align::run);
}

#[test]
fn session_is_deterministic() {
    check_workload(session::run);
}

#[test]
fn fleet_is_deterministic() {
    check_workload(fleet::run);
}

#[test]
fn fleet_digest_does_not_depend_on_worker_count() {
    let one = warmup(fleet::run, 7, false, 1);
    let many = warmup(fleet::run, 7, false, movr_sim::available_threads().max(2));
    assert_eq!(one.digest, many.digest);
    assert_eq!(stat_bits(&one), stat_bits(&many));
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = movr_obs::Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(movr_obs::Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(movr_obs::Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(&END_TO_END));
    assert_eq!(listed("per_layer"), expect(&PER_LAYER));
}
