#!/usr/bin/env bash
# Offline verification: build, test, and smoke the benches without
# touching the network. This is the tier-1 gate plus the testkit's own
# hygiene checks; it must pass on a machine with no crates.io access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: release build"
cargo build --release --offline

echo "==> examples build"
cargo build --release --offline --examples

echo "==> movr-lint: workspace clean (exit 1 on any finding)"
cargo run -q -p movr-lint --offline -- --root .

echo "==> movr-lint: an unclosed delimiter is a finding or a clean run (exit 0/1), not a crash"
rm -rf out/lint-unclosed
mkdir -p out/lint-unclosed/crates/half/src
echo '[workspace]' > out/lint-unclosed/Cargo.toml
echo 'pub struct Half {' > out/lint-unclosed/crates/half/src/lib.rs
code=0
cargo run -q -p movr-lint --offline -- --root out/lint-unclosed > /dev/null || code=$?
if [ "$code" -gt 1 ]; then
    echo "movr-lint on a workspace whose only file is \`pub struct Half {\` exited $code" >&2
    exit 1
fi
rm -rf out/lint-unclosed

echo "==> lockfiles name no registry or git source (every dependency is in-tree)"
if grep -n '^source = ' Cargo.lock perfbench/Cargo.lock; then
    echo "a lockfile names an external source; the workspace takes no external crates" >&2
    exit 1
fi

echo "==> tier-1: every member's tests (the analyzer's fixture self-test and the checkpoint gate too)"
cargo test -q --offline

echo "==> perfbench: build the benchmark against the public API and run its tests"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# With --seconds 0 nothing is timed, so each run reports correct=false
# and exits 1; the comparison below is the check (a crash or a failed
# operation changes the lines).
for seed in 1 5; do
    echo "==> perfbench: seed-$seed warm-up outputs match scripts/perfbench-seed$seed.expected"
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload all --seed "$seed" --seconds 0 > "out/perfbench-seed$seed.log" || true
    awk '/^perfbench /{w=$2} /^  (attempted |alignment\.|session\.|fleet\.)/{$1=$1; print w ": " $0}' \
        "out/perfbench-seed$seed.log" > "out/perfbench-seed$seed.txt"
    grep -v '^#' "scripts/perfbench-seed$seed.expected" | diff -u - "out/perfbench-seed$seed.txt"
done

echo "==> paper shapes: every figure's PASS/FAIL checks (exit 1 on any FAIL)"
cargo run -q --release --offline -p movr-bench --bin repro_all

echo "==> checkpoint smoke: snapshot in one process, resume in a second, diff JSONL"
mkdir -p out/checkpoint
rm -f out/checkpoint/snap.bin out/checkpoint/snap.bin.spanid \
      out/checkpoint/part1.jsonl out/checkpoint/part2.jsonl out/checkpoint/full.jsonl
cargo run -q --release --offline --example checkpoint_resume -- \
    part1 out/checkpoint/snap.bin out/checkpoint/part1.jsonl
cargo run -q --release --offline --example checkpoint_resume -- \
    part2 out/checkpoint/snap.bin out/checkpoint/part2.jsonl
cargo run -q --release --offline --example checkpoint_resume -- \
    full out/checkpoint/full.jsonl
cat out/checkpoint/part1.jsonl out/checkpoint/part2.jsonl \
    | cmp - out/checkpoint/full.jsonl
echo "two-process timeline is byte-identical to the uninterrupted run"

echo "==> fleet analytics: 8-session fleet reduces to the golden rollup byte-for-byte"
rm -rf out/fleet
cargo run -q --release --offline --example fleet_timelines -- out/fleet 8 1.0
cargo run -q --release -p movr-obs --offline -- reduce \
    --out out/fleet/rollup.json out/fleet/session-*.jsonl
cmp out/fleet/rollup.json tests/fixtures/fleet_rollup.golden.json
cargo run -q --release -p movr-obs --offline -- diff \
    out/fleet/rollup.json tests/fixtures/fleet_rollup.golden.json

echo "==> fleet analytics: 100k+ event fleet, single pass, thread-count invariant"
rm -rf out/fleet-big
cargo run -q --release --offline --example fleet_timelines -- out/fleet-big 8 10.0
events="$(cat out/fleet-big/session-*.jsonl | wc -l)"
echo "big fleet: $events events"
if [ "$events" -lt 100000 ]; then
    echo "expected >= 100000 fleet events, got $events" >&2
    exit 1
fi
cargo run -q --release -p movr-obs --offline -- reduce --threads 1 \
    --out out/fleet-big/rollup-t1.json out/fleet-big/session-*.jsonl
cargo run -q --release -p movr-obs --offline -- reduce --threads 4 \
    --out out/fleet-big/rollup-t4.json out/fleet-big/session-*.jsonl
cmp out/fleet-big/rollup-t1.json out/fleet-big/rollup-t4.json
echo "100k-event rollup is byte-identical across thread counts"

echo "==> fleet analytics: the JSON parser alone gives the same 100k-event rollup"
# Every event line starts with its "t_ns" key. Spelled "t\u005fns", it
# reads back as t_ns, but the reducer's flat reader declines the escape,
# so every line goes through the fallback parser.
rm -rf out/fleet-big-fallback
mkdir -p out/fleet-big-fallback
for f in out/fleet-big/session-*.jsonl; do
    sed 's/^{"t_ns":/{"t\\u005fns":/' "$f" > "out/fleet-big-fallback/$(basename "$f")"
done
if grep -q '"t_ns"' out/fleet-big-fallback/session-*.jsonl; then
    echo "a line of the fallback fleet still spells \"t_ns\" plainly" >&2
    exit 1
fi
cargo run -q --release -p movr-obs --offline -- reduce --threads 1 \
    --out out/fleet-big-fallback/rollup.json out/fleet-big-fallback/session-*.jsonl
cmp out/fleet-big-fallback/rollup.json out/fleet-big/rollup-t1.json
echo "the fallback parser's 100k-event rollup is byte-identical"

echo "==> clippy: every target warning-clean (rustc lints, clippy defaults, clippy.toml bans)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> clippy: library and binary code has no as casts, exact float compares or unwraps"
cargo clippy --workspace --lib --bins --offline -- -D warnings \
    -W clippy::as_conversions -W clippy::float_cmp -W clippy::unwrap_used

echo "==> clippy: perfbench warning-clean under the same settings"
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets --offline -- -D warnings

echo "==> rustdoc is warning-clean (an intra-doc link to a deleted item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> bench smoke (--quick profile, JSON lines)"
cargo bench -p movr-bench --bench microbench --offline -- --quick 2>/dev/null \
    | grep '"median_ns"' > out/BENCH_micro.json
cat out/BENCH_micro.json
lines="$(wc -l < out/BENCH_micro.json)"
if [ "$lines" -lt 10 ]; then
    echo "expected >= 10 bench JSON lines, got $lines" >&2
    exit 1
fi
grep -q '"name":"par_tiny_worker_pool"' out/BENCH_micro.json || {
    echo "pool-overhead bench missing from microbench output" >&2
    exit 1
}
grep -q '"name":"obs_reduce_fleet_8x1s"' out/BENCH_micro.json || {
    echo "movr-obs reduce bench missing from microbench output" >&2
    exit 1
}
grep -q '"name":"session_one_second_90fps"' out/BENCH_micro.json || {
    echo "session frame-loop bench missing from microbench output" >&2
    exit 1
}
grep -q '"name":"obs_session_60s_null"' out/BENCH_micro.json || {
    echo "null-recorder session bench missing from microbench output" >&2
    exit 1
}
grep -q '"name":"obs_session_60s_jsonl"' out/BENCH_micro.json || {
    echo "JSONL-writer session bench missing from microbench output" >&2
    exit 1
}
grep -q '"name":"gain_control_loop"' out/BENCH_micro.json || {
    echo "gain-control ramp bench missing from microbench output" >&2
    exit 1
}
grep -q '"name":"system_evaluate_held_frame"' out/BENCH_micro.json || {
    echo "held-frame (gain-row reuse) bench missing from microbench output" >&2
    exit 1
}
grep -q '"name":"system_evaluate_bystander_frame"' out/BENCH_micro.json || {
    echo "bystander-frame (re-shade) bench missing from microbench output" >&2
    exit 1
}

echo "==> bench: sweep-rate rows (batched 101x101 sweep on two windows, skip speedup;"
echo "    fleet byte-identical on every probed thread count, thread ladder, parallelism)"
cargo bench -p movr-bench --bench sweep --offline -- --quick 2>/dev/null \
    | grep '^{' > out/BENCH_sweep.json
cat out/BENCH_sweep.json
grep -q '"name":"alignment_sweep_101x101_batched"' out/BENCH_sweep.json
grep -q '"name":"fleet_speedup_4t"' out/BENCH_sweep.json
grep -q '"byte_identical":true' out/BENCH_sweep.json

echo "==> perf ratchet: bench kernel ratios within tolerance of bench-baseline.toml"
cat out/BENCH_sweep.json out/BENCH_micro.json > out/BENCH_all.json
cargo run -q --release -p movr-obs --offline -- check \
    --baseline bench-baseline.toml out/BENCH_all.json

echo "==> perf ratchet: a baseline that sets a key twice is an error (exit 2)"
printf '[bench.x]\nkernel_ratio = 1.0\nmax_ratio = 1.0\nkernel_ratio = 1e12\n' > out/bench-dup-key.toml
code=0
cargo run -q --release -p movr-obs --offline -- check \
    --baseline out/bench-dup-key.toml out/BENCH_all.json 2>/dev/null || code=$?
if [ "$code" -ne 2 ]; then
    echo "movr-obs check on a repeated kernel_ratio exited $code, expected 2" >&2
    exit 1
fi

echo "==> OK"
