#!/usr/bin/env sh
# CI entry point: build, test, lint, and check formatting.
# Run from the repository root.
set -eu

# Crash-recovery tests keep their write-ahead logs in per-process
# scratch dirs under $TMPDIR; they clean up after themselves, but a
# killed run must not leave logs behind either.
cleanup_wal_scratch() {
    rm -rf "${TMPDIR:-/tmp}"/fargo-crash-*
}
trap cleanup_wal_scratch EXIT

# Size report: non-test Rust under crates/ (integration-test dirs,
# `*_tests.rs` files and `#[cfg(test)]` modules left out), all lines and
# code lines (no blanks, no `//` lines), the same count for the
# telemetry stack alone (ROADMAP items 9 and 12 gate on it), for
# the wire crate (what a `Value` is, and costs, is decided there) and
# for the layout planner (`crates/layout/src`, ROADMAP items 8 and 17
# gate on it), then
# each file of the Core runtime (non-test lines too: ROADMAP's per-file
# gates count those; an all-test file prints nothing), then the number
# of `CoreConfig` fields (ROADMAP's north-star knob count). ROADMAP
# wants the net line count of every PR reported; the difference between
# this stage at the parent commit and here is that number. It prints,
# it does not gate.
# `./ci.sh loc` runs it alone.
non_test_lines() { # <label> <path>...
    label=$1
    shift
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -name '*_tests.rs' \
        -exec awk -v label="$label" '
            FNR == 1 { pending = 0; skip = 0 }
            /^#\[cfg\(test\)\]/ { pending = 1; next }
            pending { pending = 0
                      if ($0 ~ /^(pub(\([a-z]+\))? )?mod [a-z_]+;/) next
                      if ($0 ~ /^(pub(\([a-z]+\))? )?mod [a-z_]+ \{/) { skip = 1; next } }
            skip { if (/^}/) skip = 0; next }
            { all++ }
            !/^[[:space:]]*(\/\/.*)?$/ { code++ }
            END { printf "%s: %d lines, %d of them code\n", label, all, code }
        ' {} +
}
loc() {
    non_test_lines "non-test Rust under crates/" crates
    non_test_lines "of which the telemetry stack" \
        crates/telemetry/src crates/core/src/telemetry.rs
    non_test_lines "of which crates/wire" crates/wire/src
    non_test_lines "of which crates/layout" crates/layout/src
    for f in crates/core/src/runtime/*.rs; do
        non_test_lines "$f" "$f"
    done
    awk '
        /^pub struct CoreConfig \{/ { inside = 1; next }
        inside && /^}/ { exit }
        inside && /^    pub / { fields++ }
        END { printf "CoreConfig fields: %d\n", fields }
    ' crates/core/src/config.rs
}
# The trajectory file: `./ci.sh bench <pr> [runs]` runs BENCHMARK.json's
# command on each of its workloads `runs` times (default 3), a fresh
# process each, plus one `--trace 1` run, folds each run's last line
# ({correct, attempted, failed, metrics}) with jq, and writes
# BENCH_<pr>.json at the repository root: the commit (and whether the
# tree differed from it), the loc stage's lines, the number of tier-1
# tests that passed, and per workload the median, q1 and q3 of every
# end-to-end metric over the untraced runs, the traced run's per-layer
# values, and the attempted/failed totals, plus a `host` block (see
# host_block). A plain ./ci.sh never runs it, and it gates nothing.
bench() { # <pr> [runs]
    pr=$1
    runs=${2:-3}
    tmp=$(mktemp -d)
    seconds=$(jq -r '.run_seconds' BENCHMARK.json)
    # BENCHMARK.json's command: arguments without spaces, one per word.
    command=$(jq -r '.command | join(" ")' BENCHMARK.json)
    for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
        i=0
        while [ "$i" -lt "$runs" ]; do
            echo "==> bench $w run $((i + 1))/$runs"
            $command --workload "$w" --seconds "$seconds" | tail -n 1 >"$tmp/$w.$i.run"
            i=$((i + 1))
        done
        echo "==> bench $w traced"
        $command --workload "$w" --seconds "$seconds" --trace 1 | tail -n 1 >"$tmp/$w.trace"
        jq -s --arg w "$w" --slurpfile traced "$tmp/$w.trace" '
            def q(p): sort | ((length - 1) * p) as $i | ($i | floor) as $lo
                | .[$lo] + (.[$i | ceil] - .[$lo]) * ($i - $lo);
            . as $runs | ($runs + $traced) as $all | {
                workload: $w,
                runs: ($runs | length),
                correct: ([$all[].correct] | all),
                attempted: ([$all[].attempted] | add),
                failed: ([$all[].failed] | add),
                end_to_end: ($runs[0].metrics | with_entries(.key as $m | .value = {
                    unit: .value.unit,
                    median: ([$runs[].metrics[$m].value] | q(0.5)),
                    q1: ([$runs[].metrics[$m].value] | q(0.25)),
                    q3: ([$runs[].metrics[$m].value] | q(0.75))
                })),
                per_layer: ($traced[0].metrics | map_values(.value))
            }' "$tmp/$w".[0-9]*.run >"$tmp/$w.summary"
    done
    jq -s --argjson pr "$pr" --arg commit "$(git rev-parse HEAD)" \
        --argjson dirty "$([ -n "$(git status --porcelain --untracked-files=no)" ] && echo true || echo false)" \
        --arg loc "$(loc)" --argjson tests "$(tests_passed)" \
        --argjson host "$(host_block)" '{
            pr: $pr,
            commit: $commit,
            dirty: $dirty,
            host: $host,
            loc: ($loc | split("\n") | map(sub("^ +"; ""))),
            tests: $tests,
            workloads: .
        }' "$tmp"/*.summary >"BENCH_$pr.json"
    rm -rf "$tmp"
    echo "wrote BENCH_$pr.json"
}
# The host a bench ran on, as JSON: CPU count, kernel release, and a
# CPU probe — ns per iteration of a fixed awk loop of 5e6 iterations
# (about 0.3 s), so bench-diff can tell a slower host from a slower
# change.
host_block() {
    start=$(date +%s%N)
    awk 'BEGIN { for (i = 0; i < 5000000; i++) s += i % 7; print s }' >/dev/null
    end=$(date +%s%N)
    jq -n --argjson nproc "$(nproc)" --arg uname_r "$(uname -r)" \
        --argjson probe "$(awk -v ns=$((end - start)) 'BEGIN { printf "%.1f", ns / 5000000 }')" \
        '{nproc: $nproc, uname_r: $uname_r, cpu_probe_ns: $probe}'
}
# Tier-1 tests that pass in this tree: the sum of `cargo test -q`'s
# "N passed" counts.
tests_passed() {
    cargo test -q 2>&1 | awk '/^test result:/ { n += $4 } END { print n + 0 }'
}
# The two BENCH_*.json names read on stdin with the highest PR numbers.
newest_two() {
    sed 's/^BENCH_\([0-9]*\)\.json$/\1/' | sort -n | tail -n 2 | sed 's/.*/BENCH_&.json/'
}
# The trajectory's step: `./ci.sh bench-diff [old new]` compares two
# BENCH_*.json files, by default the two with the highest PR numbers.
# It prints the hosts' CPU probe ratio (new / old; `host changed` when
# it moved more than 10 %, `no host block` when a file lacks one), per
# workload and end-to-end metric both medians and the change, and exits
# non-zero if a metric got worse than its BENCHMARK.json bound (a
# fraction of the old median) or a workload's failed ops rose.
bench_diff() { # [old new]
    if [ $# -lt 2 ]; then
        # shellcheck disable=SC2046
        set -- $(ls BENCH_*.json | newest_two)
    fi
    [ $# -eq 2 ] || { echo "bench-diff: needs two BENCH_*.json files" >&2; exit 2; }
    jq -n -r --arg old "$1" --arg new "$2" --slurpfile o "$1" --slurpfile n "$2" \
        --slurpfile b BENCHMARK.json '
        def r: . * 1000 | round / 1000;
        ($o[0].workloads | map({key: .workload, value: .}) | from_entries) as $before
        | [$n[0].workloads[] | select($before[.workload]) | . as $w | $before[$w.workload] as $p
           | ($b[0].end_to_end[] | .name as $m
              | $p.end_to_end[$m].median as $was | $w.end_to_end[$m].median as $now
              | {w: $w.workload, m: $m, was: $was, now: $now,
                 worse: (if .better == "lower" then $now > $was * (1 + .bound)
                         else $now < $was * (1 - .bound) end),
                 bound: .bound}),
             {w: $w.workload, m: "failed", was: $p.failed, now: $w.failed,
              worse: ($w.failed > $p.failed), bound: null}]
        | . as $rows
        | [$o[0].host.cpu_probe_ns, $n[0].host.cpu_probe_ns] as [$was, $now]
        | "\($old) -> \($new), medians:",
          (if $was and $now then
               "host cpu_probe_ns: \($was) -> \($now) (ratio \($now / $was | r))",
               (if ($now / $was - 1 | fabs) > 0.1 then "host changed" else empty end)
           else "no host block" end),
          ($rows[] | "\(.w) \(.m): \(.was | r) -> \(.now | r)"
              + (if .was != 0 then " (\((.now / .was - 1) * 100 | r)%)" else "" end)
              + (if .worse then "  WORSE" else "" end)
              + (if .worse and .bound then " than its bound \(.bound * 100)%" else "" end)),
          ([$rows[] | select(.worse)] | length) as $bad
          | if $bad > 0 then "\($bad) past their bound\n" | halt_error(1)
            else "all within their bounds" end'
}
# Alternating pairs: `./ci.sh bench-pairs <parent-tree> <workload> <n>
# [--trace]` builds BENCHMARK.json's benchmark once in <parent-tree> (a
# second checkout of the parent commit) and once here, then runs
# <workload> in `n` pairs of one run per side, alternating which side
# goes first (odd pairs the parent). It prints one line per pair — the
# end-to-end metrics and attempted/failed, parent / change — then per
# metric both medians, the parent's q1 and q3, and in how many pairs the
# change was strictly better. A claimed gain needs it better in most
# pairs and its median past the parent's q1–q3 spread. With `--trace`
# every run is a `--trace 1` run, which reports BENCHMARK.json's
# per-layer metrics instead of the end-to-end ones: the per-pair lines
# then hold attempted/failed, and the per-metric lines cover every
# per-layer metric both sides report — the same-session pairs a
# per-layer claim rests on. It gates nothing.
bench_pairs() { # <parent-tree> <workload> <n> [--trace]
    parent=$1
    workload=$2
    n=$3
    case "${4:-}" in
        "") trace=0 ;;
        --trace) trace=1 ;;
        *) echo "bench-pairs: unknown option $4" >&2; exit 2 ;;
    esac
    tmp=$(mktemp -d)
    seconds=$(jq -r '.run_seconds' BENCHMARK.json)
    command=$(jq -r '.command | join(" ")' BENCHMARK.json)
    for tree in "$parent" .; do
        echo "==> build the benchmark in $tree"
        (cd "$tree" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    done
    run_side() { # <side> <tree>
        echo "==> $workload pair $i/$n: $1"
        (cd "$2" && $command --workload "$workload" --seconds "$seconds" --trace "$trace") |
            tail -n 1 >>"$tmp/$1.jsonl"
    }
    i=1
    while [ "$i" -le "$n" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run_side parent "$parent"
            run_side change .
        else
            run_side change .
            run_side parent "$parent"
        fi
        i=$((i + 1))
    done
    jq -n -r --arg w "$workload" --slurpfile p "$tmp/parent.jsonl" \
        --slurpfile c "$tmp/change.jsonl" --slurpfile b BENCHMARK.json \
        --argjson trace "$trace" '
        def q(p): sort | ((length - 1) * p) as $i | ($i | floor) as $lo
            | .[$lo] + (.[$i | ceil] - .[$lo]) * ($i - $lo);
        def r: . * 1000 | round / 1000;
        def reported: [.[] | .name as $m | select(all($p[], $c[]; .metrics[$m].value != null))];
        ($b[0].end_to_end | reported) as $e2e
        | ($e2e + if $trace == 1 then $b[0].per_layer | reported else [] end) as $spec
        | [range(0; $p | length)] as $pairs
        | "\($w), parent / change:",
          ($pairs[] as $k
            | "pair \($k + 1) (\(if $k % 2 == 0 then "parent" else "change" end) first): "
              + ([$e2e[].name as $m
                  | "\($m) \($p[$k].metrics[$m].value | r) / \($c[$k].metrics[$m].value | r)"]
                 + ["attempted \($p[$k].attempted) / \($c[$k].attempted)",
                    "failed \($p[$k].failed) / \($c[$k].failed)"]
                 | join(", "))),
          ($spec[] as $s
            | [$p[].metrics[$s.name].value] as $pv | [$c[].metrics[$s.name].value] as $cv
            | [$pairs[] | select(if $s.better == "lower"
                                 then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)] as $wins
            | "\($s.name): parent median \($pv | q(0.5) | r)"
              + " (q1 \($pv | q(0.25) | r), q3 \($pv | q(0.75) | r)),"
              + " change median \($cv | q(0.5) | r),"
              + " change better in \($wins | length)/\($pairs | length) pairs")'
    rm -rf "$tmp"
}
if [ "${1:-}" = bench ]; then
    bench "${2:?usage: ./ci.sh bench <pr> [runs]}" "${3:-3}"
    exit 0
fi
if [ "${1:-}" = bench-diff ]; then
    shift
    bench_diff "$@"
    exit 0
fi
if [ "${1:-}" = bench-pairs ]; then
    usage="usage: ./ci.sh bench-pairs <parent-tree> <workload> <n> [--trace]"
    bench_pairs "${2:?$usage}" "${3:?$usage}" "${4:?$usage}" "${5:-}"
    exit 0
fi

echo "==> loc (report only)"
loc
if [ "${1:-}" = loc ]; then exit 0; fi

# The trajectory's last step, read from the two newest committed
# BENCH_*.json files: no benchmark run, and bench-diff's exit rule.
echo "==> bench-diff (the two newest committed BENCH_*.json)"
# shellcheck disable=SC2046
bench_diff $(git ls-files 'BENCH_*.json' | newest_two)

echo "==> cargo build --release"
cargo build --release

# Tier-1: the whole workspace suite, which asserts every paper claim and
# guardrail (EXPERIMENTS.md names the test behind each row).
echo "==> cargo test -q"
cargo test -q

# The vendored stand-ins for `bytes`, `crossbeam` and `parking_lot` are
# workspace members but not default members, so the stage above never
# runs their unit tests; every crate of the workspace builds on them.
echo "==> vendored stand-ins' tests"
cargo test -q -p bytes -p crossbeam -p parking_lot

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# No raw thread spawns in the Core (ROADMAP item 20): the work a Core
# starts itself (event deliveries, pull follow-ups, continuations,
# held-move resolutions) runs as tasks on its bounded worker pool, so
# its thread count is fixed when it starts — E26 counts it.
echo "==> no raw thread spawns in the Core"
if grep -rn "thread::spawn" crates/core/src; then
    echo "a Core submits its work to the worker pool, not to a new thread"
    exit 1
fi

# The simulator is read in one place (ROADMAP item 21): after spawn, a
# Core's members, names, up flags and links come from its directory
# (`crates/core/src/runtime/members.rs`, whose `Directory` keeps the
# network in a private field, so the compiler holds the rest of the
# Core to it), and the shell, scripts, the planner and the monitor ask
# the Core, not simnet's `Network`.
echo "==> the simulator is read in one place"
if grep -rn '\.network()' crates/shell/src crates/script/src crates/layout/src crates/viz/src ||
    awk '/^\[/ { deps = ($0 == "[dependencies]") }
         deps && /^simnet/ { print FILENAME ": " $0; found = 1 }
         END { exit !found }' \
        crates/shell/Cargo.toml crates/script/Cargo.toml \
        crates/layout/Cargo.toml crates/viz/Cargo.toml; then
    echo "ask the Core's directory (Core::members, core_index, link), not the network"
    exit 1
fi

# Failure-injection suite across several deterministic simnet seeds:
# each seed is a different loss/jitter schedule, so the reliable
# messaging layer (retransmission, reply dedup, two-phase moves) is
# exercised against more than one drop pattern.
for seed in 7 11 23; do
    echo "==> failure injection (seed $seed)"
    FARGO_SIMNET_SEED=$seed cargo test -q -p fargo-core --test failure_injection
done

# Envelope and write-ahead-log mutation fuzz across the same seeds: each
# seed mutates every sample envelope, every sample log record and a
# whole log file >=10k times (byte, bit and length mutations); a mutant
# must decode to Err (a log: stop at the torn frame) or to a valid
# message or record, without a panic and without asking the allocator
# for more than a small multiple of the input. The filter matches
# `proto::tests::` and `runtime::wal::tests::`. The TCP frame reader
# gets the same treatment: 12k mutants of framed values per seed, none
# of which may make it ask for one allocation above
# max(64 KiB, 2 x the bytes on the stream).
for seed in 7 11 23; do
    echo "==> proto + wal + frame mutation fuzz (seed $seed)"
    FARGO_PROTO_FUZZ_SEED=$seed cargo test -q -p fargo-core --lib \
        mutation_fuzz_never_panics_or_over_allocates
    FARGO_NET_FUZZ_SEED=$seed cargo test -q -p fargo-net --test frame_fuzz
done

# By-value memory bound: 2,000 alternating `scan(256)` / `put_batch(256)`
# calls on graph-shaped records through a 3-Core simnet cluster, then
# the two dedup-cache gauges of each data Core must show encoded reply
# bodies (not decoded trees) within the byte bound, and the caller must
# hold no request any more. Before it, what one decoded record of that
# shape costs, counted at the allocator: 2 allocations and <= 300 live
# bytes, decoded or cloned; a 5,000-record list keeps no spare capacity;
# strings round-trip across the 22-byte inline bound and the 32-byte
# short form; a batch of 256 records encodes in <= 50 bytes a record
# (field names once, through the codec's shape table); and a hostile
# shape index or short form allocates nothing for itself.
echo "==> by-value memory bound"
cargo test -q -p fargo-wire --test value_footprint
cargo test -q -p fargo-core --test by_value_memory

# Write-ahead-log memory bound: a Core logs 2,048 acknowledged puts over
# 16 complets of 2 KiB state (a log of >= 4 MiB, the monitor never
# compacting), then compacts it on the test thread, whose peak live heap
# counted at the allocator must stay <= 1 MiB: compaction streams the
# log frame by frame and copies the surviving frames, never holding the
# whole log or every record of it. A restart must then install the 16
# newest states from the compacted image.
echo "==> write-ahead-log memory bound"
cargo test -q -p fargo-core --test wal_footprint

# The full core integration suite again, this time with every envelope
# on real sockets: FARGO_TRANSPORT=tcp makes the test fixture pre-bind
# one loopback listener per Core and run the TCP backend, with the
# simnet network attached as the fault-injection control plane (via the
# delivery gate), so partition/loss scenarios must behave identically.
echo "==> core integration suite over TCP loopback"
FARGO_TRANSPORT=tcp cargo test -q -p fargo-core

# Multi-process smoke test: three OS processes, one Core each, framed
# envelopes over loopback sockets. The parent drives an invoke + migrate
# script through node 0 and insists on clean child shutdown.
echo "==> tcp_cluster example (3 processes over loopback)"
cargo run -q --release --example tcp_cluster | grep -q 'TCP cluster OK'

# The paper-scenario examples, each run to completion: each must exit
# 0 (an example returns its first error from `main`, and some assert
# their outcome), and `timeout` turns a hang into a failure. `monitor_view` is the layout monitor's
# only caller outside tests; `shell -- demo` is the shell's canned
# session. They are built first so the budget covers the run alone.
echo "==> paper-scenario examples"
cargo build -q --release --examples
for example in quickstart adaptive_chat evacuation load_balancer mobile_agent monitor_view; do
    timeout 30 cargo run -q --release --example "$example" >/dev/null
done
timeout 30 cargo run -q --release --example shell -- demo >/dev/null

# Deterministic schedule-explorer sweep: 1000 seeded workloads (moves,
# invokes, relocator links, time advances, idle-tracker collections)
# through the virtual-clock driver, every merged journal checked against
# the invariant oracles. A failing seed shrinks to a minimal schedule,
# is written to fargo-check-seed<N>.sched, and the exact replay command
# is printed; `timeout` enforces the wall-time budget so a throughput
# regression fails CI rather than stalling it.
echo "==> fargo-check seed sweep (1000 seeds, 60s budget)"
timeout 60 cargo run -q -p fargo-check --release -- --seeds 1000 --ops 12 --cores 3

# Fault-injection sweep: the same explorer with crash / restart /
# partition / heal ops mixed into every schedule, checked by the
# "no acknowledged state lost" durability oracle on top of the
# standard set. Every Core runs with a write-ahead log in a scratch
# dir; recovery must replay it on restart.
echo "==> fargo-check fault sweep (1000 seeds, 120s budget)"
timeout 120 cargo run -q -p fargo-check --release -- \
    --seeds 1000 --ops 16 --cores 3 --faults

# Stress sweep: the same explorer on the wall clock over lossy links (3%
# loss) with jitter, its operations raced by two threads instead of run
# one at a time, so retransmissions, moves and calls interleave — what
# at-most-once execution across relocation has to survive. ~20 s.
echo "==> fargo-check stress sweep (1000 seeds, 60s budget)"
timeout 60 cargo run -q -p fargo-check --release -- \
    --seeds 1000 --ops 12 --cores 3 --stress

# The standing benchmark's own tests: its unit tests plus one second of
# each of the four workloads with the oracle on, so a wire or runtime
# change that breaks a workload fails here before the driver sees it.
echo "==> benchmark smoke (1 s of each workload, oracle on)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
