#!/usr/bin/env bash
# Repo CI, runnable whole or per step:
#
#   scripts/ci.sh                 run every step (the full pipeline)
#   scripts/ci.sh build test      run only the named steps, in order
#
# Steps:
#   fmt          cargo fmt --check (skipped when rustfmt is absent)
#   clippy       cargo clippy -D warnings (skipped when clippy is absent)
#   build        cargo build --release, failing on any compiler warning
#   doc          cargo doc with -D warnings (broken intra-doc links fail)
#   test         tier-1 test suite with the parallel harness enabled
#   conformance  fuzzer + oracle + metamorphic invariants, fixed seed
#   determinism  byte-identity matrix over ARC_JOBS x ARC_SIM_WORKERS x
#                ARC_FF x ARC_SIM_EPOCH
#   store        result-store round-trip: the JSON writer byte-identity
#                snapshots (store keys and objects are hashes of those
#                bytes), the tracegen golden (memo keys trust it), the
#                sim-service unit tests (pinned trace digest, daemon
#                fail-closed coalescing, dedup keys and writer lock,
#                frame length checks), the harness trace-memo fail-closed
#                tests, then the fixed `simserved sweep` grid runs cold
#                then warm against a temp store; stdout must be
#                byte-identical and the warm pass all hits. On the same
#                store, `figures --store` runs cold then warm: identical
#                stdout, and the warm run renders no frame and misses
#                nothing. `simserved fsck --verify-traces` then re-renders
#                every memoized spec and must find no mismatch. Last, the
#                warm sweep must be >= 5x faster than the cold one
#   frame        multi-kernel frame pipeline: the tile-binned 3DGS
#                structural tests (sorted-key monotonicity, bin-edge /
#                scan cross-check, image == functional rasterizer), the
#                per-stage conformance battery, the harness end-to-end
#                + stage-keyed store round-trip, and the legacy
#                bit-identity golden
#   passes       trace-IR optimizer pipeline: the pass-equivalence
#                conformance subset (fused == composed, cache hits
#                pointer-equal and byte-invisible), a determinism matrix
#                cell with ARC_PASSES=all (byte-identical across host
#                parallelism, observably different from the baseline),
#                the ARC_PASSES-unset / ARC_PASSES=none default-off
#                pins, and the perf_smoke pass-overhead gate (gradcomp
#                wall_on_s/wall_off_s vs the recorded baseline) against
#                a scratch copy of the trajectory
#
# `determinism`, `store`, and `passes` need release binaries and build
# the ones they use, so each step also works standalone on a fresh
# checkout.
#
# rustfmt and clippy are optional components: when a toolchain ships
# without them the corresponding step warns and is skipped instead of
# failing the run.
set -euo pipefail
cd "$(dirname "$0")/.."

TMPROOT="$(mktemp -d)"
trap 'rm -rf "$TMPROOT"' EXIT

step_fmt() {
  if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
  else
    echo "== cargo fmt not installed; skipping format check =="
  fi
}

step_clippy() {
  if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy (-D warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
  else
    echo "== cargo clippy not installed; skipping lints =="
  fi
}

step_build() {
  echo "== cargo build --release (must be warning-clean) =="
  local log="$TMPROOT/build.log"
  cargo build --release 2>&1 | tee "$log"
  local warnings
  warnings=$(grep -c '^warning' "$log" || true)
  if [ "$warnings" -ne 0 ]; then
    echo "build emitted $warnings warning line(s); the release build must be warning-clean"
    exit 1
  fi
}

step_doc() {
  echo "== cargo doc (-D warnings) =="
  # API docs must build clean: broken intra-doc links (e.g. a registry
  # item renamed without its references) fail CI here.
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

step_test() {
  echo "== cargo test (ARC_JOBS=2) =="
  ARC_JOBS=2 cargo test -q
}

step_conformance() {
  echo "== conformance suite (fuzzer + oracle + metamorphic invariants) =="
  # Fixed seed so a CI failure is reproducible verbatim on any machine:
  #   CONFORMANCE_SEED=0xA12C2025 cargo test -p conformance
  # Shrunk minimal reproducers for any failure land in
  # target/conformance-failures/ (uploaded as a CI artifact).
  CONFORMANCE_SEED=0xA12C2025 cargo test -q -p conformance
}

step_determinism() {
  cargo build --release -q -p arc-bench --bin determinism

  echo "== determinism matrix (ARC_JOBS x ARC_SIM_WORKERS x ARC_FF) =="
  # The probe simulates a fixed cell grid with telemetry off and on and
  # prints one canonical line per cell; every host-parallelism
  # combination must produce byte-identical output. The ARC_FF axis
  # keeps the fast-forward escape hatch honest: the naive cycle loop
  # (ARC_FF=0) must stay byte-identical to the event-driven one
  # (ARC_FF=1, the default).
  local outdir="$TMPROOT/determinism"
  mkdir -p "$outdir"
  local baseline="$outdir/det_1_1_1.txt"
  ARC_JOBS=1 ARC_SIM_WORKERS=1 ARC_FF=1 ./target/release/determinism > "$baseline"
  local ff jobs workers out
  for ff in 1 0; do
    for jobs in 2 8; do
      for workers in 1 2 8; do
        out="$outdir/det_${jobs}_${workers}_${ff}.txt"
        ARC_JOBS=$jobs ARC_SIM_WORKERS=$workers ARC_FF=$ff \
          ./target/release/determinism > "$out"
        if ! cmp -s "$baseline" "$out"; then
          echo "determinism matrix FAILED: ARC_JOBS=$jobs ARC_SIM_WORKERS=$workers ARC_FF=$ff diverges:"
          diff "$baseline" "$out" || true
          exit 1
        fi
        echo "ARC_JOBS=$jobs ARC_SIM_WORKERS=$workers ARC_FF=$ff: identical"
      done
    done
  done
  # The escape hatch alone, serial: the smallest FF-off configuration.
  out="$outdir/det_1_1_0.txt"
  ARC_JOBS=1 ARC_SIM_WORKERS=1 ARC_FF=0 ./target/release/determinism > "$out"
  if ! cmp -s "$baseline" "$out"; then
    echo "determinism matrix FAILED: ARC_FF=0 serial diverges:"
    diff "$baseline" "$out" || true
    exit 1
  fi
  echo "ARC_JOBS=1 ARC_SIM_WORKERS=1 ARC_FF=0: identical"

  echo "== determinism matrix (ARC_SIM_EPOCH axis) =="
  # The baseline above already runs the default epoch mode (auto); the
  # epoch axis pins the per-cycle escape hatch (1), a fixed cap (4), and
  # an explicit auto against it, crossed with worker counts and the
  # fast-forward toggle. All byte-identical: the epoch-safety analysis
  # may only change wall-clock time, never output.
  local epoch
  for epoch in 1 4 auto; do
    for workers in 1 8; do
      for ff in 1 0; do
        out="$outdir/det_e${epoch}_${workers}_${ff}.txt"
        ARC_SIM_EPOCH=$epoch ARC_JOBS=2 ARC_SIM_WORKERS=$workers ARC_FF=$ff \
          ./target/release/determinism > "$out"
        if ! cmp -s "$baseline" "$out"; then
          echo "determinism matrix FAILED: ARC_SIM_EPOCH=$epoch ARC_SIM_WORKERS=$workers ARC_FF=$ff diverges:"
          diff "$baseline" "$out" || true
          exit 1
        fi
        echo "ARC_SIM_EPOCH=$epoch ARC_SIM_WORKERS=$workers ARC_FF=$ff: identical"
      done
    done
  done
}

step_store() {
  echo "== JSON writer byte-identity (snapshots blessed before the writer rewrite) =="
  cargo test -q -p conformance --test json_identity

  echo "== tracegen golden (stage digests pinned under TRACEGEN_VERSION) =="
  cargo test -q -p conformance --test tracegen

  echo "== sim-service unit tests (digest pin, daemon fail-closed, frames) =="
  cargo test -q -p sim-service --lib

  echo "== harness trace-memo fail-closed tests =="
  cargo test -q -p arc-bench --test trace_memo

  cargo build --release -q -p sim-service --bin simserved
  cargo build --release -q -p arc-bench --bin figures

  echo "== result store round-trip (simserved sweep, cold vs warm) =="
  # The fixed sweep grid runs twice against a fresh temp store. The
  # second pass must (a) print byte-identical rows — a cache hit may
  # never change results — (b) serve every cell from the store, and
  # (c) be at least 5x faster than the cold pass, the whole point of
  # persisting results.
  local storedir="$TMPROOT/store"
  local cold="$TMPROOT/sweep-cold" warm="$TMPROOT/sweep-warm"
  ./target/release/simserved sweep --store "$storedir" --scale 1.0 --jobs 2 \
    > "$cold.out" 2> "$cold.err"
  ./target/release/simserved sweep --store "$storedir" --scale 1.0 --jobs 2 \
    > "$warm.out" 2> "$warm.err"

  if ! cmp -s "$cold.out" "$warm.out"; then
    echo "store round-trip FAILED: warm sweep rows differ from cold:"
    diff "$cold.out" "$warm.out" || true
    exit 1
  fi
  echo "cold and warm sweep rows are byte-identical ($(wc -l < "$cold.out") cells)"

  # The store must not be poisoned by its own writes.
  ./target/release/simserved fsck --store "$storedir" | tee "$TMPROOT/fsck.out"
  if ! grep -q ' 0 removed' "$TMPROOT/fsck.out"; then
    echo "store round-trip FAILED: fsck removed entries from a freshly written store"
    exit 1
  fi

  echo "== harness warm check (figures --store, cold then warm) =="
  # The bench harness on the same store: the cold run renders, simulates
  # and memoizes each workload's stage digests; the warm run must print
  # byte-identical figures without rendering a frame or missing a cell.
  local figcold="$TMPROOT/figures-cold" figwarm="$TMPROOT/figures-warm"
  ./target/release/figures --store "$storedir" --scale 0.2 --jobs 2 fig22 \
    > "$figcold.out" 2> "$figcold.err"
  ./target/release/figures --store "$storedir" --scale 0.2 --jobs 2 fig22 \
    > "$figwarm.out" 2> "$figwarm.err"
  if ! cmp -s "$figcold.out" "$figwarm.out"; then
    echo "harness warm check FAILED: warm figures differ from cold:"
    diff "$figcold.out" "$figwarm.out" || true
    exit 1
  fi
  grep '^store-summary ' "$figcold.err" "$figwarm.err"
  local warm_frames fig_misses
  warm_frames=$(awk '/^store-summary/{print $3}' "$figwarm.err")
  fig_misses=$(awk '/^store-summary/{print $7}' "$figwarm.err")
  if [ "$warm_frames" != "0" ] || [ "$fig_misses" != "0" ]; then
    echo "harness warm check FAILED: warm run built $warm_frames frames and missed $fig_misses cells (want 0 and 0)"
    exit 1
  fi

  echo "== memoized trace digests == fresh renders (fsck --verify-traces) =="
  # Exits non-zero (after deleting the memo) if any memoized digest
  # differs from a fresh render of its spec.
  ./target/release/simserved fsck --store "$storedir" --verify-traces \
    | tee "$TMPROOT/verify.out"
  if ! grep -Eq ' 0 removed, .*; memos: [1-9][0-9]* valid, 0 removed' "$TMPROOT/verify.out"; then
    echo "store round-trip FAILED: fsck removed entries or found no memo to verify"
    exit 1
  fi

  grep '^sweep-wall-seconds ' "$cold.err" "$warm.err"
  local cold_s warm_s warm_misses
  cold_s=$(awk '/^sweep-wall-seconds/{print $2}' "$cold.err")
  warm_s=$(awk '/^sweep-wall-seconds/{print $2}' "$warm.err")
  warm_misses=$(awk '/^sweep-wall-seconds/{print $6}' "$warm.err")
  if [ "$warm_misses" != "0" ]; then
    echo "store round-trip FAILED: warm sweep recorded $warm_misses misses (want 0)"
    exit 1
  fi
  if ! awk -v c="$cold_s" -v w="$warm_s" \
      'BEGIN { exit (w > 0 && c / w >= 5.0) ? 0 : 1 }'; then
    echo "store round-trip FAILED: warm pass ${warm_s}s vs cold ${cold_s}s — want >= 5x speedup"
    exit 1
  fi
  awk -v c="$cold_s" -v w="$warm_s" \
    'BEGIN { printf "warm sweep %.3fs vs cold %.3fs: %.1fx\n", w, c, c / w }'
}

step_frame() {
  echo "== frame pipeline (tile-binned 3DGS structural tests) =="
  # Sorted-key monotonicity, the bin-edge / exclusive-scan cross-check,
  # and the tile-binned image matching the functional rasterizer all
  # live in the primitives module's unit tests.
  cargo test -q -p diffrender --lib primitives

  echo "== frame pipeline (per-stage conformance battery) =="
  # Every kernel of the 3D-TB frame through the functional oracle and
  # the metamorphic simulator invariants.
  CONFORMANCE_SEED=0xA12C2025 cargo test -q -p conformance --test frame_stages

  echo "== frame pipeline (harness end-to-end + stage-keyed store) =="
  cargo test -q -p arc-bench --test frame_pipeline

  echo "== frame pipeline (legacy three-stage bit-identity golden) =="
  cargo test -q -p arc-bench --test legacy_goldens
}

step_passes() {
  cargo build --release -q -p arc-bench --bin determinism

  echo "== pass-equivalence conformance subset =="
  # The full battery runs the invariant over every fuzzed trace in the
  # conformance step; this is the fast targeted slice — one case per
  # fuzz shape (including loop-heavy) plus a stream sample.
  CONFORMANCE_SEED=0xA12C2025 cargo test -q -p conformance --test pass_equivalence

  echo "== determinism matrix (ARC_PASSES axis) =="
  local outdir="$TMPROOT/passes"
  mkdir -p "$outdir"
  local plain="$outdir/det_plain.txt"
  ARC_JOBS=1 ARC_SIM_WORKERS=1 ./target/release/determinism > "$plain"

  # Default-off pins: unset and `none` are byte-identical to each other
  # and (by construction: the empty pipeline is Cow::Borrowed) to any
  # build without the pass module at all.
  local none="$outdir/det_none.txt"
  ARC_PASSES=none ARC_JOBS=1 ARC_SIM_WORKERS=1 ./target/release/determinism > "$none"
  if ! cmp -s "$plain" "$none"; then
    echo "passes matrix FAILED: ARC_PASSES=none diverges from unset:"
    diff "$plain" "$none" || true
    exit 1
  fi
  echo "ARC_PASSES=none == unset: identical"

  # ARC_PASSES=all is deterministic in itself across host parallelism.
  local baseline="$outdir/det_all_1_1.txt"
  ARC_PASSES=all ARC_JOBS=1 ARC_SIM_WORKERS=1 ./target/release/determinism > "$baseline"
  local jobs workers out
  for jobs in 2 8; do
    for workers in 1 8; do
      out="$outdir/det_all_${jobs}_${workers}.txt"
      ARC_PASSES=all ARC_JOBS=$jobs ARC_SIM_WORKERS=$workers \
        ./target/release/determinism > "$out"
      if ! cmp -s "$baseline" "$out"; then
        echo "passes matrix FAILED: ARC_PASSES=all ARC_JOBS=$jobs ARC_SIM_WORKERS=$workers diverges:"
        diff "$baseline" "$out" || true
        exit 1
      fi
      echo "ARC_PASSES=all ARC_JOBS=$jobs ARC_SIM_WORKERS=$workers: identical"
    done
  done

  # The pipeline must actually do something on these workloads —
  # identical output would mean the knob is silently dead.
  if cmp -s "$plain" "$baseline"; then
    echo "passes matrix FAILED: ARC_PASSES=all output is identical to the baseline"
    exit 1
  fi
  echo "ARC_PASSES=all changes the probe output (pipeline is live)"

  echo "== pass-overhead perf gate (perf_smoke --gate, scratch trajectory) =="
  # perf_smoke's gate includes the pass-overhead axis: each passes
  # workload's wall_on_s/wall_off_s ratio must stay within tolerance of
  # the recorded baseline's. Gate against a scratch copy so this step
  # never mutates the checked-in trajectory (bench_gate.sh does that
  # deliberately, once, at the end of the pipeline). With no comparable
  # baseline (different core count) the gate records-and-passes.
  cargo build --release -q -p arc-bench --bin perf_smoke
  local bench="$TMPROOT/bench_passes.json"
  if [ -f BENCH_parallel_sim.json ]; then
    cp BENCH_parallel_sim.json "$bench"
  fi
  ./target/release/perf_smoke \
    --scale "${ARC_BENCH_SCALE:-0.35}" --jobs "${ARC_BENCH_JOBS:-2}" \
    --gate "${ARC_BENCH_TOLERANCE:-0.2}" --out "$bench"
}

usage() {
  echo "usage: scripts/ci.sh [fmt|clippy|build|doc|test|conformance|determinism|store|frame|passes|all]..." >&2
  exit 2
}

steps=("$@")
if [ "${#steps[@]}" -eq 0 ]; then
  steps=(all)
fi
for s in "${steps[@]}"; do
  case "$s" in
    fmt) step_fmt ;;
    clippy) step_clippy ;;
    build) step_build ;;
    doc) step_doc ;;
    test) step_test ;;
    conformance) step_conformance ;;
    determinism) step_determinism ;;
    store) step_store ;;
    frame) step_frame ;;
    passes) step_passes ;;
    all)
      step_fmt
      step_clippy
      step_build
      step_doc
      step_test
      step_conformance
      step_determinism
      step_store
      step_frame
      step_passes
      ;;
    *) usage ;;
  esac
done
echo "CI OK"
