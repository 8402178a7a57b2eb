#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the layers that need them.
# Run from the repo root:
#
#   scripts/check.sh            # full: tier-1 build+ctest, ASan kernel tests, TSan chaos tests, perf smoke, obs
#   scripts/check.sh --tier1    # only the tier-1 build + full ctest suite
#   scripts/check.sh --asan     # only the ASan kernel/engine/cache tests
#   scripts/check.sh --tsan     # only the TSan chaos/fault-tolerance + obs tests
#   scripts/check.sh --perf     # only the reconstruction perf smoke + collective latency gate
#   scripts/check.sh --obs      # only the observability end-to-end checks
#   scripts/check.sh --sched    # only the multi-tenant scheduler checks
#   scripts/check.sh --simd     # only the SIMD/precision flavor checks
#   scripts/check.sh --serve    # only the prediction-serving checks
#   scripts/check.sh --pbm      # only the PBM-solver checks
#
# The ASan pass rebuilds the kernel-layer tests under -DSVM_SANITIZE=address
# in a separate build tree (build-asan/) and runs the binaries directly; it
# exists to catch span-lifetime bugs in KernelRowCache pinning and the
# KernelEngine scatter buffers that a plain run cannot see.
#
# The TSan pass rebuilds under -DSVM_SANITIZE=thread (build-tsan/) and runs
# the `chaos`- and `obs`-labelled ctest suites: the lock-free collective
# round stress and spin-phase fault tests, the fault-injection,
# checkpoint/restart and elastic shrink-world tests plus the trace-recorder
# concurrency tests. Failure detection, World::mark_failed poking,
# Comm::agree, the generation hand-off in the elastic trainer and the
# lock-free per-thread trace rings are all cross-thread rendezvous under the
# simulated MPI world — exactly the code a data-race would corrupt silently
# in a plain run.
#
# The sched pass rebuilds the scheduler chaos suite under TSan and runs it
# (the dispatcher, watchdog, gang hand-off and pool-exit paths are all
# cross-thread rendezvous), then runs bench_scheduler --quick with tracing
# on, validates the per-job spans and the run report, and gates the emitted
# BENCH_scheduler.json against itself with tools/bench_diff (a self-diff
# must report zero regressions; a perturbed copy must be caught).
#
# The serve pass rebuilds the serving suite under TSan and runs the
# `serve`-labelled tests (frontend batcher, client threads and the worker
# ranks all rendezvous on the request queue, the mailbox deadline waits and
# the failure registry — the exact cross-thread surface a race would corrupt
# silently), then runs bench_serving --quick --assert (admission shedding
# bounded at 2x saturation, zero failed responses and bit-identical answers
# across a mid-run rank death) with tracing on, validates the serve spans and
# the run report, and gates the committed BENCH_serving.json with
# tools/bench_diff (self-diff quiet, perturbed copy caught).
#
# The pbm pass rebuilds the PBM solver suites under TSan and runs them (the
# block solves, the delta-sync ring and the shrink-world recovery replay are
# all cross-thread rendezvous under the simulated world), then runs
# bench_pbm --quick --assert (both solvers converge to the same KKT gap,
# SV-set agreement holds, and PBM moves >= 2x fewer bytes than SMO at
# p >= 8) with tracing on, validates the pbm spans and the run report, and
# gates the committed BENCH_pbm.json with tools/bench_diff (self-diff
# quiet, perturbed copy caught).
#
# The simd pass rebuilds the RowStore/engine-parity suites under UBSan with
# float-cast-overflow checking (build-ubsan/) — the f16 codec and the int8
# quantizer are exactly the code where a narrowing cast silently saturates —
# then runs bench_precision --assert (simd f64 bitwise vs scalar, reduced
# flavors within their disagreement gates, simd f32 >= 1.5x scalar double)
# and bench_engine_backends --assert (every strategy bitwise-equal to
# reference; the data's choice >= 0.95x the best strategy on higgs and url),
# and gates the committed BENCH_engine.json / BENCH_precision.json artifacts
# with tools/bench_diff (self-diff quiet, perturbed copy caught).
#
# The obs pass trains a small synthetic problem at p=4 with tracing and
# metrics enabled, validates the artifacts with tools/trace_validate
# (well-formed Chrome JSON, monotonic per-rank timestamps, balanced spans,
# all four instrumentation layers present, >= 2 counter tracks), validates
# the run report a bench emits, and runs the tracing-disabled overhead guard
# (< 2% on an SMO-shaped hot loop).
set -euo pipefail
cd "$(dirname "$0")/.."

run_tier1=true
run_asan=true
run_tsan=true
run_perf=true
run_obs=true
run_sched=true
run_simd=true
run_serve=true
run_pbm=true
only() {  # only <step>: disable every step except the named one
  run_tier1=false; run_asan=false; run_tsan=false
  run_perf=false; run_obs=false; run_sched=false; run_simd=false
  run_serve=false; run_pbm=false
  eval "run_$1=true"
}
case "${1:-}" in
  --tier1) only tier1 ;;
  --asan) only asan ;;
  --tsan) only tsan ;;
  --perf) only perf ;;
  --obs) only obs ;;
  --sched) only sched ;;
  --simd) only simd ;;
  --serve) only serve ;;
  --pbm) only pbm ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--tier1|--asan|--tsan|--perf|--obs|--sched|--simd|--serve|--pbm]" >&2; exit 2 ;;
esac

if $run_tier1; then
  echo "=== tier-1: configure + build + ctest ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  (cd build && ctest --output-on-failure -j "$(nproc)")
fi

if $run_asan; then
  echo "=== asan: kernel/engine/cache tests under -fsanitize=address ==="
  cmake -B build-asan -S . -DSVM_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target \
    test_kernel test_kernel_cache test_kernel_engine test_engine_parity
  for t in test_kernel test_kernel_cache test_kernel_engine test_engine_parity; do
    echo "--- $t (asan) ---"
    ./build-asan/tests/"$t"
  done
fi

if $run_tsan; then
  echo "=== tsan: chaos/fault-tolerance tests under -fsanitize=thread ==="
  cmake -B build-tsan -S . -DSVM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target \
    test_mpisim_fault test_mpisim_rounds test_chaos_recovery test_elastic_shrink \
    test_gradrecon_pipeline test_obs
  (cd build-tsan && ctest -L 'chaos|obs' --output-on-failure -j "$(nproc)")
fi

if $run_perf; then
  echo "=== perf smoke: pipelined reconstruction must not regress serial at p=4 ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_fig8_gradrecon bench_micro_mpisim
  # --assert makes the bench exit nonzero if the pipelined ring's
  # reconstruction wall time exceeds the serial ring's, if the modeled
  # network seconds fail to drop, or if bitwise model parity breaks.
  (cd build && ./bench/bench_fig8_gradrecon --quick --ranks 4 --assert)
  # Collective latency at p=4: the minloc + maxloc + bcast triple must stay
  # within 15 us and the fused allreduce_minmaxloc within 5 us (minimum of
  # interleaved repeats, so a noisy neighbour cannot fail it alone).
  ./build/bench/bench_micro_mpisim --assert-collectives
fi

if $run_obs; then
  echo "=== obs: traced training run + artifact validation + overhead guard ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target \
    parallel_training trace_validate trace_analyze bench_pbm bench_trace_active \
    bench_micro_mpisim
  obs_dir=$(mktemp -d)
  trap 'rm -rf "$obs_dir"' EXIT
  # A p=4 traced run must produce a Chrome trace with spans from all four
  # layers (mpisim collective, kernel-engine batch, solver phase,
  # reconstruction ring step) and at least two counter tracks.
  ./build/examples/parallel_training --ranks 4 --n 800 \
    --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.json"
  ./build/tools/trace_validate "$obs_dir/trace.json" \
    --require-span solve,phase,smo_batch,allreduce,bcast,engine_pair_batch,ring_step,reconstruction \
    --min-counter-tracks 2
  ./build/tools/trace_validate --metrics "$obs_dir/metrics.json"
  # A bench's run report must validate too (active-set trajectory bench).
  ./build/bench/bench_trace_active --quick --metrics-out "$obs_dir/bench_metrics.json" >/dev/null
  ./build/tools/trace_validate --metrics "$obs_dir/bench_metrics.json"
  # Causal flow analysis on a p=8 PBM traced run: every flow start must be
  # finished on another rank (strict default), the compute/comm/blocked/
  # imbalance attribution must close to 100% +-2% on every round, and at
  # least one round must show nonzero comm on every rank — proof the flow
  # edges really bind senders to receivers.
  (cd "$obs_dir" && "$OLDPWD"/build/bench/bench_pbm --quick --datasets=higgs --ranks=8 \
    --trace-out "$obs_dir/pbm_trace.json" --metrics-out "$obs_dir/pbm_metrics.json" >/dev/null)
  ./build/tools/trace_validate "$obs_dir/pbm_trace.json" --require-span round,pbm_round
  ./build/tools/trace_analyze "$obs_dir/pbm_trace.json" --assert \
    --out "$obs_dir/pbm_analysis.json"
  # Tracing disabled must cost < 2% on an SMO-shaped hot loop.
  ./build/bench/bench_micro_mpisim --assert-obs-overhead
fi

if $run_sched; then
  echo "=== sched: TSan scheduler chaos suite + bench artifact gate ==="
  cmake -B build-tsan -S . -DSVM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target test_scheduler
  (cd build-tsan && ctest -R test_scheduler --output-on-failure)
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_scheduler bench_diff trace_validate
  sched_dir=$(mktemp -d)
  # Re-arm rather than replace the obs step's cleanup (full runs set both).
  trap 'rm -rf "${obs_dir:-}" "${sched_dir:-}"' EXIT
  # bench_scheduler exits nonzero if any regime loses accepted work; the
  # low-fault regime carries the trace/metrics artifacts.
  (cd "$sched_dir" && "$OLDPWD"/build/bench/bench_scheduler --quick     --trace-out "$sched_dir/trace.json" --metrics-out "$sched_dir/metrics.json")
  # --allow-dangling-flows: the chaos regimes kill ranks mid-flight, so some
  # flow starts legitimately never find their receiver.
  ./build/tools/trace_validate "$sched_dir/trace.json" --require-span job,solve \
    --allow-dangling-flows
  ./build/tools/trace_validate --metrics "$sched_dir/metrics.json"
  # The regression gate must be quiet on a self-diff and loud on a
  # perturbed candidate.
  ./build/tools/bench_diff "$sched_dir/BENCH_scheduler.json" "$sched_dir/BENCH_scheduler.json"
  sed 's/"jobs_lost": 0/"jobs_lost": 9/' "$sched_dir/BENCH_scheduler.json"     > "$sched_dir/BENCH_regressed.json"
  if ./build/tools/bench_diff "$sched_dir/BENCH_scheduler.json"       "$sched_dir/BENCH_regressed.json" > /dev/null; then
    echo "bench_diff failed to flag an injected regression" >&2
    exit 1
  fi
fi

if $run_serve; then
  echo "=== serve: TSan serving suite + bench artifact gate ==="
  cmake -B build-tsan -S . -DSVM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target test_serving
  (cd build-tsan && ctest -L serve --output-on-failure -j "$(nproc)")
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_serving bench_diff trace_validate
  serve_dir=$(mktemp -d)
  trap 'rm -rf "${obs_dir:-}" "${sched_dir:-}" "${simd_dir:-}" "${serve_dir:-}"' EXIT
  # --assert enforces the degradation contract: p99 under deadline with zero
  # shedding at 0.7x saturation, bounded-queue shedding with bounded
  # accepted-p99 at 2x, and a mid-run rank death answered with zero failures
  # and decisions bit-identical to the fault-free run. The low-fault regime
  # carries the trace/metrics artifacts. Runs in a scratch dir so the
  # committed BENCH_serving.json is not overwritten.
  (cd "$serve_dir" && "$OLDPWD"/build/bench/bench_serving --quick --assert \
    --trace-out "$serve_dir/trace.json" --metrics-out "$serve_dir/metrics.json")
  # --allow-dangling-flows: the serving bench injects a mid-run rank death,
  # so flows into the dead worker legitimately dangle.
  ./build/tools/trace_validate "$serve_dir/trace.json" \
    --require-span serve_batch,serve_eval --allow-dangling-flows
  ./build/tools/trace_validate --metrics "$serve_dir/metrics.json"
  # The committed artifact must be gate-clean against itself and the gate
  # must still be loud on a perturbed copy (requests_lost is lower-better).
  ./build/tools/bench_diff BENCH_serving.json BENCH_serving.json
  sed 's/"requests_lost": 0/"requests_lost": 9/' BENCH_serving.json \
    > "$serve_dir/BENCH_regressed.json"
  if ./build/tools/bench_diff BENCH_serving.json \
      "$serve_dir/BENCH_regressed.json" > /dev/null; then
    echo "bench_diff failed to flag an injected regression in BENCH_serving.json" >&2
    exit 1
  fi
fi

if $run_simd; then
  echo "=== simd: precision/parity suites under UBSan + flavor gates ==="
  cmake -B build-ubsan -S . -DSVM_SANITIZE=undefined,float-cast-overflow >/dev/null
  cmake --build build-ubsan -j --target test_row_store test_engine_parity
  for t in test_row_store test_engine_parity; do
    echo "--- $t (ubsan) ---"
    UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/"$t"
  done
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_precision bench_engine_backends bench_diff
  simd_dir=$(mktemp -d)
  trap 'rm -rf "${obs_dir:-}" "${sched_dir:-}" "${serve_dir:-}" "${simd_dir:-}"' EXIT
  # --assert: simd f64 must stay bitwise-equal to the scalar engines, the
  # reduced flavors must hold their disagreement gates, and simd f32 must
  # clear 1.5x single-core kernel-eval throughput over scalar double. Runs
  # in a scratch dir so the committed artifact is not overwritten.
  (cd "$simd_dir" && "$OLDPWD"/build/bench/bench_precision --quick --assert)
  # --assert: every strategy bitwise-equal to reference on every zoo shape,
  # and the data's choice (auto) within 0.95x of the better of dense_scatter
  # and simd on higgs (dense) and url (sparse).
  (cd "$simd_dir" && "$OLDPWD"/build/bench/bench_engine_backends --quick --assert)
  # The committed artifacts must be gate-clean against themselves and the
  # gate must still be loud: perturb one throughput leaf in each and demand
  # bench_diff flags it.
  for artifact in BENCH_engine.json BENCH_precision.json; do
    ./build/tools/bench_diff "$artifact" "$artifact"
    sed 's/"\([a-z_]*per_s[a-z_]*\)": [0-9.eE+-]*/"\1": 1.0/' "$artifact" \
      > "$simd_dir/regressed.json"
    if ./build/tools/bench_diff "$artifact" "$simd_dir/regressed.json" > /dev/null; then
      echo "bench_diff failed to flag an injected regression in $artifact" >&2
      exit 1
    fi
  done
fi

if $run_pbm; then
  echo "=== pbm: TSan solver suites + bench artifact gate ==="
  cmake -B build-tsan -S . -DSVM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target test_pbm test_pbm_chaos
  (cd build-tsan && ctest -R 'test_pbm' --output-on-failure -j "$(nproc)")
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_pbm bench_diff trace_validate
  pbm_dir=$(mktemp -d)
  trap 'rm -rf "${obs_dir:-}" "${sched_dir:-}" "${serve_dir:-}" "${simd_dir:-}" "${pbm_dir:-}"' EXIT
  # --assert enforces: both solvers converge to the same KKT gap, the SV-set
  # Jaccard agreement holds, and PBM moves >= 2x fewer bytes than SMO at
  # p >= 8 on >= 2 datasets. The first p>=4 PBM run carries the trace and
  # metrics artifacts. Runs in a scratch dir so the committed BENCH_pbm.json
  # is not overwritten.
  (cd "$pbm_dir" && "$OLDPWD"/build/bench/bench_pbm --quick --assert \
    --trace-out "$pbm_dir/trace.json" --metrics-out "$pbm_dir/metrics.json")
  ./build/tools/trace_validate "$pbm_dir/trace.json" \
    --require-span solve,pbm_round,pbm_block_solve,pbm_sync
  ./build/tools/trace_validate --metrics "$pbm_dir/metrics.json"
  # The committed artifact must be gate-clean against itself and the gate
  # must still be loud on a perturbed copy (sv_agreement is higher-better).
  ./build/tools/bench_diff BENCH_pbm.json BENCH_pbm.json
  sed 's/"sv_agreement": [0-9.]*/"sv_agreement": 0.1/' BENCH_pbm.json \
    > "$pbm_dir/BENCH_regressed.json"
  if ./build/tools/bench_diff BENCH_pbm.json \
      "$pbm_dir/BENCH_regressed.json" > /dev/null; then
    echo "bench_diff failed to flag an injected regression in BENCH_pbm.json" >&2
    exit 1
  fi
fi

echo "ALL CHECKS PASSED"
