#!/usr/bin/env bash
# Engine benchmark smoke: tiny-budget micro-benchmark plus the persisted
# crossover assertions.  REPRO_BENCH_SMOKE shrinks the workload and
# relaxes the 3x assertion: shared CI runners are too noisy for absolute
# speedup bars.  Includes the circuit-priced round (netlist_ota stacked
# MNA/AC solves).
set -euo pipefail

REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_engine.py -q -s

# End-to-end moheco runs on the three circuit problems (max_generations
# capped under REPRO_BENCH_SMOKE): wall-clock, charged sims and sims/s.
REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_e2e.py -q -s

# Re-check the persisted numbers: the circuit-priced round must sit above
# the engine-selection crossover, and wherever the crossover model
# predicts a pool win (multi-core runners — all hosted GitHub runners
# qualify) the shared-memory process backend must not be slower than
# fused serial.
python - <<'EOF'
import json
bench = json.load(open("BENCH_engine.json"))["circuit"]
assert bench["row_cost_over_crossover"] >= 1.0, bench
serial = bench["round"]["serial"]["sims_per_sec"]
shm = bench["round"]["process_shm"]["sims_per_sec"]
if bench["pool_should_win_here"]:
    assert shm >= serial, (
        f"process-shm {shm:,.0f}/s < serial {serial:,.0f}/s "
        f"above the crossover"
    )
print(
    f"crossover ok: {bench['row_cost_over_crossover']:.1f}x above, "
    f"process-shm {shm:,.0f}/s vs serial {serial:,.0f}/s "
    f"(cpus={bench['cpus']})"
)
EOF
