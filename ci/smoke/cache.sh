#!/usr/bin/env bash
# Warm-start cache smoke: a local-search-heavy run populates the spill
# file cold, replays it warm on the serial and on the process engine, and
# the ledger-faithful accounting must charge identical totals every time.
set -euo pipefail

run_cached() {
  repro run --problem quadratic --method moheco --seed 11 \
    --set pop_size=10 --set max_generations=12 --set ls_patience=1 \
    --set ls_max_triggers=4 --set n_max=150 --set sim_ave=20 \
    --set n0=10 --set stop_patience=30 \
    --cache lru --cache-param spill_path=cache-spill.jsonl "$@"
}

# Cold: populates the spill file.
run_cached | tee cold.log
grep -Eq "cache\[lru\]: hits=0 " cold.log

# Warm: replays from the spill file.
run_cached | tee warm.log
grep -Eq "cache\[lru\]: hits=[1-9][0-9]* misses=0 " warm.log

# Warm again, on the process pool: the same round replays the same hits.
run_cached --engine process --engine-param workers=2 | tee warm-process.log
grep -Eq "cache\[lru\]: hits=[1-9][0-9]* misses=0 " warm-process.log

# Ledger-faithful accounting charges identical totals.
cold=$(grep -oE "in [0-9]+ simulations" cold.log)
warm=$(grep -oE "in [0-9]+ simulations" warm.log)
warm_process=$(grep -oE "in [0-9]+ simulations" warm-process.log)
echo "cold: $cold / warm: $warm / warm process: $warm_process"
test "$cold" = "$warm"
test "$cold" = "$warm_process"

# Cache benchmark (tiny budget): REPRO_BENCH_SMOKE shrinks the per-row
# simulation pricing and skips the 1.5x warm-vs-cold bar (shared runners
# are too noisy for wall-clock bars); identity and hit-count assertions
# still run.
REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_cache.py -q -s
