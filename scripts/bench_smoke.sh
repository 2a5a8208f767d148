#!/bin/sh
# Quick-turnaround benchmark smoke run.
#
# Runs the `bench_flownet` churn, `bench_paths` selection, and `bench_obs`
# overhead groups
# with a reduced sample count, scrapes the machine-readable CRITERION_JSON
# lines into BENCH_flownet.json / BENCH_paths.json, and checks the two
# headline targets:
#   - incremental flow allocator >= 5x over the full-recompute reference at
#     1024 concurrent flows;
#   - cached Algorithm 1 selection >= 10x over the seed DFS selector on the
#     contended DGX-V100 case.
#   - disabled-path observability overhead <= 3% on 1k-flow churn
#     (BENCH_obs.json).
#   - end-to-end macro throughput on the contended DGX-V100 testbed
#     (BENCH_e2e.json): minimum ops/sec and simulated-seconds-per-wall-
#     second floors.
#
#   - cluster-scale sharded-vs-monolithic sweep (BENCH_sweep.json): the
#     sharded engine at >= 4 shards must hold the committed
#     sim-sec/wall-sec speedup floor over the single-shard core.
#
#   - disaggregated LLM serving, GROUTER vs Mooncake+ (BENCH_llm.json):
#     p99-TTFT and mean-TBT ratio floors, GROUTER migrations > 0.
#
# Usage: scripts/bench_smoke.sh [flownet.json] [paths.json] [obs.json] [e2e.json] [sweep.json] [llm.json]

set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_flownet.json}"
paths_out="${2:-BENCH_paths.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# `-p grouter-bench` keeps grouter-audit (a workspace member whose
# dev-dependencies switch the data-plane `audit` feature on) out of the
# feature graph: the benches must measure the unaudited hot paths.
cargo bench -p grouter-bench --bench flownet -- --sample-size 10 2>&1 | tee "$raw"

grep '^CRITERION_JSON ' "$raw" | sed 's/^CRITERION_JSON //' | awk '
    BEGIN { print "{"; print "  \"group\": \"bench_flownet\","; print "  \"results\": [" }
    { lines[NR] = $0 }
    END {
        for (i = 1; i <= NR; i++)
            printf "    %s%s\n", lines[i], (i < NR ? "," : "")
        print "  ],"
    }
' > "$out.tmp"

# Append the headline speedup (reference median / incremental median at
# each population size) so the acceptance check is self-contained.
grep '^CRITERION_JSON ' "$raw" | sed 's/^CRITERION_JSON //' | awk '
    {
        name = $0; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        med = $0; sub(/.*"median_ns":/, "", med); sub(/,.*/, "", med)
        if (name ~ /^flownet_churn\//) { sub(/^flownet_churn\//, "", name); inc[name] = med }
        else if (name ~ /^flownet_ref_churn\//) { sub(/^flownet_ref_churn\//, "", name); ref[name] = med }
    }
    END {
        printf "  \"speedup\": {"
        first = 1
        for (k in inc) if (k in ref) {
            printf "%s\"%s\": %.2f", (first ? "" : ", "), k, ref[k] / inc[k]
            first = 0
        }
        print "}"
        print "}"
    }
' >> "$out.tmp"
mv "$out.tmp" "$out"

echo "wrote $out"

# Acceptance gate: >= 5x on the 1024-flow churn workload.
speedup=$(sed -n 's/.*"1024": \([0-9.]*\).*/\1/p' "$out")
if [ -z "$speedup" ]; then
    echo "ERROR: no 1024-flow speedup in $out" >&2
    exit 1
fi
ok=$(awk -v s="$speedup" 'BEGIN { print (s >= 5.0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: 1024-flow churn speedup ${speedup}x is below the 5x target" >&2
    exit 1
fi
echo "1024-flow churn speedup: ${speedup}x (target: >= 5x)"

# ---------------------------------------------------------------------------
# bench_paths: cached vs uncached Algorithm 1 selection.

cargo bench -p grouter-bench --bench paths -- --sample-size 10 2>&1 | tee "$raw"

grep '^CRITERION_JSON ' "$raw" | sed 's/^CRITERION_JSON //' | awk '
    BEGIN { print "{"; print "  \"group\": \"bench_paths\","; print "  \"results\": [" }
    { lines[NR] = $0 }
    END {
        for (i = 1; i <= NR; i++)
            printf "    %s%s\n", lines[i], (i < NR ? "," : "")
        print "  ],"
    }
' > "$paths_out.tmp"

# Per-case speedup: seed DFS selector median / cached selector median.
grep '^CRITERION_JSON ' "$raw" | sed 's/^CRITERION_JSON //' | awk '
    {
        name = $0; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        med = $0; sub(/.*"median_ns":/, "", med); sub(/,.*/, "", med)
        if (name ~ /^paths_cached\//) { sub(/^paths_cached\//, "", name); cached[name] = med }
        else if (name ~ /^paths_uncached\//) { sub(/^paths_uncached\//, "", name); unc[name] = med }
    }
    END {
        printf "  \"speedup\": {"
        first = 1
        for (k in cached) if (k in unc) {
            printf "%s\"%s\": %.2f", (first ? "" : ", "), k, unc[k] / cached[k]
            first = 0
        }
        print "}"
        print "}"
    }
' >> "$paths_out.tmp"
mv "$paths_out.tmp" "$paths_out"

echo "wrote $paths_out"

# Acceptance gate: >= 10x cached-vs-uncached selection on the contended
# DGX-V100 case.
pspeed=$(sed -n 's/.*"v100_contended": \([0-9.]*\).*/\1/p' "$paths_out")
if [ -z "$pspeed" ]; then
    echo "ERROR: no v100_contended speedup in $paths_out" >&2
    exit 1
fi
ok=$(awk -v s="$pspeed" 'BEGIN { print (s >= 10.0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: contended V100 selection speedup ${pspeed}x is below the 10x target" >&2
    exit 1
fi
echo "contended V100 selection speedup: ${pspeed}x (target: >= 10x)"

# ---------------------------------------------------------------------------
# bench_obs: observability overhead on 1k-flow churn.

obs_out="${3:-BENCH_obs.json}"

cargo bench -p grouter-bench --bench obs -- --sample-size 10 2>&1 | tee "$raw"

grep '^CRITERION_JSON ' "$raw" | sed 's/^CRITERION_JSON //' | awk '
    BEGIN { print "{"; print "  \"group\": \"bench_obs\","; print "  \"results\": [" }
    { lines[NR] = $0 }
    END {
        for (i = 1; i <= NR; i++)
            printf "    %s%s\n", lines[i], (i < NR ? "," : "")
        print "  ],"
    }
' > "$obs_out.tmp"

# Overhead ratios. The gated "disabled" number is the paired
# measurement the bench prints on its OBS_OVERHEAD_JSON line (median of
# alternating-round time ratios) — comparing the Criterion groups, which
# run tens of seconds apart, picks up CPU frequency drift larger than
# the 3% bound. "enabled" stays a cross-group min_ns ratio and is
# informational only.
paired=$(sed -n 's/^OBS_OVERHEAD_JSON .*"disabled_vs_untraced":\([0-9.]*\).*/\1/p' "$raw")
if [ -z "$paired" ]; then
    echo "ERROR: no OBS_OVERHEAD_JSON line in bench output" >&2
    exit 1
fi
grep '^CRITERION_JSON ' "$raw" | sed 's/^CRITERION_JSON //' | awk -v paired="$paired" '
    {
        name = $0; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        min = $0; sub(/.*"min_ns":/, "", min); sub(/,.*/, "", min)
        if (name ~ /^obs_untraced\//) base = min
        else if (name ~ /^obs_enabled\//) en = min
    }
    END {
        printf "  \"overhead\": {\"disabled\": %s, \"enabled\": %.4f}\n", paired, en / base
        print "}"
    }
' >> "$obs_out.tmp"
mv "$obs_out.tmp" "$obs_out"

echo "wrote $obs_out"

# Acceptance gate: disabled-path tracing costs <= 3% on the churn loop.
ratio=$(sed -n 's/.*"disabled": \([0-9.]*\).*/\1/p' "$obs_out")
if [ -z "$ratio" ]; then
    echo "ERROR: no disabled-path overhead ratio in $obs_out" >&2
    exit 1
fi
ok=$(awk -v r="$ratio" 'BEGIN { print (r <= 1.03) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: disabled-path tracing overhead ${ratio}x exceeds the 1.03x bound" >&2
    exit 1
fi
echo "disabled-path tracing overhead: ${ratio}x (bound: <= 1.03x)"

# ---------------------------------------------------------------------------
# bench_e2e: whole-trace macro throughput on both testbeds.

e2e_out="${4:-BENCH_e2e.json}"

# Gate floors on the contended DGX-V100 testbed, set 25-30% below the
# numbers measured on the reference dev machine (recorded under "measured"
# in BENCH_e2e.json): regression protection, not aspiration. The ISSUE 6
# target of >= 3x ops/sec over the boxed-closure seed baseline was NOT
# reached: the event-core rework plus the allocation/bookkeeping work
# delivers ~1.7x end to end (552k vs 325.5k ops/sec), because the remaining
# cycles are genuine simulation arithmetic (water-filling rate allocation,
# percentile tracking, the stage state machine), not dispatch overhead.
# The honest measured ratio is committed as "speedup_vs_seed_baseline".
e2e_ops_floor=400000
e2e_simwall_floor=1300

# a100_steady floors (ISSUE 7 satellite): the lighter single-box trace
# measured 661k ops/sec and 5345 sim-sec/wall-sec on the reference dev
# machine; floors sit 25-30% under that, same policy as the contended bed.
a100_ops_floor=480000
a100_simwall_floor=3900

cargo bench -p grouter-bench --bench e2e -- --sample-size 10 2>&1 | tee "$raw"

awk '
    /^E2E_JSON / {
        line = $0; sub(/^E2E_JSON /, "", line); work[++nw] = line
        name = line; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        ops = line; sub(/.*"ops":/, "", ops); sub(/,.*/, "", ops)
        sim = line; sub(/.*"sim_ns":/, "", sim); sub(/[^0-9].*/, "", sim)
        opsOf[name] = ops; simOf[name] = sim
    }
    /^CRITERION_JSON / {
        line = $0; sub(/^CRITERION_JSON /, "", line); res[++nr] = line
        name = line; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        med = line; sub(/.*"median_ns":/, "", med); sub(/,.*/, "", med)
        if (name ~ /^e2e\//) { sub(/^e2e\//, "", name); typed[name] = med }
    }
    END {
        print "{"
        print "  \"group\": \"bench_e2e\","
        print "  \"results\": ["
        for (i = 1; i <= nr; i++) printf "    %s%s\n", res[i], (i < nr ? "," : "")
        print "  ],"
        print "  \"work\": ["
        for (i = 1; i <= nw; i++) printf "    %s%s\n", work[i], (i < nw ? "," : "")
        print "  ],"
        # Frozen seed reference: the boxed-closure event core with the pre-
        # refactor bookkeeping (String clones, BTree tables) ran this exact
        # contended trace at 325513 ops/sec on the reference dev machine.
        print "  \"seed_baseline_ops_per_sec\": {\"v100_contended\": 325513},"
        print "  \"measured\": {"
        n = 0
        for (k in typed) n++
        i = 0
        for (k in typed) {
            i++
            ops_s = opsOf[k] * 1e9 / typed[k]
            simwall = simOf[k] / typed[k]
            printf "    \"%s\": {\"ops_per_sec\": %.0f, \"sim_sec_per_wall_sec\": %.1f}%s\n", k, ops_s, simwall, (i < n ? "," : "")
        }
        print "  },"
        printf "  \"speedup_vs_seed_baseline\": {\"v100_contended\": %.2f}\n", (opsOf["v100_contended"] * 1e9 / typed["v100_contended"]) / 325513
        print "}"
    }
' "$raw" > "$e2e_out.tmp"
mv "$e2e_out.tmp" "$e2e_out"

echo "wrote $e2e_out"

# Acceptance gates: ops/sec and simulated-seconds-per-wall-second floors on
# the contended testbed.
e2e_ops=$(sed -n 's/.*"v100_contended": {"ops_per_sec": \([0-9]*\),.*/\1/p' "$e2e_out")
e2e_simwall=$(sed -n 's/.*"v100_contended": {"ops_per_sec": [0-9]*, "sim_sec_per_wall_sec": \([0-9.]*\).*/\1/p' "$e2e_out")
if [ -z "$e2e_ops" ] || [ -z "$e2e_simwall" ]; then
    echo "ERROR: no v100_contended measurements in $e2e_out" >&2
    exit 1
fi
ok=$(awk -v s="$e2e_ops" -v f="$e2e_ops_floor" 'BEGIN { print (s + 0 >= f + 0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: contended e2e throughput ${e2e_ops} ops/sec is below the ${e2e_ops_floor} floor" >&2
    exit 1
fi
ok=$(awk -v s="$e2e_simwall" -v f="$e2e_simwall_floor" 'BEGIN { print (s + 0 >= f + 0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: contended e2e sim-sec/wall-sec ${e2e_simwall} is below the ${e2e_simwall_floor} floor" >&2
    exit 1
fi
echo "contended e2e: ${e2e_ops} ops/sec (floor: ${e2e_ops_floor}), ${e2e_simwall} sim-sec/wall-sec (floor: ${e2e_simwall_floor})"

# Same floors policy on the steady single-box testbed.
a100_ops=$(sed -n 's/.*"a100_steady": {"ops_per_sec": \([0-9]*\),.*/\1/p' "$e2e_out")
a100_simwall=$(sed -n 's/.*"a100_steady": {"ops_per_sec": [0-9]*, "sim_sec_per_wall_sec": \([0-9.]*\).*/\1/p' "$e2e_out")
if [ -z "$a100_ops" ] || [ -z "$a100_simwall" ]; then
    echo "ERROR: no a100_steady measurements in $e2e_out" >&2
    exit 1
fi
ok=$(awk -v s="$a100_ops" -v f="$a100_ops_floor" 'BEGIN { print (s + 0 >= f + 0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: steady e2e throughput ${a100_ops} ops/sec is below the ${a100_ops_floor} floor" >&2
    exit 1
fi
ok=$(awk -v s="$a100_simwall" -v f="$a100_simwall_floor" 'BEGIN { print (s + 0 >= f + 0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: steady e2e sim-sec/wall-sec ${a100_simwall} is below the ${a100_simwall_floor} floor" >&2
    exit 1
fi
echo "steady e2e: ${a100_ops} ops/sec (floor: ${a100_ops_floor}), ${a100_simwall} sim-sec/wall-sec (floor: ${a100_simwall_floor})"

# ---------------------------------------------------------------------------
# bench_sweep: cluster-scale monolithic vs sharded (ISSUE 7 tentpole).

sweep_out="${5:-BENCH_sweep.json}"

# Committed speedup floor: sharded at >= 4 shards on ONE worker thread vs
# the monolithic single-shard core, sim-sec/wall-sec ratio on the same
# trace. The ISSUE 7 target of >= 2x at >= 4 shards was NOT reached: the
# full 1M-invocation run measures 1.18x at 64 GPUs (8 shards) and 1.12x
# at 128 GPUs (16 shards). Profiling shows why — the monolithic core has
# no single superlinear term to shard away (a RoundRobin-placement
# control run is *slower* than the cluster-wide MAPA scan, because
# placement quality dominates scan cost), so the sharded win is the
# diffuse architectural one: group-local timelines, placement domains
# and flow networks, and eight small cache-friendly worlds instead of
# one large one. Worker threads add nothing on the single-CPU reference
# machine (w2/w8 rows are strictly slower) and are covered by the
# determinism smoke instead. The honest measured ratios are committed in
# BENCH_sweep.json under "speedup_vs_monolithic"; the floor below is the
# regression gate — sharding must never make the same trace slower —
# set under the measured 1.18x with margin for run-to-run noise on
# shared hardware.
sweep_floor=1.05
# The smoke runs a reduced trace; the committed BENCH_sweep.json numbers
# come from the full 1M-invocation run (cargo bench -p grouter-bench
# --bench sweep with no override).
sweep_n="${GROUTER_SWEEP_INVOCATIONS:-200000}"

GROUTER_SWEEP_INVOCATIONS="$sweep_n" \
    cargo bench -p grouter-bench --bench sweep 2>&1 | tee "$raw"

grep '^SWEEP_JSON ' "$raw" | sed 's/^SWEEP_JSON //' | awk '
    BEGIN { print "{"; print "  \"group\": \"bench_sweep\","; print "  \"results\": [" }
    { lines[NR] = $0 }
    END {
        for (i = 1; i <= NR; i++)
            printf "    %s%s\n", lines[i], (i < NR ? "," : "")
        print "  ],"
    }
' > "$sweep_out.tmp"

# Headline ratios: sharded single-worker sim/wall over the monolithic core
# at the same GPU count.
grep '^SWEEP_JSON ' "$raw" | sed 's/^SWEEP_JSON //' | awk '
    {
        name = $0; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        spw = $0; sub(/.*"sim_per_wall":/, "", spw); sub(/[^0-9.].*/, "", spw)
        v[name] = spw
    }
    END {
        printf "  \"speedup_vs_monolithic\": {"
        first = 1
        for (gpus = 64; gpus <= 128; gpus += 64) {
            mono = v["mono" gpus]; shard = v["uniform" gpus "/w1"]
            if (mono > 0 && shard > 0) {
                printf "%s\"uniform%d/w1\": %.2f", (first ? "" : ", "), gpus, shard / mono
                first = 0
            }
        }
        print "}"
        print "}"
    }
' >> "$sweep_out.tmp"
mv "$sweep_out.tmp" "$sweep_out"

echo "wrote $sweep_out"

# Acceptance gate: the committed floor at >= 4 shards (8 groups, 64 GPUs).
sspeed=$(sed -n 's/.*"uniform64\/w1": \([0-9.]*\).*/\1/p' "$sweep_out")
if [ -z "$sspeed" ]; then
    echo "ERROR: no uniform64/w1 speedup in $sweep_out" >&2
    exit 1
fi
ok=$(awk -v s="$sspeed" -v f="$sweep_floor" 'BEGIN { print (s + 0 >= f + 0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: sharded-vs-monolithic speedup ${sspeed}x is below the ${sweep_floor}x floor" >&2
    exit 1
fi
echo "sharded 64-GPU sweep speedup: ${sspeed}x (floor: >= ${sweep_floor}x)"

# The heterogeneous preset (alternating V100/A100 groups — the only sweep
# row exercising A100 iron) was measured but never gated. The committed
# full run has hetero64/w8 at 12.64 sim-sec/wall-sec vs 11.42 for
# uniform64/w8: mixing in the faster A100 groups is a mild speedup, never
# a cliff. Gate the hetero/uniform ratio at the same worker count — it is
# scale-invariant under the reduced smoke trace — with wide noise margin.
hetero_ratio_floor=0.75
hval=$(grep '^SWEEP_JSON ' "$raw" | grep '"name":"hetero64/w8"' \
    | sed -n 's/.*"sim_per_wall":\([0-9.]*\).*/\1/p')
uval=$(grep '^SWEEP_JSON ' "$raw" | grep '"name":"uniform64/w8"' \
    | sed -n 's/.*"sim_per_wall":\([0-9.]*\).*/\1/p')
if [ -z "$hval" ] || [ -z "$uval" ]; then
    echo "ERROR: missing hetero64/w8 or uniform64/w8 sim_per_wall in sweep output" >&2
    exit 1
fi
ok=$(awk -v h="$hval" -v u="$uval" -v f="$hetero_ratio_floor" \
    'BEGIN { print (u > 0 && h / u >= f) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: hetero64/w8 (${hval}) fell below ${hetero_ratio_floor}x of uniform64/w8 (${uval})" >&2
    exit 1
fi
echo "hetero (A100) 64-GPU sweep: ${hval} sim-sec/wall-sec vs uniform ${uval} (floor: >= ${hetero_ratio_floor}x ratio)"

# ---------------------------------------------------------------------------
# bench_llm: disaggregated LLM serving, GROUTER vs Mooncake+ (ISSUE 10).

llm_out="${6:-BENCH_llm.json}"

# Committed gates at the reference operating point (10k requests, 20 rps,
# 2x8 H800, 4 prefill + 4 decode per group, pressure from decode
# activations): GROUTER must beat Mooncake+ on p99 TTFT and mean TBT, and
# its migration count must be strictly positive — the TTFT/TBT win has to
# come *through* pressure-triggered KV migration, not from an idle pool.
# Measured on the reference dev machine: p99-TTFT ratio ~17.7x (Mooncake+'s
# single cache GPU saturates on handoff relays at this load and queues),
# TBT ratio ~1.25x. Floors sit far below with margin: regression gates,
# not aspiration.
llm_ttft_ratio_floor=1.2
llm_tbt_ratio_floor=1.02
llm_n="${GROUTER_LLM_REQUESTS:-10000}"

GROUTER_LLM_REQUESTS="$llm_n" \
    cargo bench -p grouter-bench --bench llm 2>&1 | tee "$raw"

grep '^LLM_JSON ' "$raw" | sed 's/^LLM_JSON //' | awk '
    BEGIN { print "{"; print "  \"group\": \"bench_llm\","; print "  \"results\": [" }
    { lines[NR] = $0 }
    END {
        for (i = 1; i <= NR; i++)
            printf "    %s%s\n", lines[i], (i < NR ? "," : "")
        print "  ],"
    }
' > "$llm_out.tmp"

# Headline ratios: Mooncake+ over GROUTER on the gated metrics, plus
# GROUTER's migration count.
grep '^LLM_JSON ' "$raw" | sed 's/^LLM_JSON //' | awk '
    {
        name = $0; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        p99 = $0; sub(/.*"ttft_p99_us":/, "", p99); sub(/,.*/, "", p99)
        tbt = $0; sub(/.*"tbt_mean_us":/, "", tbt); sub(/,.*/, "", tbt)
        mig = $0; sub(/.*"migrations":/, "", mig); sub(/,.*/, "", mig)
        ttft[name] = p99; tbtm[name] = tbt; migs[name] = mig
    }
    END {
        printf "  \"ttft_p99_ratio_vs_mooncake\": %.2f,\n", ttft["mooncake"] / ttft["grouter"]
        printf "  \"tbt_mean_ratio_vs_mooncake\": %.2f,\n", tbtm["mooncake"] / tbtm["grouter"]
        printf "  \"grouter_migrations\": %s\n", migs["grouter"]
        print "}"
    }
' >> "$llm_out.tmp"
mv "$llm_out.tmp" "$llm_out"

echo "wrote $llm_out"

# Acceptance gates: the committed ratio floors plus migrations > 0.
lr=$(sed -n 's/.*"ttft_p99_ratio_vs_mooncake": \([0-9.]*\).*/\1/p' "$llm_out")
tr_=$(sed -n 's/.*"tbt_mean_ratio_vs_mooncake": \([0-9.]*\).*/\1/p' "$llm_out")
mig=$(sed -n 's/.*"grouter_migrations": \([0-9]*\).*/\1/p' "$llm_out")
if [ -z "$lr" ] || [ -z "$tr_" ] || [ -z "$mig" ]; then
    echo "ERROR: missing LLM headline numbers in $llm_out" >&2
    exit 1
fi
ok=$(awk -v s="$lr" -v f="$llm_ttft_ratio_floor" 'BEGIN { print (s + 0 >= f + 0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: p99-TTFT ratio ${lr}x vs Mooncake+ is below the ${llm_ttft_ratio_floor}x floor" >&2
    exit 1
fi
ok=$(awk -v s="$tr_" -v f="$llm_tbt_ratio_floor" 'BEGIN { print (s + 0 >= f + 0) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ERROR: mean-TBT ratio ${tr_}x vs Mooncake+ is below the ${llm_tbt_ratio_floor}x floor" >&2
    exit 1
fi
if [ "$mig" -le 0 ]; then
    echo "ERROR: GROUTER reported no KV migrations — the win did not come through pressure" >&2
    exit 1
fi
echo "llm serving: p99-TTFT ${lr}x, mean-TBT ${tr_}x vs Mooncake+ (floors: ${llm_ttft_ratio_floor}x / ${llm_tbt_ratio_floor}x), ${mig} migrations"
