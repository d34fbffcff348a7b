#!/usr/bin/env bash
# Interleaved A/B timing of two builds of the layered benchmark on one host.
#
#   scripts/bench_pair.sh OLD_DIR NEW_DIR WORKLOAD [ROUNDS] [SEED]
#
# OLD_DIR (A) and NEW_DIR (B) each hold a `layerbench` + `tcmp-serve`
# pair built by `layerbench/run.sh` from one checkout (copy both files
# out of that checkout's `.bench_build/release/`). WORKLOAD is one of
# fig6_sweep, mesh16_mp3d, serve_campaigns. Each round runs A and B once
# each, untraced, for 35 s with the given seed (default 12648430); odd
# rounds run A first, even rounds B first, so slow drift of the host
# does not favour one side. ROUNDS defaults to 3.
#
# Every run's end-to-end metrics are printed with the guest steal time
# the benchmark measured during it; the summary gives, per metric, the
# median B/A ratio over the rounds and the min–max of the ratios. A
# metric where higher is better improves when the ratio is above 1.
#
# Runs happen from the repository root so that both builds check their
# outputs against the same stored digests; nothing is written there.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '3,4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
OLD="$(cd "$1" && pwd)"
NEW="$(cd "$2" && pwd)"
WORKLOAD="$3"
ROUNDS="${4:-3}"
SEED="${5:-12648430}"
for dir in "$OLD" "$NEW"; do
    for bin in layerbench tcmp-serve; do
        [ -x "$dir/$bin" ] || { echo "bench_pair: $dir/$bin missing" >&2; exit 2; }
    done
done
cd "$(dirname "$0")/.."

OUT="$(mktemp -d "${TMPDIR:-/tmp}/bench-pair-XXXXXX")"
trap 'rm -rf "$OUT"' EXIT

run_side() { # run_side LABEL DIR ROUND
    local log="$OUT/$3.$1"
    "$2/layerbench" --workload "$WORKLOAD" --seed "$SEED" --seconds 35 --trace 0 \
        >"$log" 2>"$log.err" || true
    python3 - "$1" "$3" "$log" <<'EOF'
import json, sys
side, rnd, path = sys.argv[1:4]
lines = open(path).read().splitlines()
if len(lines) < 2:
    sys.exit(f"bench_pair: round {rnd} side {side}: no result line")
host, res = json.loads(lines[-2]), json.loads(lines[-1])
m = {k: v["value"] for k, v in res["metrics"].items()}
cells = " ".join(f"{k}={v:.6g}" for k, v in m.items())
print(f"round {rnd} {side}: correct={res['correct']} steal_s={host.get('steal_s')} {cells}")
EOF
}

for round in $(seq 1 "$ROUNDS"); do
    if [ $((round % 2)) -eq 1 ]; then
        run_side A "$OLD" "$round"
        run_side B "$NEW" "$round"
    else
        run_side B "$NEW" "$round"
        run_side A "$OLD" "$round"
    fi
done

python3 - "$OUT" "$ROUNDS" <<'EOF'
import json, os, statistics, sys
out, rounds = sys.argv[1], int(sys.argv[2])
def metrics(r, side):
    lines = open(os.path.join(out, f"{r}.{side}")).read().splitlines()
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
ratios = {}
for r in range(1, rounds + 1):
    a, b = metrics(r, "A"), metrics(r, "B")
    for k in a:
        if k in b and a[k] != 0:
            ratios.setdefault(k, []).append(b[k] / a[k])
print(f"B/A over {rounds} rounds: metric median [min, max]")
for k, rs in ratios.items():
    print(f"  {k}: {statistics.median(rs):.3f} [{min(rs):.3f}, {max(rs):.3f}]")
EOF
