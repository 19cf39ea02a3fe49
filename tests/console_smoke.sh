#!/usr/bin/env bash
# Smoke test of the installed `qswitch` console script. It checks only what the wrapper adds to
# qswitch.cli.main: each verb runs through a real stdout and stderr, and main's exit code (0, 1
# or 2) reaches the shell. A check of a verb's output or refusal belongs in Tier-1 (or the golden
# manifest), not here. Run from anywhere with `qswitch` on PATH: bash tests/console_smoke.sh
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

qswitch --help > /dev/null
echo '{"protocol": "w", "n": 5, "pairs": [{"u": "pauli_z", "u_tilde": "ry(1.5707963267948966)"}]}' > "$tmp/w5.json"
# the state writer through a real TextIOWrapper: stdout is its own json.dumps text
qswitch run --spec "$tmp/w5.json" \
  | python3 -c 'import json, sys; t = sys.stdin.read(); sys.exit(t != json.dumps(json.loads(t), indent=2, sort_keys=True) + "\n" and "run: stdout is not its own json.dumps text")'
qswitch verify --spec "$tmp/w5.json" > /dev/null
# the summary line's rows are the rows read back from the file
qswitch sweep --protocol w3 --lambda-steps 3 --alpha-steps 3 --format csv --out "$tmp/w3.csv" \
  | python3 -c 'import csv, json, sys; s = json.load(sys.stdin); k = len(list(csv.DictReader(open(s["path"], newline="")))); sys.exit(not s["rows"] == k > 0 and "sweep: %s rows in the summary, %d read back" % (s["rows"], k))'
# a refusal exits 1 with its pointer on stderr and nothing on stdout; an unreadable file exits 2
echo '{"entanglers": [{"id": "e1", "clients": 2}, {"id": "e2", "clients": 2}], "alpha": 1.5}' > "$tmp/alpha.json"
rc=0; qswitch netsim --topology "$tmp/alpha.json" > "$tmp/out" 2> "$tmp/err" || rc=$?
if [ "$rc" != 1 ] || ! grep -qF "(at '/alpha')" "$tmp/err" || [ -s "$tmp/out" ]; then
  echo "netsim on alpha 1.5 exited $rc; it must exit 1 with the pointer on stderr and no stdout"; exit 1
fi
rc=0; qswitch run --spec "$tmp/missing.json" 2> /dev/null || rc=$?
if [ "$rc" != 2 ]; then echo "run on a missing file exited $rc, not 2"; exit 1; fi
echo "console smoke: ok"
