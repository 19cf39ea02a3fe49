#!/usr/bin/env bash
# Smoke test of the installed `qswitch` console script: it runs each verb through a real
# stdout and passes main's exit code to the shell. Tier-1 checks each verb's output and exit
# codes in process. Run from anywhere with `qswitch` on PATH: bash tests/console_smoke.sh
set -eo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

qswitch --help
echo '{"protocol": "bell", "n": 2, "pairs": [{"u": "pauli_z", "u_tilde": "ry(1.5707963267948966)"}]}' > "$tmp/bell.json"
qswitch run --spec "$tmp/bell.json"
qswitch verify --spec "$tmp/bell.json"
# on 3 qubits verify also classifies each reachable outcome of the readout
echo '{"protocol": "ghz", "n": 3, "pairs": [{"u": "pauli_z", "u_tilde": "ry(1.5707963267948966)"}]}' > "$tmp/ghz3.json"
qswitch verify --spec "$tmp/ghz3.json" \
  | python3 -c 'import json, sys; c = json.load(sys.stdin)["outcome_classes"]; print(c); sys.exit(c != {"+": "ghz-class", "-": "ghz-class"})'
# sweep writes its file through the entry point; the summary's rows are the rows read back
qswitch sweep --protocol w3 --lambda-steps 3 --alpha-steps 3 --format csv --out "$tmp/w3.csv" \
  | python3 -c 'import csv, json, sys; s = json.load(sys.stdin); k = len(list(csv.DictReader(open(s["path"], newline="")))); print(s["rows"], "rows,", k, "read back"); sys.exit(not s["rows"] == k == 36)'
qswitch sweep --protocol ghz4 --lambda-steps 3 --alpha-steps 3 --format json --out "$tmp/ghz4.json" \
  | python3 -c 'import json, sys; s = json.load(sys.stdin); k = len(json.load(open(s["path"]))); print(s["rows"], "rows,", k, "read back"); sys.exit(not s["rows"] == k == 18)'
# the default 33x33 sweep files: each equals its own re-serialisation
qswitch sweep --protocol ghz4 --format json --out "$tmp/ghz4-33.json"
python3 -c 'import json, sys; t = open(sys.argv[1]).read(); print(sys.argv[1], len(t), "bytes"); sys.exit(t != json.dumps(json.loads(t), indent=2) + "\n")' "$tmp/ghz4-33.json"
qswitch sweep --protocol w3 --format csv --out "$tmp/w3-33.csv"
python3 -c 'import csv, io, sys; t = open(sys.argv[1], newline="").read(); s = io.StringIO(); csv.writer(s).writerows(csv.reader(io.StringIO(t, newline=""))); print(sys.argv[1], len(t), "bytes"); sys.exit(t != s.getvalue())' "$tmp/w3-33.csv"
# the state documents through a real stdout: each output is its own json.dumps text
echo '{"protocol": "w", "n": 5, "pairs": [{"u": "pauli_z", "u_tilde": "ry(1.5707963267948966)"}]}' > "$tmp/w5.json"
echo '{"entanglers": [{"id": "e1", "clients": 2}, {"id": "e2", "clients": 2}], "alpha": 0.5}' > "$tmp/topo.json"
for argv in "run --spec $tmp/w5.json" "netsim --topology $tmp/topo.json --report branches" \
            "netsim --topology $tmp/topo.json --report summary"; do
  qswitch $argv \
    | python3 -c 'import json, sys; t = sys.stdin.read(); print(sys.argv[1:], len(t), "bytes"); sys.exit(t != json.dumps(json.loads(t), indent=2, sort_keys=True) + "\n")' $argv
done
# only here does main's return code pass through the installed wrapper: 2 for I/O
rc=0
qswitch run --spec "$tmp/missing.json" || rc=$?
if [ "$rc" != 2 ]; then echo "run on a missing file exited $rc, not 2"; exit 1; fi
# verify reads any width up to the document cap; run's refusal comes from the engine
echo '{"protocol": "ghz", "n": 4096, "pairs": [{"u": "pauli_z", "u_tilde": "ry(1.5707963267948966)"}]}' > "$tmp/ghz4096.json"
qswitch verify --spec "$tmp/ghz4096.json" \
  | python3 -c 'import json, sys; k = len(json.load(sys.stdin)["per_qubit_overlap"]); print(k, "overlaps"); sys.exit(k != 4096)'
rc=0
qswitch run --spec "$tmp/ghz4096.json" || rc=$?
if [ "$rc" != 1 ]; then echo "run on a 4096-qubit spec exited $rc, not 1"; exit 1; fi
# a topology takes no reserved keys: link_loss, even all zeros, is an unknown key
echo '{"entanglers": [{"id": "e1", "clients": 2}, {"id": "e2", "clients": 2}], "link_loss": {"e1": 0, "e2": 0}}' > "$tmp/loss.json"
rc=0
qswitch netsim --topology "$tmp/loss.json" > "$tmp/loss.out" 2> "$tmp/loss.err" || rc=$?
cat "$tmp/loss.err"
if [ "$rc" != 1 ] || ! grep -qF "(at '/link_loss')" "$tmp/loss.err" || [ -s "$tmp/loss.out" ]; then
  echo "netsim on a topology with link_loss exited $rc; it must exit 1 with the pointer and no stdout"; exit 1
fi
# alpha outside [0, 1] is refused where the input family is built, with the topology's pointer
echo '{"entanglers": [{"id": "e1", "clients": 2}, {"id": "e2", "clients": 2}], "alpha": 1.5}' > "$tmp/alpha.json"
rc=0
qswitch netsim --topology "$tmp/alpha.json" > "$tmp/alpha.out" 2> "$tmp/alpha.err" || rc=$?
cat "$tmp/alpha.err"
if [ "$rc" != 1 ] || ! grep -qF "(at '/alpha')" "$tmp/alpha.err" || [ -s "$tmp/alpha.out" ]; then
  echo "netsim on a topology with alpha 1.5 exited $rc; it must exit 1 with the pointer and no stdout"; exit 1
fi
# a name repeated in one object is refused, not read as its last value
echo '{"protocol": "bell", "protocol": "ghz", "n": 2, "pairs": [{"u": "pauli_z", "u_tilde": "pauli_x"}]}' > "$tmp/dup.json"
rc=0
qswitch run --spec "$tmp/dup.json" > "$tmp/dup.out" 2> "$tmp/dup.err" || rc=$?
cat "$tmp/dup.err"
if [ "$rc" != 1 ] || ! grep -qF "duplicate key 'protocol'" "$tmp/dup.err" || [ -s "$tmp/dup.out" ]; then
  echo "run on a spec naming protocol twice exited $rc; it must exit 1 with the key and no stdout"; exit 1
fi
echo "console smoke: ok"
