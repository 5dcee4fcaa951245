#!/usr/bin/env bash
# CLI smoke test: runs every subcommand on small designs and checks exit
# codes, bytes and error labels.  Usage, from the repository root:
#   PYTHONPATH=src bash -eo pipefail tests/cli_smoke.sh TMPDIR
# TMPDIR must exist; the script writes its design files there.
cli() { python -m frcage.cli "$@"; }
expect() { want=$1; shift; got=0; "$@" > /dev/null || got=$?; test "$got" -eq "$want" || { echo "exit $got, expected $want: $*"; exit 1; }; }
d=${1:?usage: cli_smoke.sh TMPDIR}
expect 0 cli construct --q 2 --n 3 -o "$d/d.json"
expect 0 cli verify -i "$d/d.json"
expect 0 cli repair -i "$d/d.json" --node 1
expect 2 cli repair -i "$d/d.json" --node 31 2> "$d/err"
grep -q '^NodeOutOfRange:' "$d/err"
expect 0 cli fill -i "$d/d.json" --chunks 100 -o "$d/f.json"
expect 0 cli verify -i "$d/f.json"
expect 0 cli expand -i "$d/d.json" -o "$d/e.json"
# growing (2,3) gives the same bytes as building (2,4)
expect 0 cli construct --q 2 --n 4 -o "$d/c4.json"
cmp "$d/e.json" "$d/c4.json"
# and growing (3,3) gives (3,4): q > 2 groups over several iterations
expect 0 cli construct --q 3 --n 3 -o "$d/q3n3.json"
expect 0 cli expand -i "$d/q3n3.json" -o "$d/q3e.json"
expect 0 cli construct --q 3 --n 4 -o "$d/q3n4.json"
cmp "$d/q3e.json" "$d/q3n4.json"
# the same through q + 1 = 14 group columns, as the wide workload's expand runs
expect 0 cli construct --q 13 --n 1 -o "$d/q13n1.json"
expect 0 cli expand -i "$d/q13n1.json" -o "$d/q13e.json"
expect 0 cli construct --q 13 --n 2 -o "$d/q13n2.json"
cmp "$d/q13e.json" "$d/q13n2.json"
# extension fields of odd characteristic, where e_s - e_i differs from e_s + e_i
expect 0 cli construct --q 27 --n 1 -o "$d/q27n1.json"
expect 0 cli verify -i "$d/q27n1.json"
expect 0 cli construct --q 25 --n 1 -o "$d/q25n1.json"
expect 0 cli verify -i "$d/q25n1.json"
expect 0 cli export -i "$d/e.json" --format dot
expect 0 cli export -i "$d/e.json" --format csv
# a partially filled table has no complete graph to draw
expect 2 cli export -i "$d/f.json" --format dot
expect 2 cli construct --q 6 --n 1
expect 0 cli mols --q 3
expect 2 cli mols --q 6
expect 0 cli bounds --k 3 --l 7
# inputs whose derived counts pass Python's 4,300-digit int-to-str limit
n1500=$(python -c 'print("9" * 1500)')
n2200=$(python -c 'print("9" * 2200)')
expect 2 cli construct --q "$n1500" --n 1
expect 2 cli mols --q "$n1500"
expect 2 cli bounds --k 3 --l "$n2200"
# trade a replica between two rows, keeping both ascending
python - "$d/d.json" "$d/bad.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
a, b = p["nodes"][7], p["nodes"][8]
c, e = next(x for x in a if x not in b), next(x for x in b if x not in a)
a[a.index(c)], b[b.index(e)] = e, c
a.sort()
b.sort()
json.dump(p, open(sys.argv[2], "w"))
PY
expect 1 cli verify -i "$d/bad.json"
# well-formed but not the canonical table: expand refuses it as foreign
expect 2 cli expand -i "$d/bad.json" 2> "$d/err"
grep -q '^NotCanonical:' "$d/err"
# true equals chunk 1 in Python, but it is not a chunk id
python - "$d/d.json" "$d/true.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
p["nodes"][0][1] = True
json.dump(p, open(sys.argv[2], "w"))
PY
expect 2 cli expand -i "$d/true.json" 2> "$d/err"
grep -q '^InvalidDesign:' "$d/err"
# a row out of order: expand over the cap is refused on the cap,
# before any row is checked; with no cap, it is refused on the row
python - "$d/d.json" "$d/unsorted.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
row = p["nodes"][3]
row[0], row[1] = row[1], row[0]
json.dump(p, open(sys.argv[2], "w"))
PY
expect 2 cli expand -i "$d/unsorted.json" --max-edges 1000 2> "$d/err"
grep -q '^ResourceLimit:' "$d/err"
expect 2 cli expand -i "$d/unsorted.json" 2> "$d/err"
grep -q '^InvalidDesign:' "$d/err"
# verify refuses it on load too, naming the node
expect 2 cli verify -i "$d/unsorted.json" 2> "$d/err"
grep -q '^InvalidDesign: node' "$d/err"
# check_steiner_exact's memory follows the largest id, not num_elements
(ulimit -v 2000000; python -c 'from frcage import BlockCollection, check_steiner_exact; assert check_steiner_exact(BlockCollection(10**9, ((0, 1),))) == (False, (0, 2, 0))')
# one slot past Python's 4,300-digit int limit is refused on load
python - "$d/d.json" "$d/huge.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
p["nodes"][0][0] = 123456789
open(sys.argv[2], "w").write(json.dumps(p).replace("123456789", "9" * 5000))
PY
expect 2 cli verify -i "$d/huge.json"
# a byte that is not UTF-8, and nesting deeper than json.loads recurses, are named errors
python - "$d/d.json" "$d/not_utf8.json" "$d/deep.json" <<'PY'
import sys
data = open(sys.argv[1], "rb").read()
open(sys.argv[2], "wb").write(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
open(sys.argv[3], "wb").write(b"[" * 1000 + b"]" * 1000)
PY
expect 2 cli verify -i "$d/not_utf8.json" 2> "$d/err"
grep -q '^InvalidDesign:' "$d/err"
expect 2 cli verify -i "$d/deep.json" 2> "$d/err"
grep -q '^InvalidDesign:' "$d/err"
