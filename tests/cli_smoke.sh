#!/usr/bin/env bash
# CLI smoke test: runs every subcommand on small designs and checks exit
# codes, bytes and error labels.  Usage, from the repository root:
#   PYTHONPATH=src bash -eo pipefail tests/cli_smoke.sh TMPDIR
# TMPDIR must exist; the script writes its design files there.
cli() { python -m frcage.cli "$@"; }
# expect CODE CMD...: fail unless CMD exits with CODE.  CMD's stdout is dropped; its stderr is
# kept, passed on to wherever the caller sent expect's, and fails the script if it holds a
# Traceback.  Called with fd 2 closed (2>&-), expect runs CMD with fd 2 closed too.
expect() {
  want=$1; shift; got=0
  if : >&2; then
    "$@" > /dev/null 2> "$d/expect.err" || got=$?
    cat "$d/expect.err" >&2
    if grep -q Traceback "$d/expect.err"; then echo "Traceback from: $*"; exit 1; fi
  else
    "$@" > /dev/null || got=$?
  fi
  test "$got" -eq "$want" || { echo "exit $got, expected $want: $*"; exit 1; }
}
d=${1:?usage: cli_smoke.sh TMPDIR}
expect 0 cli construct --q 2 --n 3 -o "$d/d.json"
expect 0 cli verify -i "$d/d.json"
# the process ends with os._exit, so only what main flushed reaches stdout:
# with stdout block-buffered, as without PYTHONUNBUFFERED, every byte still arrives
env -u PYTHONUNBUFFERED python -m frcage.cli construct --q 2 --n 3 | cmp - "$d/d.json"
# and a stdout with no reader is a named error, exit 2, with nothing from teardown
got=0
env -u PYTHONUNBUFFERED python -m frcage.cli verify -i "$d/d.json" 2> "$d/err" | (exec 0<&-) || got=$?
test "$got" -eq 2
grep -q '^IOError: \[Errno 32\] Broken pipe' "$d/err"
if grep -q 'Exception ignored' "$d/err"; then exit 1; fi
# started with fd 1 closed, Python has no sys.stdout: a named error and exit 2, no traceback
got=0
cli bounds --k 3 --l 7 >&- 2> "$d/err" || got=$?
test "$got" -eq 2
grep -q '^IOError:' "$d/err"
if grep -q Traceback "$d/err"; then exit 1; fi
# with fd 2 closed a refusal has no report, but still exits 2
python - "$d/d.json" "$d/repeat.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
p["nodes"][1][1] = p["nodes"][1][0]
json.dump(p, open(sys.argv[2], "w"))
PY
expect 2 cli repair -i "$d/repeat.json" --node 1 2>&-
expect 0 cli repair -i "$d/d.json" --node 1 2>&-
# an endless input is refused at its byte budget, within a ulimit it would pass unbounded
for cmd in verify expand; do
  (ulimit -v 1000000; expect 2 cli "$cmd" -i /dev/zero 2> "$d/err")
  grep -q '^ResourceLimit:' "$d/err"
done
expect 0 cli repair -i "$d/d.json" --node 1
expect 2 cli repair -i "$d/d.json" --node 31 2> "$d/err"
grep -q '^NodeOutOfRange:' "$d/err"
expect 0 cli fill -i "$d/d.json" --chunks 100 -o "$d/f.json"
expect 0 cli verify -i "$d/f.json"
# both ends of fill's window: at u = 155 every slot stays, so the bytes
# are the input's; at u_prev + 1 = 36 each row keeps its ids below 36
expect 0 cli fill -i "$d/d.json" --chunks 155 -o "$d/f155.json"
cmp "$d/d.json" "$d/f155.json"
expect 0 cli fill -i "$d/d.json" --chunks 36 -o "$d/f36.json"
expect 0 cli verify -i "$d/f36.json"
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
# k = 14 complete tables are joined from one string per id, a filled one by json.dumps:
# each file must be the stdlib's compact, key-sorted text of itself
expect 0 cli fill -i "$d/q13n2.json" --chunks 200 -o "$d/q13f.json"
python - "$d/q13n2.json" "$d/q13e.json" "$d/q13f.json" <<'PY'
import json, sys
for path in sys.argv[1:]:
    text = open(path).read()
    if text != json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n":
        raise SystemExit(f"{path} is not canonical JSON")
PY
# v = 2,380 nodes: verify's cover walks shift here (over 2,048 elements)
# and read a bit table on (2,3) above; under -e any exit but 0 fails
cli verify -i "$d/q13n2.json" > "$d/q13v"
grep -q '"all_ok": true' "$d/q13v"
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
# a cap below 1 would refuse every build yet square to a pair budget, so it is refused where it is read
expect 2 cli construct --q 2 --n 1 --max-edges 0 2> "$d/err"
grep -q '^InvalidParameter:' "$d/err"
FRC_MAX_EDGES=-1 expect 2 cli verify -i "$d/d.json" 2> "$d/err"
grep -q '^InvalidParameter: FRC_MAX_EDGES' "$d/err"
# a bound that is not an integer prints as a fraction, next to its ceiling
cli bounds --k 3 --l 5 > "$d/bounds"
grep -q '"u_min": "55/3"' "$d/bounds"
grep -q '"u_min_ceil": 19' "$d/bounds"
# every command is a fresh process: start-up loads neither dataclasses nor fractions
python -c 'import sys; base = set(sys.modules); import frcage.cli; sys.exit(", ".join({"dataclasses", "fractions"} & (set(sys.modules) - base)) or None)'
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
# one replica moved to a chunk the row lacks: fill and repair load without the location
# index and count replicas on their own, and refuse the file as verify does
python - "$d/d.json" "$d/count.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
a, b = p["nodes"][7], p["nodes"][8]
a[0] = next(x for x in b if x not in a)
a.sort()
json.dump(p, open(sys.argv[2], "w"))
PY
for argv in "repair --node 1" "fill --chunks 100" "verify"; do
  expect 2 cli $argv -i "$d/count.json" 2> "$d/err"
  grep -q '^InvalidDesign: chunk 7 has 2 replicas' "$d/err"
done
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
# check_steiner_exact's pair masks follow num_elements, so 10**9 elements are
# refused on the edge cap before any mask is built, sparse blocks or not
(ulimit -v 2000000; python -c '
from frcage import BlockCollection, ResourceLimit, check_steiner_exact
for blocks in ((0, 1),), ((0, 10**9 - 1),):
    try:
        check_steiner_exact(BlockCollection(10**9, blocks))
    except ResourceLimit:
        continue
    raise SystemExit(f"no ResourceLimit for {blocks}")')
# a huge id is refused, not built into a bitmask, on both sides of the walk's
# 2,048-element bit-table cutoff (the table refuses it at 2,048, a scan at 2,049)
(ulimit -v 2000000; python -c '
from frcage import BlockCollection, InvalidDesign, check_steiner_exact
for v in (2048, 2049):
    try:
        check_steiner_exact(BlockCollection(v, ((0, 2**40),)))
    except InvalidDesign:
        continue
    raise SystemExit(f"no InvalidDesign at {v}")')
# verify's pair masks take about v**2/16 bytes, and only the rows bound a
# hand-built v: 160,000 one-slot nodes (k = l = 1), complete and with every
# other slot null, are refused on the edge cap before any mask is built
for blanks in 0 1; do
  python -c '
import json, sys
v, blanks = 160000, int(sys.argv[2])
header = json.load(open(sys.argv[1]))["header"]
header.update(construction="hand-built", k=1, l=1, num_nodes=v, num_chunks=v)
nodes = [[None if blanks and g % 2 else g] for g in range(v)]
json.dump({"header": header, "nodes": nodes}, open(sys.argv[3], "w"))' "$d/d.json" "$blanks" "$d/diag.json"
  (ulimit -v 2000000; expect 2 cli verify -i "$d/diag.json" 2> "$d/err")
  grep -q '^ResourceLimit:' "$d/err"
done
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
# a write into a missing directory names the path as given, not a temporary file
expect 2 cli construct --q 2 --n 2 -o "$d/no/such/dir/x.json" 2> "$d/err"
grep -qF "'$d/no/such/dir/x.json'" "$d/err"
if grep -qF .tmp "$d/err"; then exit 1; fi
