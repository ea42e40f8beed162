#!/usr/bin/env bash
# Smoke test of the apoly command line: every check below must hold.
#
# Usage: scripts/smoke_cli.sh APOLY-COMMAND...
#   scripts/smoke_cli.sh /tmp/bare/bin/apoly
#   PYTHONPATH=src scripts/smoke_cli.sh python3.10 -m apoly.cli
#
# The arguments are the command that runs apoly. python3 on PATH writes the
# large inputs and reads the JSON outputs; it needs nothing beyond the
# standard library and may differ from the interpreter under test.
set -Eeuo pipefail
# a failing check names itself and, inside a function (-E carries the
# trap there), the line that called it
trap 'echo "smoke_cli: check failed at line $LINENO${FUNCNAME:+ (in $FUNCNAME, called at line ${BASH_LINENO[0]})}: $BASH_COMMAND" >&2' ERR

if [ "$#" -eq 0 ]; then
  echo "usage: $0 APOLY-COMMAND..." >&2
  exit 2
fi
apoly=("$@")
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# same_as_json_dumps: $tmp/out is json.dumps(its value, indent=2) and a newline
same_as_json_dumps() {
  python3 - "$tmp/out" <<'EOF'
import json, sys
text = open(sys.argv[1], encoding="utf-8").read()
assert text == json.dumps(json.loads(text), indent=2) + "\n"
EOF
}

# expect CODE ARGS...: run apoly ARGS with stdout in $tmp/out, require exit CODE
expect() {
  local want=$1 code=0
  shift
  "${apoly[@]}" "$@" > "$tmp/out" || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "FAIL: apoly $1 ... exited $code, expected $want" >&2
    head -c 2000 "$tmp/out" >&2
    exit 1
  fi
}

# expect_json CODE ARGS...: expect CODE from apoly ARGS --json, whose stdout
# must be json.dumps(its value, indent=2) byte for byte
expect_json() {
  local want=$1
  shift
  expect "$want" "$@" --json
  same_as_json_dumps
}

# one_error_line PATTERN: $tmp/out is one line, which PATTERN matches, and
# $tmp/err is empty: an error line and no traceback
one_error_line() {
  grep -q "$1" "$tmp/out"
  test "$(wc -l < "$tmp/out")" -eq 1
  test ! -s "$tmp/err"
}

# expect_text ARGS...: expect 0 from apoly ARGS, whose stdout must be the
# text on stdin byte for byte
expect_text() {
  cat > "$tmp/want"
  expect 0 "$@"
  diff "$tmp/want" "$tmp/out" >&2
}

# expect_within SECONDS CODE ARGS...: expect, with apoly stopped after SECONDS
expect_within() {
  local limit=$1 saved=("${apoly[@]}")
  shift
  apoly=(timeout "$limit" "${saved[@]}")
  expect "$@"
  apoly=("${saved[@]}")
}

# usage_error ARGS...: apoly ARGS exits 2 with the usage line and an error
# line on stderr and nothing on stdout
usage_error() {
  expect 2 "$@" 2> "$tmp/err"
  test ! -s "$tmp/out"
  grep -q "^usage: apoly" "$tmp/err"
  grep -q "error: " "$tmp/err"
}

# the command line: help exits 0, a usage error exits 2, an option's value
# may start with "-", and a polynomial may follow a "--"
expect 0 --help
grep -q "^usage: apoly" "$tmp/out"
for command in compute analyze verify-db newton replay; do
  expect 0 "$command" --help
  grep -q "^usage: apoly $command" "$tmp/out"
done
usage_error compute
usage_error compute --torus 2
usage_error frobnicate
usage_error replay "L-1" --nmax x
usage_error analyze
usage_error analyze "L-1" --file "$root/src/apoly/data/fixtures.txt"
expect 0 compute --torus -2 3
expect 0 replay --nmax 1 -- "-(L-1)*(L+1)"

expect 0 compute --two-bridge 5 3
expect 0 compute --two-bridge 7 2

# two-bridge p above the documented bound 25 is an error line, exit 1
expect 1 compute --two-bridge 27 5
grep -q "^error: two-bridge p = 27 is above the largest accepted, 25" "$tmp/out"
expect 0 replay "(L-1)*(L+1)"
expect 0 verify-db "$root/src/apoly/data/fixtures.txt"

# an over-long integer literal is a clean parse error, exit 1
python3 -c "print('7' * 5000 + '*L - 1')" > "$tmp/long.txt"
expect 1 analyze --file "$tmp/long.txt"

# so is a coefficient past 4300 digits after expansion, exit 1
python3 -c "print('(' + '9' * 3000 + '*L - 1)^2')" > "$tmp/product.txt"
expect 1 analyze --file "$tmp/product.txt"

# a parenthesized power whose expansion would pass the parse budget is an
# error at its '^', exit 1, before the multiplication that would pass it
expect_within 5 1 analyze "(L-1)^11000000000000000000000000000007"
grep -q "^error: power too large to expand: .*(line 1, column 6)" "$tmp/out"

# so is a product of parenthesized factors, at the second factor's '(',
# once that factor's power is expanded and before the product is made
expect_within 5 1 analyze "(L-1)^1000*(L-1)^1000*(L-1)^1000"
grep -q "^error: product too large to expand: .*(line 1, column 12)" "$tmp/out"

# recognition rejects what is left after L - 1 and L + 1 unless it is a
# palindrome with leading coefficient +-1, before any exponent is read: the
# roots 2 and 3 here, and Selmer's trinomial below, where a scan of every
# order up to degree 20,000 took 38 s
expect_within 5 0 analyze "(L-2)*(L-3)*(L^2000-1)" --json
python3 - "$tmp/out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["cyclotomic"] == {"violation": "not a product of cyclotomic polynomials"}, report
EOF
expect_within 5 0 analyze "(L-1)*(L^19999 - L - 1)" --json
python3 - "$tmp/out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["cyclotomic"] == {"violation": "not a product of cyclotomic polynomials"}, report
assert report["verdict"] == "FAIL", report
EOF

# the exponents are read on prefixes of doubling length: L^100000 - 1, the
# largest L-degree accepted, and palindromes that are not cyclotomic, on
# which a scan over the orders took 347 s, 37 s and 4 s
expect_within 5 0 analyze "L^100000 - 1" --json
python3 - "$tmp/out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
orders = [f["order"] for f in report["cyclotomic"]["factors"]]
assert orders == [d for d in range(2, 100001) if 100000 % d == 0], report
EOF
for text in "(L-1)*(L^19998 + 3*L^9999 + 1)" "(L^2-3*L+1)*(L^20000-1)"; do
  expect_within 5 0 analyze "$text" --json
  python3 - "$tmp/out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["cyclotomic"] == {"violation": "not a product of cyclotomic polynomials"}, report
EOF
done

# the replay's d is the lcm of the cyclotomic orders
expect 0 replay "L^60 - 1" --json
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['d'] == 60" "$tmp/out"

# literals within the bound whose unit-evaluation residual is not: the
# residual is written in full, by analyze and by verify-db
python3 - "$tmp/residual.txt" "$tmp/residual_db.txt" <<'EOF'
import sys
c = 5 * 10**4299
coeffs = [c] * 10 + [-c] * 10
coeffs[0] -= 1
coeffs[1] += 1
text = " + ".join(f"({a})*L^{k}" for k, a in enumerate(coeffs))
open(sys.argv[1], "w").write(text + "\n")
open(sys.argv[2], "w").write("big ; " + text + "\n")
EOF
expect 0 analyze --file "$tmp/residual.txt" --json
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['unit_eval_plus']['failure']" "$tmp/out"
expect 2 verify-db "$tmp/residual_db.txt" --json
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['records'][0]['name'] == 'big'" "$tmp/out"

# the replay lists every point of a group: 12 for L^12 - 1 at each step,
# counted by v_order as the primitive roots of each divisor of 12, all u = 1
expect 0 replay "L^12 - 1" --json
same_as_json_dumps
python3 - "$tmp/out" <<'EOF'
import json, sys
from collections import Counter
for step in json.load(open(sys.argv[1]))["steps"]:
    points = step["points"]
    assert len(points) == 12, step
    assert Counter(p["v_order"] for p in points) == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}, step
    assert all(p["u_order"] == 1 for p in points), step
EOF

# the replay reads deg_M off the A-normal form: M*(L - 1) replays as L - 1
expect 0 replay "L - 1"
mv "$tmp/out" "$tmp/unknot.txt"
expect 0 replay "M*L - M"
cmp "$tmp/out" "$tmp/unknot.txt"
expect 1 replay "L*M - 1"

# the replay lists at most 100,000 points: 2000 * 60 is an error line, exit 1
expect 1 replay "L^60 - 1" --nmax 2000 --json
grep -q "^error: the replay would list n_max \* deg_L = 2000 \* 60 points" "$tmp/out"
test "$(wc -c < "$tmp/out")" -lt 1000

# an L-exponent above 100,000 after expansion is a clean parse error, exit 1,
# with nothing on stderr; in a table it is a record error and the rest is
# verified
expect_within 5 1 analyze "L^100000000000000000000 - 1" 2> "$tmp/err"
one_error_line "^error: expanded L-exponent is above 100000 (line 1, column 1)"
printf 'huge ; L^100000000000000000000 - 1\nunknot ; L - 1\n' > "$tmp/huge_db.txt"
expect_within 5 0 verify-db "$tmp/huge_db.txt" 2> "$tmp/err"
grep -q "^record error (line 1, huge): expanded L-exponent is above 100000" "$tmp/out"
grep -q "^status: OK (1 records" "$tmp/out"
test ! -s "$tmp/err"

# an M-exponent longer than 4300 digits after expansion is a clean parse
# error too, where writing deg_M once ended in a traceback
python3 -c "print('M^' + '9' * 4300 + '*M^' + '9' * 4300 + '*L - 1')" > "$tmp/m_exp.txt"
expect_within 5 1 analyze --file "$tmp/m_exp.txt" 2> "$tmp/err"
one_error_line "^error: expanded M-exponent is longer than 4300 digits (line 1, column 1)"

# the powers and products of one parse share one budget: of ten powers the
# first already passes it, and a product of 8000 factors, each product
# within it, is rejected at the factor whose product passes the sum
expect_within 5 1 analyze "$(python3 -c 'print(" + ".join(["(L-1)^2047"] * 10))')" 2> "$tmp/err"
one_error_line "^error: power too large to expand: .* parse budget (line 1, column 6)"
python3 -c 'print("*".join(["(L+1)"] * 8000))' > "$tmp/factors.txt"
expect_within 5 1 analyze --file "$tmp/factors.txt" 2> "$tmp/err"
one_error_line "^error: product too large to expand: .* parse budget (line 1, column 10003)"

# a product whose result can have more than 2^18 terms is an error at its
# second '(' before it is made: 1024 L-powers times 1024 M-powers (2^20
# terms, 399 MB when it was built)
python3 -c "print('(' + '+'.join(f'L^{k}' for k in range(1024)) + ')*(' + '+'.join(f'M^{k}' for k in range(1024)) + ')')" > "$tmp/wide.txt"
expect_within 5 1 analyze --file "$tmp/wide.txt" 2> "$tmp/err"
one_error_line "^error: product too large to expand: it can have more than 262144 terms (line 1, column 6061)"

# a sum is capped as each product is: of two 512 by 512 products with
# disjoint supports, each 2^18 terms, the second is rejected at its first
# token, so 16 of them, each within the budget, no longer build 2^22 terms
python3 -c "
b = '*(' + '+'.join(f'M^{k}' for k in range(512)) + ')'
print('+'.join('(' + '+'.join(f'L^{k}' for k in range(s, s + 512)) + ')' + b for s in (0, 512)))
" > "$tmp/sum.txt"
expect_within 5 1 analyze --file "$tmp/sum.txt" 2> "$tmp/err"
one_error_line "^error: sum too large to expand: it can have more than 262144 terms (line 1, column 5929)"

# a term's integer literals are charged to the budget once its coefficient
# passes 1024 bits, 4 * b_c * max(b_n, 1024) for b_c bits times a b_n-bit
# literal: of 400 literals of 4300 nines (1.7 MB), the 105th passes it,
# where multiplying them all up took 11 s; 22,000 one-digit literals
# after 4299 nines are charged 2^40.2 and parse
python3 -c "print('*'.join(['9' * 4300] * 400) + '*L')" > "$tmp/literals.txt"
expect_within 5 1 analyze --file "$tmp/literals.txt" 2> "$tmp/err"
one_error_line "^error: product too large to expand: .* parse budget (line 1, column 447305)"
python3 -c "print('9' * 4299 + '*1' * 22000 + '*L')" > "$tmp/ones.txt"
expect_within 5 0 analyze --file "$tmp/ones.txt"

# a power of one term with coefficient +-1 is written in closed form and its
# exponents checked at its '^': 200 nested powers of M (860 KB, past the
# 128 KB limit of one argument) are rejected at the second
python3 -c "print('(' * 200 + 'M' + (')^' + '9' * 4300) * 200 + '*L - 1')" > "$tmp/nested.txt"
expect_within 5 1 analyze --file "$tmp/nested.txt" 2> "$tmp/err"
one_error_line "^error: expanded M-exponent is longer than 4300 digits (line 1, column 4505)"

# newton reads the degeneracy off the vertex count and the vertical edge
# off the slopes: a point, a vertical segment and a sloped segment
expect 0 newton "7"
grep -qx "degenerate polygon" "$tmp/out"
grep -qx "vertical edge: None" "$tmp/out"
expect 0 newton "L - 1"
grep -qx "degenerate polygon" "$tmp/out"
grep -qx "vertical edge: True" "$tmp/out"
expect 0 newton "M*L + M^2*L^2"
grep -qx "degenerate polygon" "$tmp/out"
grep -qx "vertical edge: False" "$tmp/out"

# the text modes, byte for byte: analyze on a PASS, a deg_M = 0 profile, a
# violation and a unit-evaluation failure, compute, and newton on a segment
# and a triangle
expect_text analyze "L^2*M^6 - L*M^6 + L - 1" --name trefoil <<'EOF'
name: trefoil
deg_M: 6
deg_L: 2
abelian_multiplicity: 1
unit_eval_plus: {'sign': 1, 'a': 0, 'b': 1, 'c': 1}
unit_eval_minus: {'sign': 1, 'a': 0, 'b': 1, 'c': 1}
monic_plus: True
monic_minus: True
vertical_edge: True
cyclotomic: None
verdict: PASS
EOF
expect_text analyze "(L-1)*(L^2+L+1)*(L^4+1)" --name profile <<'EOF'
name: profile
deg_M: 0
deg_L: 7
abelian_multiplicity: 1
unit_eval_plus: {'failure': True, 'residual': 'L^6 + L^5 + L^4 + L^2 + L + 1'}
unit_eval_minus: {'failure': True, 'residual': 'L^6 + L^5 + L^4 + L^2 + L + 1'}
monic_plus: True
monic_minus: True
vertical_edge: True
cyclotomic: {'factors': [{'order': 3, 'multiplicity': 1}, {'order': 8, 'multiplicity': 1}], 'product_d': 24, 'sign': 1}
verdict: FAIL
EOF
expect_text analyze "(L-1)*(L-2)" --name violation <<'EOF'
name: violation
deg_M: 0
deg_L: 2
abelian_multiplicity: 1
unit_eval_plus: {'failure': True, 'residual': 'L - 2'}
unit_eval_minus: {'failure': True, 'residual': 'L - 2'}
monic_plus: True
monic_minus: True
vertical_edge: True
cyclotomic: {'violation': 'not a product of cyclotomic polynomials'}
verdict: FAIL
EOF
expect_text analyze "M*L - 2" --name failure <<'EOF'
name: failure
deg_M: 1
deg_L: 1
abelian_multiplicity: 0
unit_eval_plus: {'failure': True, 'residual': 'L - 2'}
unit_eval_minus: {'failure': True, 'residual': '-L - 2'}
monic_plus: True
monic_minus: True
vertical_edge: False
cyclotomic: None
verdict: PASS
EOF
# a unit evaluation that vanishes: (M - 1)(L + 1) is 0 at M = 1, whose
# residual is the zero polynomial and whose monicity is None
expect_text analyze "M*L - L + M - 1" --name vanishing <<'EOF'
name: vanishing
deg_M: 1
deg_L: 1
abelian_multiplicity: 0
unit_eval_plus: {'failure': True, 'residual': '0'}
unit_eval_minus: {'failure': True, 'residual': '-2'}
monic_plus: None
monic_minus: False
vertical_edge: True
cyclotomic: None
verdict: PASS
EOF
expect_text compute --two-bridge 7 3 <<'EOF'
L^4*M^14 - 2*L^3*M^14 + L^2*M^14 + 2*L^3*M^12 - 2*L^2*M^12 + 2*L^3*M^10 - L^2*M^10 - L*M^10 - L^2*M^8 - L^3*M^6 + L*M^8 + L^2*M^6 + L^3*M^4 + L^2*M^4 - 2*L*M^4 + 2*L^2*M^2 - 2*L*M^2 - L^2 + 2*L - 1
  deg_M: 14
  deg_L: 4
  abelian_multiplicity: 1
  unit_eval_plus: {'sign': 1, 'a': 0, 'b': 1, 'c': 3}
  unit_eval_minus: {'sign': 1, 'a': 0, 'b': 1, 'c': 3}
  monic_plus: True
  monic_minus: True
  vertical_edge: True
  cyclotomic: None
  verdict: PASS
EOF
expect_text newton "M*L + M^2*L^2" <<'EOF'
vertices: [[0, 0], [1, 1]]
degenerate polygon
edge slopes: 1
vertical edge: False
EOF
expect_text newton "L*M + L - 1" <<'EOF'
vertices: [[0, 0], [1, 1], [0, 1]]
edge slopes: 1, 0, VERTICAL
vertical edge: True
EOF

# an SVG title with markup characters is escaped, and the file is XML
expect 0 newton "L*M - 1" --svg "$tmp/out.svg" --title 'a<b & "c"'
python3 - "$tmp/out.svg" <<'EOF'
import sys
import xml.etree.ElementTree as ET
title = ET.parse(sys.argv[1]).getroot().find("{http://www.w3.org/2000/svg}title")
assert title.text == 'a<b & "c"', title.text
EOF

# a title character that XML cannot carry is an error, and no file is written
rm -f "$tmp/ctl.svg"
expect 1 newton "L*M - 1" --svg "$tmp/ctl.svg" --title $'a\x01b'
test ! -e "$tmp/ctl.svg"

# parentheses nested deeper than 200 are a clean parse error, exit 1
python3 -c "print('(' * 600 + 'L-1' + ')' * 600)" > "$tmp/deep.txt"
expect 1 analyze --file "$tmp/deep.txt"

# with --json, record errors go to stderr and stdout is the JSON document;
# a record with more than three fields is a record error
python3 - "$tmp/bad_db.txt" <<'EOF'
import sys
lines = ["unknot ; L - 1", "deep ; " + "(" * 600 + "L-1" + ")" * 600, "x ; L^2 - 1 ; ; refined"]
open(sys.argv[1], "w").write("\n".join(lines) + "\n")
EOF
expect 0 verify-db "$tmp/bad_db.txt" --json 2> "$tmp/err"
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['n_records'] == 1" "$tmp/out"
grep -q "^record error (line 2, deep): parentheses nested deeper than 200" "$tmp/err"
grep -q "^record error (line 3, ?): expected 'name ; polynomial \[; flags\]'" "$tmp/err"

# a wide polygon draws at most one grid line per pixel: the file stays small
expect 0 newton "L*M^100000 + 1" --svg "$tmp/wide.svg"
test "$(wc -c < "$tmp/wide.svg")" -lt 100000

# a leading UTF-8 byte-order mark is not part of the first record's name
printf '\xef\xbb\xbftrefoil ; L^2*M^6 - L*M^6 + L - 1\n' > "$tmp/bom_db.txt"
expect 0 verify-db "$tmp/bom_db.txt" --json
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['records'][0]['name'] == 'trefoil'" "$tmp/out"

# records are verified on their A-normal form: sign, content and monomial
# factors change nothing in the report
printf 'u ; -2*L + 2\nt ; -3*M^2*(L^2*M^6 - L*M^6 + L - 1)\nc ; 7*L*(L^2 - 1) ; refined\n' > "$tmp/raw_db.txt"
printf 'u ; L - 1\nt ; L^2*M^6 - L*M^6 + L - 1\nc ; L^2 - 1 ; refined\n' > "$tmp/nf_db.txt"
expect 0 verify-db "$tmp/raw_db.txt" --json
mv "$tmp/out" "$tmp/raw_db.json"
expect 0 verify-db "$tmp/nf_db.txt" --json
cmp "$tmp/out" "$tmp/raw_db.json"

# every command's --json is json.dumps(indent=2) byte for byte: compute;
# analyze on a PASS, a deg_M = 0 profile, violations, a quoted name and a
# vanishing unit evaluation;
# verify-db on the fixtures, on a residual past the 4300-digit str() limit
# and on an empty table; newton on a point, a vertical segment and the
# trefoil; replay with d = 1 and on a violation
expect_json 0 compute --torus 2 3
expect_json 0 compute --two-bridge 5 3
expect_json 0 compute --two-bridge 7 3
# 21/13's eliminant has a repeated factor, which the square-free step reads
# off one integer evaluation and certifies by exact division: about 0.3 s
expect_within 3 0 compute --two-bridge 21 13 --json
same_as_json_dumps
expect_json 0 analyze "L^2*M^6 - L*M^6 + L - 1"
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['verdict'] == 'PASS'" "$tmp/out"
expect_json 0 analyze "L^60 - 1"
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['cyclotomic']['product_d'] > 1" "$tmp/out"
expect_json 0 analyze "(L-1)*(L-2)"
python3 -c "import json, sys; assert 'violation' in json.load(open(sys.argv[1]))['cyclotomic']" "$tmp/out"
expect_json 0 analyze "(L-1)*(L^2+L+1)*(L^4+1)" --name 'q"é'
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['cyclotomic']['product_d'] == 24" "$tmp/out"
expect_json 0 analyze "M*L - L + M - 1"
python3 - "$tmp/out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["unit_eval_plus"] == {"failure": True, "residual": "0"}
assert report["unit_eval_minus"] == {"failure": True, "residual": "-2"}
assert report["monic_plus"] is None and report["monic_minus"] is False
EOF
expect_json 0 verify-db "$root/src/apoly/data/fixtures.txt"
expect_json 2 verify-db "$tmp/residual_db.txt"
printf '# no records\n' > "$tmp/empty_db.txt"
expect_json 0 verify-db "$tmp/empty_db.txt"
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['records'] == []" "$tmp/out"
expect_json 0 newton "3"
expect_json 0 newton "L - 1"
expect_json 0 newton "L^2*M^6 - L*M^6 + L - 1"
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['vertical_edge'] is True" "$tmp/out"
expect_json 0 replay "L - 1"
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['d'] == 1" "$tmp/out"
expect_json 0 replay "L^2 - L - 1"
python3 -c "import json, sys; assert json.load(open(sys.argv[1]))['steps'] == []" "$tmp/out"

# verify-db --json is json.dumps(indent=2) byte for byte, also for a record
# named with a non-ASCII letter, a quote and a backslash
printf 'caf\xc3\xa9 "q" \\b ; L^2*M^6 - L*M^6 + L - 1\nunknot ; L - 1\n' > "$tmp/names_db.txt"
expect 0 verify-db "$tmp/names_db.txt" --json
same_as_json_dumps
python3 - "$tmp/out" <<'EOF'
import json, sys
assert json.load(open(sys.argv[1]))["records"][0]["name"] == 'café "q" \\b'
EOF

echo "smoke_cli: all checks hold"
