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
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 APOLY-COMMAND..." >&2
  exit 2
fi
apoly=("$@")
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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

expect 0 compute --two-bridge 5 3
expect 0 replay "(L-1)*(L+1)"
expect 0 verify-db "$root/src/apoly/data/fixtures.txt"

# an over-long integer literal is a clean parse error, exit 1
python3 -c "print('7' * 5000 + '*L - 1')" > "$tmp/long.txt"
expect 1 analyze --file "$tmp/long.txt"

# so is a coefficient past 4300 digits after expansion, exit 1
python3 -c "print('(' + '9' * 3000 + '*L - 1)^2')" > "$tmp/product.txt"
expect 1 analyze --file "$tmp/product.txt"

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

echo "smoke_cli: all checks hold"
