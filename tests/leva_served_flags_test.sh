#!/bin/sh
# Runs leva_served with malformed numeric flag values: each must exit 1 with
# a message naming the flag, before any model is loaded or port bound.
# Usage: leva_served_flags_test.sh PATH/TO/leva_served
served="$1"
missing_model=/nonexistent/leva_served_flags_test.leva
fail=0

# expect FLAG VALUE CODE PATTERN: run with FLAG VALUE, want exit CODE and
# PATTERN in stderr.
expect() {
  err=$("$served" --model "$missing_model" "$1" "$2" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne "$3" ]; then
    echo "FAIL: $1 $2 exited $code, want $3 ($err)"
    fail=1
  elif ! printf '%s\n' "$err" | grep -qF -- "$4"; then
    echo "FAIL: $1 $2: stderr lacks '$4': $err"
    fail=1
  fi
}

for bad in "--port 70000" "--port 65536" "--port abc" "--port -1" \
    "--max-pending-rows abc" "--max-pending-rows 0" \
    "--max-batch-rows 0" "--max-batch-rows -5" \
    "--drain-timeout-ms 1.5" "--threads x"; do
  set -- $bad
  expect "$1" "$2" 1 "invalid value '$2' for $1"
done
expect --threads "" 1 "invalid value '' for --threads"

# Valid values parse, so the run gets as far as loading the missing model.
for good in "--port 0" "--port 65535" "--max-batch-rows 1" \
    "--max-pending-rows 1" "--threads 0"; do
  set -- $good
  expect "$1" "$2" 1 "load $missing_model"
done

[ "$fail" -eq 0 ] && echo "ok"
exit "$fail"
