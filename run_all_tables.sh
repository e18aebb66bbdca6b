#!/bin/sh
# Regenerates every paper table/figure. IOT_SCALE=full reproduces the
# paper-scale grid; this script uses medium for corpus analyses and
# lighter scales for the model-training tables to bound runtime.
set -e
cd "$(dirname "$0")"
BIN=./target/release
mkdir -p results

# Gate the table regeneration on the tier-1 + bench verification so a
# serial/multi-worker divergence is caught before any table is rewritten.
# Skip with IOT_SKIP_VERIFY=1 when the build is known-good.
if [ "${IOT_SKIP_VERIFY:-0}" != "1" ]; then
  ./verify.sh
fi
for t in table1 entropy_calibration ablation; do
  echo "=== $t (medium) ==="
  IOT_SCALE="${IOT_SCALE_CORPUS:-medium}" $BIN/$t
done
# Tables 2-8, Figure 2 and the summary all read one campaign run.
echo "=== tables (medium) ==="
IOT_SCALE="${IOT_SCALE_CORPUS:-medium}" $BIN/tables
echo "=== table9 (medium) ==="
IOT_SCALE="${IOT_SCALE_INFER:-medium}" $BIN/table9 2>/dev/null
for t in table10 table11 user_study; do
  echo "=== $t (quick) ==="
  IOT_SCALE=quick $BIN/$t 2>/dev/null
done
