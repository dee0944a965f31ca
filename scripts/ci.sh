#!/usr/bin/env bash
# Every CI check after the install, in one script, so that a local run and
# the workflow run the same steps.  Run it from anywhere in the checkout:
#
#     bash scripts/ci.sh
#
# It imports the package from src/, not from an installed copy, and exits
# non-zero at the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src
fbblat() { python -m fbblat "$@"; }

echo "== tier-1 tests (under -X dev: warnings on, files never closed reported)"
python -X dev -m pytest -q --continue-on-collection-errors

echo "== benchmark smoke (every op checked exactly, exit 1 on a wrong output)"
for w in roundtrip wide triangle enumerate; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 > /dev/null
done

echo "== f = d as bytes through the streaming table output"
cmp <(fbblat table d --max-n 64) <(fbblat table f --max-n 64)
# cmp cannot see a failed exit behind <(...); pin the bytes as well
test "$(fbblat table f --max-n 64 | sha256sum | cut -c1-16)" = a3911fec11c9ca86

echo "== verify workload, its bytes pinned (a failed check changes them)"
test "$(fbblat verify --max-n 20 | sha256sum | cut -c1-16)" = acba437aafc405bf

echo "== ci.sh: all steps passed"
