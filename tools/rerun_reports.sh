#!/usr/bin/env bash
# Write the report sets that two runs of nodalbubbles must reproduce byte
# for byte (acceptance criterion 10), with the lines that may differ removed.
#
#   tools/rerun_reports.sh OUT_DIR
#
# All four subcommands (constants, assumptions, saddle --trace, verify) run
# on three balls, each in JSON and in CSV, into OUT_DIR/<ball>-<format>:
# the N = 3 unit ball; --dim 4 --radius 2, an even N and a radius other than
# 1, so saddle takes its dilation path; and a ball centered at (0.3, 0, 0),
# read from a config file, so the kernels see a nonzero center.  The
# timestamp_utc and out lines are then deleted, so two output directories
# compare with `diff -r`, whether from two runs of one tree or from two
# trees that should give the same bits.
#
# NODALBUBBLES is the command to run (default: the installed console
# script); for a checkout without installing, use
#   NODALBUBBLES="python -m nodalbubbles.cli" PYTHONPATH=src tools/rerun_reports.sh OUT_DIR
# Warnings are errors, as in tier-1, so a RuntimeWarning fails the run.
set -eo pipefail
out=${1:?usage: tools/rerun_reports.sh OUT_DIR}
read -ra cli <<< "${NODALBUBBLES:-nodalbubbles}"
export PYTHONWARNINGS=error
offcenter=$(mktemp)
trap 'rm -f "$offcenter"' EXIT
echo '{"center": [0.3, 0, 0]}' > "$offcenter"
for ball in "unit3:" "dim4-radius2:--dim 4 --radius 2" \
            "off-center:--config $offcenter"; do
  name=${ball%%:*}
  read -ra flags <<< "${ball#*:}"
  for fmt in json csv; do
    dir="$out/$name-$fmt"
    for cmd in constants assumptions "saddle --trace" verify; do
      # shellcheck disable=SC2086  # cmd is a subcommand and its flag
      "${cli[@]}" $cmd "${flags[@]}" --format "$fmt" --out "$dir"
    done
    sed -i -e '/"timestamp_utc"/d' -e '/"out":/d' "$dir"/*
  done
done
