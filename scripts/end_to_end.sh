#!/bin/sh
# Full pipeline demo: synthesize frames, solve boxes, evaluate, render.
# Usage: scripts/end_to_end.sh [workdir]
# Runs the package from the Python path: install it, or from a checkout run
# PYTHONPATH=src scripts/end_to_end.sh.
set -eu

rtm3d() { python3 -m rtm3d.cli "$@"; }

WORK="${1:-/tmp/rtm3d_demo}"
mkdir -p "$WORK"

cat > "$WORK/scenes.cfg" <<EOF
frames=10
n_objects=3
pixel_sigma=1.0
dropout=0.1
seed=42
EOF

rtm3d synth "$WORK/scenes.cfg" "$WORK/dataset"
rtm3d solve "$WORK/dataset" "$WORK/results" --jobs 2
rtm3d eval "$WORK/results" "$WORK/dataset" --iou 0.5 --out "$WORK/metrics.txt"
rtm3d render-bev \
    --results "$WORK/results/data/000000.txt" \
    --gt "$WORK/dataset/label_2/000000.txt" \
    "$WORK/frame000000_bev.svg"

echo "demo artifacts in $WORK"
