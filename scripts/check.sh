#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
# Run from the repository root (or any subdirectory; cargo finds the
# workspace). CI runs exactly this script (see .github/workflows/ci.yml),
# so passing locally means passing the gate.
#
# Each step prints its wall-clock time as it finishes and a summary table
# closes the run, so CI logs show where the time goes.
set -euo pipefail

STEP_NAMES=()
STEP_SECS=()

run_step() {
  local name="$1"
  shift
  echo "==> ${name}: $*"
  local start end
  start=$(date +%s)
  "$@"
  end=$(date +%s)
  local secs=$((end - start))
  echo "==> ${name}: done in ${secs}s"
  STEP_NAMES+=("${name}")
  STEP_SECS+=("${secs}")
}

run_step build cargo build --release
run_step test cargo test -q
run_step clippy cargo clippy --all-targets -- -D warnings
run_step fmt cargo fmt --all --check
run_step doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# benchmark/ is a stand-alone package outside the workspace, so the steps
# above cannot see an API change that breaks it.
run_step bench-build cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo
printf '%-12s %8s\n' step seconds
printf '%-12s %8s\n' ---- -------
total=0
for i in "${!STEP_NAMES[@]}"; do
  printf '%-12s %8s\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
  total=$((total + STEP_SECS[i]))
done
printf '%-12s %8s\n' total "${total}"

echo "tier-1 gate: OK"
