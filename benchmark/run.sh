#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. The driver appends
#   --workload NAME --seed N --seconds S --trace 0|1
# Builds the binary that serves the requested run kind from source (a
# no-op once built) and runs it; --trace 1 selects the traced run. Only
# the requested binary is built, so a layer-level API rename that breaks
# eta-e2e-layers cannot take the end-to-end run down with it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
trace=0
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" ]]; then trace="$arg"; fi
  prev="$arg"
done
case "$trace" in
  0) bin=eta-e2e ;;
  1) bin=eta-e2e-layers ;;
  *) echo "run.sh: --trace must be 0 or 1, got '$trace'" >&2; exit 2 ;;
esac
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
