#!/usr/bin/env bash
# Fails when a test suite named on the command line matches no test in the
# given ctest build tree, so a deleted or renamed suite cannot quietly shrink
# a sanitizer sweep. Each name is matched the way the sweeps' `-R '^(a|b)'`
# matches it: as a prefix of the ctest test name.
#
#   $ scripts/require_suites.sh BUILD_DIR SUITE...
set -euo pipefail

dir=$1
shift
listed=$(ctest --test-dir "$dir" -N | sed -n 's/^ *Test *#[0-9]*: //p')
missing=()
for suite in "$@"; do
  if ! grep -q "^${suite}" <<<"$listed"; then
    missing+=("$suite")
  fi
done
if ((${#missing[@]} > 0)); then
  echo "suites matching no test in $dir: ${missing[*]}" >&2
  exit 1
fi
