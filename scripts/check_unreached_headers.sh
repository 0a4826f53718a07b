#!/usr/bin/env bash
# Fails when a header under src/ is included by nothing but its own .cc
# and tests/: a module that no deployed caller reaches. A caller is a file
# in src/, examples/, bench/ or e2ebench/; a test never counts.
#
#   usage: scripts/check_unreached_headers.sh
#
# Prints one line per unreached header and exits 1 when there is any.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for header in src/*/*.h; do
  rel="${header#src/}"
  own_cc="${header%.h}.cc"
  users=$(grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
            "#include \"$rel\"" src examples bench e2ebench |
          grep -vxF "$own_cc" || true)
  if [[ -z "$users" ]]; then
    echo "unreached: $header (included only by its own .cc or tests/)"
    status=1
  fi
done
exit "$status"
