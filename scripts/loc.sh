#!/usr/bin/env bash
# loc.sh prints the line counts the roadmap's north star tracks: non-blank,
# non-test Go lines for the whole library (every .go file outside
# perfbench/ and hidden directories, *_test.go excluded) and for each
# package under internal/. Run it from the repository root:
#
#   bash scripts/loc.sh        # or: make loc
set -euo pipefail

# lines counts the non-blank lines of the NUL-separated files on stdin.
lines() {
	xargs -0 -r cat | grep -cv '^[[:space:]]*$' || true
}

printf '%7d  library (non-test Go, perfbench/ excluded)\n' "$(
	find . \( -path ./perfbench -o -path './.*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print0 | lines)"
for dir in internal/*/; do
	printf '%7d  %s\n' "$(find "$dir" -name '*.go' ! -name '*_test.go' -print0 | lines)" "${dir%/}"
done
