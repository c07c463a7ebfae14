#!/usr/bin/env bash
# loc.sh [rev] — print the line counts of the root module's tracked Go
# files: non-test and test, with perf/ (a module of its own) and every
# testdata/ directory excluded. With a rev, the files and their contents
# are those of that commit (git show); without one, the tracked files as
# they stand in the working tree.
#
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh HEAD^      # the parent commit
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev=${1:-}
if [ -n "$rev" ]; then
	files=$(git ls-tree -r --name-only "$rev")
else
	files=$(git ls-files)
fi
nontest=0
test=0
while IFS= read -r f; do
	case "$f" in
	*.go) ;;
	*) continue ;;
	esac
	case "$f" in
	perf/* | testdata/* | */testdata/*) continue ;;
	esac
	if [ -n "$rev" ]; then
		n=$(git show "$rev:$f" | wc -l)
	else
		n=$(wc -l <"$f")
	fi
	case "$f" in
	*_test.go) test=$((test + n)) ;;
	*) nontest=$((nontest + n)) ;;
	esac
done <<<"$files"
echo "non-test Go: $nontest"
echo "test Go:     $test"
