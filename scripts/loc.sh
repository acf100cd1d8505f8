#!/bin/sh
# Line counts for simplicity changes: for every Go package of the root
# module, and for the facade file faassched.go on its own, the non-test
# line count ("lines": every line of the package's non-test .go files)
# and the code line count ("code": those lines minus blank lines and
# lines that hold only a // comment). The last row totals the packages
# (faassched.go is already inside ".").
#
# Usage: scripts/loc.sh [dir...]   (default: every package; run from the
# repository root; the benchmark/ module is left out)
set -eu

cd "$(dirname "$0")/.."

count() { # files... -> "lines code"
	awk '{ n++ } !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { c++ } END { printf "%d %d\n", n, c }' "$@"
}

if [ "$#" -gt 0 ]; then
	dirs=$(printf '%s\n' "$@" | sed 's:/*$::')
else
	dirs=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' |
		sed 's:/[^/]*$::; s:^\./::; s:^\.$:.:' | sort -u)
fi

printf '%-28s %7s %7s\n' package lines code
tl=0
tc=0
for d in $dirs; do
	files=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ -n "$files" ] || continue
	# shellcheck disable=SC2086 # word splitting of the file list is intended
	set -- $(count $files)
	printf '%-28s %7d %7d\n' "$d" "$1" "$2"
	tl=$((tl + $1))
	tc=$((tc + $2))
	if [ "$d" = . ] && [ -f faassched.go ]; then
		set -- $(count faassched.go)
		printf '%-28s %7d %7d\n' faassched.go "$1" "$2"
	fi
done
printf '%-28s %7d %7d\n' total "$tl" "$tc"
