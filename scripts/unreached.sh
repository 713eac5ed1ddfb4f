#!/bin/sh
# Prints, one per line and sorted, every function and method declared in a
# non-test Go file of the samnet module (bench/ excluded) that no binary
# reaches: not the commands, not the examples, not the benchmark. Run it from
# the repository root:
#
#	sh scripts/unreached.sh
#
# Reachability is the linker's own: each binary is linked with inlining off
# and -dumpdep, which prints every edge of the reachability graph it walked.
# A name is printed as its package path, then its receiver type if any, then
# its name, e.g. samnet/internal/geom.Rect.Contains. DESIGN.md §5 lists the
# names this prints on purpose, and why each is kept.
set -eu
export LC_ALL=C
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# dump DIR PKG: link the main package in DIR and print each samnet function
# it reaches, with type arguments dropped and the binary's "main" renamed to
# PKG. Shape types can hold spaces, so each edge is split on its arrow.
dump() {
	if ! go build -C "$1" -gcflags=all=-l -ldflags=-dumpdep -o /dev/null . >"$tmp/dep" 2>&1; then
		cat "$tmp/dep" >&2
		exit 1
	fi
	awk -F ' -> ' 'NF == 2 { print $1; print $2 }' "$tmp/dep" |
		sed -E -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e "s#^main\.#$2.#" |
		grep '^samnet' | sed -E 's/\(\*?([^)]*)\)/\1/g'
}

for d in cmd/*/ examples/*/; do dump "$d" "samnet/${d%/}" >>"$tmp/edges"; done
dump bench samnet/bench >>"$tmp/edges"
sort -u "$tmp/edges" >"$tmp/reached"

git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$' | grep -v '^bench/' | while read -r f; do
	dir=$(dirname "$f")
	pkg=samnet
	[ "$dir" = . ] || pkg="samnet/$dir"
	sed -nE \
		-e 's/^func \(([A-Za-z_0-9]+ )?\*?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/\2.\4/p' \
		-e 's/^func ([A-Za-z_0-9]+).*/\1/p' "$f" |
		grep -vx 'init' | sed "s#^#$pkg.#"
done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/reached"
