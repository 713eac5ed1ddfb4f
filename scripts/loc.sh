#!/bin/sh
# Prints the repository's non-test Go line count, the size ROADMAP.md
# tracks: every tracked .go file outside bench/ whose name does not end in
# _test.go. Run it from the repository root:
#
#	sh scripts/loc.sh
set -eu
git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$' | xargs cat | wc -l
