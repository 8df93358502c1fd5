#!/usr/bin/env sh
# reach.sh — the reachability audit (DESIGN.md §7 "What may exist unlinked"):
# prints every function of an untagged non-test file of the root module that
# none of the 14 mains links and the DESIGN.md exemption table does not name
# (testutil and chaos, test infrastructure, aside). Nothing on a clean tree.
# Run by hand before a PR (CONTRIBUTING.md); not a check.sh tier.

set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for dir in cmd/* examples/*; do # no inlining: every called function is a symbol
	go build -gcflags=all=-l -o "$tmp/bin/$(basename "$dir")" "./$dir"
done
(cd benchmark && go build -gcflags=all=-l -o "$tmp/bin/gapmark" ./cmd/gapmark)

# Text symbols, instantiation brackets and closure, method-value and
# defer-wrapper suffixes stripped back to the declared name.
for bin in "$tmp"/bin/*; do
	go tool nm "$bin"
done | awk '$2 ~ /^[Tt]$/ { $1 = $2 = ""; sub(/^ +/, ""); print }' |
	sed -E -e 's/\[[^]]*\]//g' \
		-e 's/(\.func[0-9]+|\.gowrap[0-9]+|\.deferwrap[0-9]+|-range[0-9]+|-fm|\.[0-9]+)+$//' |
	grep '^gapbench' | sed 's,^gapbench/internal/,,' | sort -u >"$tmp/linked"

# Exempt: the first backticked cell of each table row; a trailing * globs.
sed -n '/reach:exempt:begin/,/reach:exempt:end/p' DESIGN.md |
	sed -n 's/^| `\([^`]*\)`.*/\1/p' >"$tmp/exempt"

go run scripts/_reach/list.go | sed 's,^gapbench/internal/,,' |
	grep -v -e '^testutil\.' -e '^chaos\.' | sort >"$tmp/declared"

awk -F'\t' -v linked="$tmp/linked" -v exempt="$tmp/exempt" '
	BEGIN {
		while ((getline s < linked) > 0) have[s] = 1
		while ((getline s < exempt) > 0)
			if (s ~ /\*$/) prefix[substr(s, 1, length(s) - 1)] = 1; else have[s] = 1
	}
	$1 in have { next }
	{ for (p in prefix) if (index($1, p) == 1) next; print }
' "$tmp/declared"
