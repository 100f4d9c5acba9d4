#!/usr/bin/env bash
# same-bytes-as.sh <git-ref>
#
# The check for any change whose contract is "same bytes": build tmsim
# from <git-ref> and from the working tree, run every -experiment value
# at -scale small with every report writer on, the scaling study at
# -scale full as well (64/128/256 processors: no small-scale machine is
# wider than 16, so nothing else reaches a directory record's second
# word), the litmus sweep at -scale full (the only run of the wider
# enumerated programs), one traced cell per retry-loop system (and one
# per trace format, and one with -metrics-out), and every examples/
# program (examples/retrywait is the one command-line output that
# reaches USTM's Retry), and diff everything the two builds wrote. Exit 0 when nothing differs, 1 on any difference (the diff is
# printed and kept in $SAME_BYTES_OUT, default a temporary directory), 2
# on usage or build errors.
#
# The reference tree is extracted with `git archive` into a temporary
# directory, so the script leaves nothing behind in .git and works on an
# uncommitted working tree: "the change" is whatever is checked out now.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 <git-ref>" >&2
	exit 2
fi
ref="$1"
root="$(git rev-parse --show-toplevel)"
git -C "$root" rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
	echo "$0: $ref is not a commit" >&2
	exit 2
}

out="${SAME_BYTES_OUT:-$(mktemp -d)}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
src="$(mktemp -d)"
scratch=("$src")
trap 'rm -rf "${scratch[@]}"' EXIT

git -C "$root" archive "$ref" | tar -x -C "$src"
(cd "$src" && go build -o "$out/tmsim.ref" ./cmd/tmsim) || exit 2
(cd "$root" && go build -o "$out/tmsim.new" ./cmd/tmsim) || exit 2
examples="$(cd "$root/examples" && ls -d -- */ | tr -d /)"
for ex in $examples; do
	(cd "$src" && go build -o "$out/$ex.ref" "./examples/$ex") || exit 2
	(cd "$root" && go build -o "$out/$ex.new" "./examples/$ex") || exit 2
done

# Every -experiment value the new build knows, read from its usage text.
experiments="$({ "$out/tmsim.new" -h 2>&1 || true; } | grep -A1 -e '-experiment' | tail -1 |
	sed -e 's/(default.*//' -e 's/|/ /g')"

# run <side>: everything one build prints or writes, into $out/<side>/.
# Both sides run in their own directory with the same relative file
# names, so paths echoed in the output are identical too.
run() {
	local bin="$out/tmsim.$1" dir="$out/$1"
	rm -rf "$dir" && mkdir -p "$dir" && cd "$dir"
	# A trace file's name picks its format; a build from before that
	# also takes the format as -trace-format (traceflag <format>).
	local legacy=
	{ "$bin" -h 2>&1 || true; } | grep -q -e '-trace-format' && legacy=1
	traceflag() { [ -z "$legacy" ] || echo "-trace-format $1"; }
	local e extra
	for e in $experiments; do
		extra=()
		case "$e" in
		latency) extra=(-txstats-out latency.txstats.json) ;;
		fig6) extra=(-contention-out fig6.contention.json) ;;
		litmus) extra=(-litmus-out litmus.json) ;;
		oltp) extra=(-oltp-out oltp.json -txstats-out oltp.txstats.json -contention-out oltp.contention.json) ;;
		fig5) extra=(-metrics-out fig5.metrics.json) ;;
		# The metrics report lists cells in job order: a sweep whose job
		# order changes shows here, not in its table.
		fig7) extra=(-metrics-out fig7.metrics.json) ;;
		esac
		"$bin" -experiment "$e" -scale small "${extra[@]}" >"$e.stdout" 2>"$e.stderr" ||
			echo "exit $?" >>"$e.stdout"
	done
	"$bin" -experiment scale -scale full >scale.full.stdout 2>scale.full.stderr ||
		echo "exit $?" >>scale.full.stdout
	"$bin" -experiment litmus -scale full -litmus-out litmus.full.json >litmus.full.stdout 2>litmus.full.stderr ||
		echo "exit $?" >>litmus.full.stdout
	# Non-default policies reach the arms the default never takes:
	# serialize escalates to the software path and to the token. No
	# output names the policy: the three runs show only through the
	# cm.* numbers of their metrics and what those decisions move.
	local pol
	for pol in linear karma serialize; do
		"$bin" -experiment fig5 -scale small -policy "$pol" -metrics-out "fig5.$pol.metrics.json" \
			-contention-out "fig5.$pol.contention.json" \
			>"fig5.$pol.stdout" 2>"fig5.$pol.stderr" || echo "exit $?" >>"fig5.$pol.stdout"
	done
	# Traced cells carry every observer at once — the live sink, the
	# contention profile and the txstats recorder share one machine.
	# ustm+ufo runs on kmeans-high: it reports its software kills
	# itself (RecordSWKill), and vacation's small cell has no software
	# conflicts at all.
	local sys wl
	for sys in ufo-hybrid hytm phtm hybrid-norec unbounded-htm tl2 ustm+ufo sle; do
		wl=vacation-high
		[ "$sys" = ustm+ufo ] && wl=kmeans-high
		"$bin" -trace-out "trace.$sys.jsonl" $(traceflag jsonl) -trace-system "$sys" \
			-trace-workload "$wl" -txstats-out "trace.$sys.txstats.json" \
			-contention-out "trace.$sys.contention.json" \
			>"trace.$sys.stdout" 2>"trace.$sys.stderr" || echo "exit $?" >>"trace.$sys.stdout"
	done
	local fmt ext
	for fmt in text:txt chrome:json; do
		ext="${fmt#*:}" fmt="${fmt%:*}"
		"$bin" -trace-out "trace.ufo-hybrid.$ext" $(traceflag "$fmt") -trace-system ufo-hybrid \
			-trace-workload vacation-high >"trace.$fmt.stdout" 2>"trace.$fmt.stderr" ||
			echo "exit $?" >>"trace.$fmt.stdout"
	done
	# A traced run's metrics: the one report the cells above leave out.
	"$bin" -trace-out trace.metrics.jsonl $(traceflag jsonl) -trace-workload kmeans-high \
		-trace-threads 2 -metrics-out trace.metrics.json \
		>trace.metrics.stdout 2>trace.metrics.stderr || echo "exit $?" >>trace.metrics.stdout
	local ex
	for ex in $examples; do
		"$out/$ex.$1" >"example.$ex.stdout" 2>&1 || echo "exit $?" >>"example.$ex.stdout"
	done
	# Wall-clock is the one thing allowed to differ.
	sed -i -e '/completed in/d' -e 's/ in [0-9.]*[a-zµ]*s\]$/]/' ./*.stdout
}

(run ref)
(run new)

if diff -r "$out/ref" "$out/new" >"$out/same-bytes.diff"; then
	echo "same bytes as $ref: $(ls "$out/new" | wc -l) files compared"
	# Nothing to read in an empty diff: keep the outputs only where the
	# caller chose the directory.
	[ -n "${SAME_BYTES_OUT:-}" ] || scratch+=("$out")
	exit 0
fi
cat "$out/same-bytes.diff"
echo "output differs from $ref (diff kept in $out/same-bytes.diff)" >&2
exit 1
