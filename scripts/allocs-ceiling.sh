#!/usr/bin/env bash
# allocs-ceiling.sh
#
# Gate on the one end-to-end benchmark metric that repeats to the unit:
# allocs_per_op. A transaction allocates nothing in the steady state
# (DESIGN.md §25), so a cell's count is its set-up — processors and lines
# touched — and a per-transaction allocation that creeps back multiplies
# it. Each workload runs once (-quick reproduces the full run's count)
# and must stay under a ceiling about 10 % over what it measured when the
# ceiling was set; lower the ceiling when a PR lowers the count.
#
#	bash scripts/allocs-ceiling.sh
#
# Exit 0 = every workload under its ceiling, 1 = one is over or ran
# incorrectly, 2 = a run printed no allocs_per_op.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# workload:ceiling — measured 53,031 / 6,262 / 24,048 / 29,944 / 7,070
# at PR 24 (661,081 / 174,552 / 158,072 / 199,003 / 9,790 before it);
# oltp-open 46,663 at PR 25, which stopped building an unread profile.
# oltp-open 46,553 (median of 12 runs) once its store was built in bulk.
# 31,252 / 5,269 / 12,475 / 22,743 / 6,616 (oltp-open, vacation-t16,
# fig5-small, scale-256, layer-micro) once the machine arena kept the
# engine and the processors. 22,648 / 5,010 / 9,979 / 19,238 / 6,613 once
# it kept each processor's TM contexts too. 20,135 / 2,324 / 8,415 /
# 18,030 / 2,674 once memory pages, directory slabs and L1s came in
# chunks and a processor's note stopped formatting. oltp-open 19,681 once
# the txstats and contention sections stopped copying their totals into
# metrics (four histogram snapshots fewer per cell). 19,541 / 2,258 /
# 8,308 / 17,193 (oltp-open, vacation-t16, fig5-small, scale-256) once
# tl2's and hybrid-norec's software paths stopped binding two method
# values per processor; layer-micro's 2,596 is inside its spread.
# 19,521 / 2,233 / 8,289 / 17,237 / 2,601 once a page's words and its
# lines' directory records shared one slab (scale-256's ceiling is
# already under 10 % over its count, so it stays).
ceilings="oltp-open:21450 vacation-t16:2450 fig5-small:9100 scale-256:18950 layer-micro:2850"

status=0
for pair in $ceilings; do
	workload="${pair%%:*}" ceiling="${pair##*:}"
	line="$(bash benchmark/run.sh -workload "$workload" -quick -trace 0 | tail -n 1)"
	allocs="$(sed -n 's/.*"allocs_per_op":{"value":\([0-9]*\).*/\1/p' <<<"$line")"
	if [ -z "$allocs" ]; then
		echo "$workload: no allocs_per_op in: ${line:0:160}" >&2
		exit 2
	fi
	verdict=ok
	if ! grep -q '"correct":true' <<<"$line"; then
		verdict=INCORRECT status=1
	elif [ "$allocs" -gt "$ceiling" ]; then
		verdict=OVER status=1
	fi
	printf '%-13s allocs_per_op %8d  ceiling %8d  %s\n' "$workload" "$allocs" "$ceiling" "$verdict"
done
exit "$status"
