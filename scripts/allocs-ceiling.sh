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
ceilings="oltp-open:51200 vacation-t16:7000 fig5-small:26500 scale-256:33000 layer-micro:7800"

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
