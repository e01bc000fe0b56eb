#!/bin/sh
# tensorstore-smoke: the catalog commands, then the campaign server and its
# client commands, exercised as a binary (`make tensorstore-smoke`, and the
# CI serve job). Build once; over a scratch store put an ensemble, decompose
# it by HOSVD and by HOOI, read the result back with info, and check that a
# bad -rank and the removed -sketch flag exit non-zero. Then serve on a free
# port, submit a campaign, submit it again (must be absorbed, not
# recomputed), predict, stats, and SIGTERM must drain and exit 0. Run from
# the repository root.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=
cleanup() {
	[ -z "$pid" ] || kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
fail() {
	echo "tensorstore-smoke: $*" >&2
	for f in "$tmp"/*.out "$tmp"/*.err; do
		[ ! -s "$f" ] || { echo "--- $f" >&2; cat "$f" >&2; }
	done
	exit 1
}

ts="$tmp/tensorstore"
$GO build -o "$ts" ./cmd/tensorstore

store() { "$ts" -dir "$tmp/store" "$@"; }
store put -name ens -res 4 -samples 3 -budget 20 > "$tmp/put.out" 2> "$tmp/put.err" || fail "put failed"
for method in "" -hooi; do
	store decompose -name ens -out dec -rank 2 $method > "$tmp/decompose.out" 2> "$tmp/decompose.err" ||
		fail "decompose $method failed"
	grep -q '^stored "dec": ranks \[2 2 2 2 2\], fit ' "$tmp/decompose.out" || fail "decompose $method printed no fit"
done
store info -name dec > "$tmp/info.out" 2> "$tmp/info.err" || fail "info failed"
grep -q 'Tucker decomposition' "$tmp/info.out" || fail "info does not describe the decomposition"
# A bad rank is an error line, not a panic's goroutine trace.
if store decompose -name ens -out bad -rank -1 > "$tmp/badrank.out" 2> "$tmp/badrank.err"; then
	fail "decompose -rank -1 exited 0"
fi
grep -q '^tensorstore: ' "$tmp/badrank.err" && ! grep -q 'goroutine ' "$tmp/badrank.err" ||
	fail "decompose -rank -1 did not fail with a tensorstore: line"
if store decompose -name ens -out bad -sketch 0.1 > "$tmp/sketch.out" 2> "$tmp/sketch.err"; then
	fail "decompose accepted the removed -sketch flag"
fi

"$ts" -dir "$tmp/store" serve -addr 127.0.0.1:0 > "$tmp/serve.out" 2> "$tmp/serve.err" &
pid=$!
addr=
for _ in $(seq 100); do
	addr=$(sed -n 's|^tensorstore: serving /v1 on \(http://[^ ]*\).*|\1|p' "$tmp/serve.out")
	[ -z "$addr" ] || break
	kill -0 "$pid" 2>/dev/null || fail "the server exited before it listened"
	sleep 0.1
done
[ -n "$addr" ] || fail "no \"serving /v1 on\" line within 10 s"

submit() {
	"$ts" submit -addr "$addr" -tenant smoke -res 4 -samples 3 -rank 2 -wait 60s
}
submit > "$tmp/first.out" 2> "$tmp/first.err" || fail "submit failed"
grep -q '"state": "done"' "$tmp/first.out" || fail "the campaign did not finish"
job=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$tmp/first.out" | head -n 1)
[ -n "$job" ] || fail "no job id in the submit result"

submit > "$tmp/second.out" 2> "$tmp/second.err" || fail "duplicate submit failed"
"$ts" stats -addr "$addr" > "$tmp/stats.out" 2> "$tmp/stats.err" || fail "stats failed"
# Two submissions, one job: the second coalesced or hit the cache.
grep -q '"submits": 2,' "$tmp/stats.out" && grep -q '"jobs_done": 1,' "$tmp/stats.out" ||
	fail "the duplicate submit was recomputed, not absorbed"

# double-pendulum has four parameters; the answer has one value per time sample.
"$ts" predict -addr "$addr" -job "$job" -params 0.5,-0.5,1.0,1.5 > "$tmp/predict.out" 2> "$tmp/predict.err" || fail "predict failed"
grep -q '"values"' "$tmp/predict.out" || fail "predict returned no values"

kill -TERM "$pid"
wait "$pid" || fail "the server exited non-zero on SIGTERM"
pid=
grep -q 'draining' "$tmp/serve.err" || fail "the server did not log \"draining\""
echo "tensorstore-smoke: ok ($addr, job $job)"
