#!/bin/sh
# tensorstore-smoke: the catalog commands, then the campaign server and its
# client commands, exercised as a binary (`make tensorstore-smoke`, and the
# CI serve job). Build once; over a scratch store put an ensemble, decompose
# it by HOSVD and by HOOI, read the result back with info, and check that a
# bad -rank, the removed -sketch flag and an imported cell whose square
# overflows make decompose exit non-zero, that import refuses a NaN cell
# and stores nothing, and that two puts with one -seed dump the same
# tensor. Then serve on a free port, submit a
# campaign, submit it again (must be absorbed, not recomputed), stats,
# submit with a pivot the system lacks (must be refused as
# invalid_request), predict, and SIGTERM must drain and exit 0. Run from
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
# A NaN cell is refused at import, and nothing is stored.
if printf 'i,j,k,value\n0,0,0,1.5\n1,1,1,NaN\n2,0,1,-0.5\n' |
	store import -name nan -shape 3,3,3 > "$tmp/import.out" 2> "$tmp/import.err"; then
	fail "import of a NaN cell exited 0"
fi
grep -q '^tensorstore: .*row 3' "$tmp/import.err" || fail "import of a NaN cell did not fail with a tensorstore: line naming its row"
store ls > "$tmp/ls.out" 2> "$tmp/ls.err" || fail "ls failed"
! grep -qw 'nan' "$tmp/ls.out" || fail "the refused NaN import is listed"
# A finite cell whose square overflows gets past import; TuckerCtx refuses
# its non-finite norm before any kernel runs, not stored with fit NaN.
printf 'i,j,k,value\n0,0,0,1e200\n2,0,1,-0.5\n' |
	store import -name huge -shape 3,3,3 > "$tmp/import.out" 2> "$tmp/import.err" || fail "import of 1e200 failed"
if store decompose -name huge -out bad -rank 2 > "$tmp/huge.out" 2> "$tmp/huge.err"; then
	fail "decompose of a 1e200 cell exited 0"
fi
grep -q '^tensorstore: ' "$tmp/huge.err" && ! grep -q '^stored ' "$tmp/huge.out" "$tmp/huge.err" ||
	fail "decompose of a 1e200 cell did not fail with a tensorstore: line alone"
# A seed samples the same simulations every time: two puts, one tensor.
for name in seed7a seed7b; do
	store put -name $name -res 4 -samples 3 -budget 20 -seed 7 > "$tmp/put.out" 2> "$tmp/put.err" ||
		fail "put -name $name -seed 7 failed"
	store dump -name $name > "$tmp/$name.dump" 2> "$tmp/dump.err" || fail "dump -name $name failed"
done
[ -s "$tmp/seed7a.dump" ] && cmp -s "$tmp/seed7a.dump" "$tmp/seed7b.dump" ||
	fail "two puts with -seed 7 dumped different tensors"

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

# A pivot the system lacks is refused at submit, not queued to fail later.
if "$ts" submit -addr "$addr" -tenant smoke -res 4 -samples 3 -rank 2 -pivot no-such-pivot \
	> "$tmp/badpivot.out" 2> "$tmp/badpivot.err"; then
	fail "submit -pivot no-such-pivot exited 0"
fi
grep -q '^tensorstore: .*invalid_request' "$tmp/badpivot.err" ||
	fail "submit -pivot no-such-pivot did not fail with a tensorstore: invalid_request line"

# double-pendulum has four parameters; the answer has one value per time sample.
"$ts" predict -addr "$addr" -job "$job" -params 0.5,-0.5,1.0,1.5 > "$tmp/predict.out" 2> "$tmp/predict.err" || fail "predict failed"
grep -q '"values"' "$tmp/predict.out" || fail "predict returned no values"

kill -TERM "$pid"
wait "$pid" || fail "the server exited non-zero on SIGTERM"
pid=
grep -q 'draining' "$tmp/serve.err" || fail "the server did not log \"draining\""
echo "tensorstore-smoke: ok ($addr, job $job)"
