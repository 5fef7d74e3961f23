#!/usr/bin/env bash
# End-to-end repository check: offline build, full test suite, and a
# smoke run of the CLI's observability surface on examples/fig1.mini.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== fmt =="
# Every workspace member, vendor/* included, must be rustfmt-clean.
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== test =="
cargo test -q

echo "== test: φ-placement, PST dominators and region collapse vs their oracles, 2000 cases =="
# The flat per-region table and the Theorem-9 path (PST placement =
# Cytron, regions examined = an independent count), the §6.3 dominator
# splice against Lengauer–Tarjan (in domtree::tests and, with incremental
# insertion, in cross_validation), the linear collapse_all against its
# quadratic predecessor, and the PST-vs-Cytron proptests.
PROPTEST_CASES=2000 cargo test -q --release -p pst-ssa --test proptest_phi
PROPTEST_CASES=2000 cargo test -q --release -p pst-ssa --lib -- pst_phi::tests domtree::tests
PROPTEST_CASES=2000 cargo test -q --release -p pst-core --lib collapse::tests
PROPTEST_CASES=2000 cargo test -q --release -p pst-integration --test cross_validation

echo "== test: the shared dominator kernel and reducibility witnesses vs their oracles, 2000 cases =="
# The iterative dominator routine against Lengauer–Tarjan, with a
# one-finger intersect that must fail that comparison, and the witness
# set of reducibility against the Dfs back edges Lengauer–Tarjan refutes.
PROPTEST_CASES=2000 cargo test -q --release -p pst-cfg --lib postorder::tests
PROPTEST_CASES=2000 cargo test -q --release -p pst-cfg --test proptest_cfg reducibility_matches_dominator_criterion

echo "== test: dataflow solvers vs the iterative oracle, 2000 cases =="
# PST elimination, QPG (forward and backward) and SEG against the
# iterative solver, and the derived sequence against the reducibility
# test.
PROPTEST_CASES=2000 cargo test -q --release -p pst-dataflow

echo "== test: pstbench (the benchmark's own checks) =="
# The benchmark is a workspace of its own; its self-tests prove that
# its metrics and gates can fail. Build output shares run.py's
# default target directory.
CARGO_TARGET_DIR=.bench_build \
    cargo test --release --offline --manifest-path pstbench/Cargo.toml

echo "== test: fault injection (checker soundness) =="
cargo test -q -p pst-verify --features fault-inject
# The CLI's crash-journal e2e needs an injected fault to crash on; the
# daemon's deadline/overload/drain/chaos e2e needs the injectable stall.
cargo test -q -p pst-cli --features fault-inject
cargo test -q -p pst-serve --features fault-inject

echo "== doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== smoke: pst regions =="
out=$(./target/release/pst regions examples/fig1.mini)
echo "$out" | grep -q "canonical regions" \
    || { echo "FAIL: regions output missing summary line"; exit 1; }

echo "== smoke: pst --metrics-json =="
metrics=$(mktemp)
trap 'rm -f "$metrics"' EXIT
./target/release/pst regions examples/fig1.mini --metrics-json "$metrics" >/dev/null

# The emitted JSON must parse and contain a cycle_equiv span with a
# nonzero duration plus the bracket-list counters. python3 doubles as
# an independent check that the hand-rolled emitter produces valid JSON.
python3 - "$metrics" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

def find_span(spans, name):
    for s in spans:
        if s["name"] == name:
            return s
        found = find_span(s["children"], name)
        if found:
            return found
    return None

span = find_span(report["spans"], "cycle_equiv")
assert span is not None, "no cycle_equiv span in metrics report"
assert span["nanos"] > 0, "cycle_equiv span has zero duration"
assert report["counters"]["brackets_pushed"] > 0, "no bracket counters"
assert report["counters"]["brackets_pushed"] == report["counters"]["brackets_popped"]
print("metrics OK: cycle_equiv span with",
      report["counters"]["brackets_pushed"], "brackets pushed")
EOF

echo "== smoke: pst --canonicalize =="
# Malformed edge list: unreachable node 6, infinite loop 1<->2, two sinks.
canon=$(printf '0->1 1->2 2->1 0->3 3->4 0->5 6->3\n' \
    | ./target/release/pst --canonicalize - --paranoid)
echo "$canon" | grep -q "pruned unreachable node" \
    || { echo "FAIL: canonicalize did not report the unreachable node"; exit 1; }
echo "$canon" | grep -q "virtual loop exit" \
    || { echo "FAIL: canonicalize did not report the infinite loop"; exit 1; }
echo "$canon" | grep -q "merged exit" \
    || { echo "FAIL: canonicalize did not report the merged exits"; exit 1; }
echo "$canon" | grep -q "cross-checked against the slow-bracket oracle" \
    || { echo "FAIL: canonicalize skipped the oracle cross-check"; exit 1; }
echo "$canon" | grep -q "paranoid: all 7 invariant checkers passed" \
    || { echo "FAIL: --paranoid did not run the checker battery"; exit 1; }
echo "canonicalize OK"

echo "== smoke: pst --canonicalize input bound =="
# Parsing allocates O(input bytes): naming node 4e9 is a parse error
# (exit 1), where creating every node up to it aborted the CLI (134).
set +e
huge_out=$(printf '0->4000000000\n' | ./target/release/pst --canonicalize - 2>&1)
code=$?
set -e
[ "$code" -eq 1 ] \
    || { echo "FAIL: a huge node number should exit 1, got $code"; exit 1; }
echo "$huge_out" | grep -q "parse error: node number 4000000000" \
    || { echo "FAIL: no parse error for a huge node number: $huge_out"; exit 1; }
echo "input bound OK"

echo "== smoke: pst fuzz (clean seeds, full checker battery) =="
# A fixed seed range through the whole pipeline with every pst-verify
# checker enabled must report zero violations and zero contained panics.
fuzzdir=$(mktemp -d)
trap 'rm -f "$metrics"; rm -rf "$fuzzdir"' EXIT
fuzz_out=$(./target/release/pst fuzz --seed-range 0..200 --budget-ms 2000 \
    --paranoid --out-dir "$fuzzdir") \
    || { echo "FAIL: clean fuzz run exited nonzero"; exit 1; }
echo "$fuzz_out" | grep -q "0 violations, 0 contained panics" \
    || { echo "FAIL: clean fuzz run reported failures: $fuzz_out"; exit 1; }
echo "fuzz clean OK"

echo "== smoke: pst fuzz --inject-fault (exit-code taxonomy) =="
# A deliberately injected fault must be caught by a checker (exit 3) and
# leave a minimized reproducer that re-runs through --canonicalize.
cargo build -q --release -p pst-cli --features fault-inject
set +e
./target/release/pst fuzz --seed-range 0..8 --inject-fault drop-phi-site \
    --out-dir "$fuzzdir/injected" >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 3 ] \
    || { echo "FAIL: injected fault should exit 3, got $code"; exit 1; }
repro=$(ls "$fuzzdir"/injected/*.edges 2>/dev/null | head -1)
[ -n "$repro" ] \
    || { echo "FAIL: injected fault left no minimized reproducer"; exit 1; }
./target/release/pst --canonicalize "$repro" >/dev/null \
    || { echo "FAIL: reproducer $repro does not re-run"; exit 1; }
echo "fault taxonomy OK ($(basename "$repro") reproduces)"

# The strong-control-dependence checkers must catch their own faults
# too: a spurious NTSCD dependence and a forged DOD witness each flag
# the pipeline (exit 3), proving the new oracles are not tautologies.
for fault in add-spurious-ntscd-dep forge-dod-witness; do
    set +e
    ./target/release/pst fuzz --seed-range 0..8 --inject-fault "$fault" \
        --out-dir "$fuzzdir/strong-$fault" >/dev/null 2>&1
    code=$?
    set -e
    [ "$code" -eq 3 ] \
        || { echo "FAIL: --inject-fault $fault should exit 3, got $code"; exit 1; }
done
echo "strong-CD fault taxonomy OK (ntscd and dod checkers fire)"

echo "== chaos: pst serve --inject-fault (daemon survives every fault class) =="
# The fault-inject daemon is its own chaos monkey: for every fault
# class, a 50-request mixed workload must yield structured envelopes
# only — dropped connections are reconnected, overload sheds are
# retried after the envelope's own backoff hint, and the daemon must
# survive to answer a final stats probe and exit 0 on shutdown.
for fault in panic slow drop-conn corrupt-snapshot; do
    python3 - "$fault" "$fuzzdir" <<'EOF'
import json, socket, subprocess, sys, time
fault, tmp = sys.argv[1], sys.argv[2]
cmd = ["./target/release/pst", "serve", "--listen", "127.0.0.1:0",
       "--workers", "2", "--inject-fault", fault]
if fault == "corrupt-snapshot":
    cmd += ["--cache-snapshot", f"{tmp}/chaos.snapshot", "--snapshot-every", "5"]
daemon = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
addr = daemon.stdout.readline().strip().rsplit(" ", 1)[1]
host, port = addr.rsplit(":", 1)

def connect():
    s = socket.create_connection((host, int(port)), timeout=10)
    s.settimeout(10)
    return s, s.makefile("r")

sock, reader = connect()
answered = 0
for i in range(50):
    src = ("fn f(n) { x = %d; while (n > 0) { n = n - 1; x = x + n; } "
           "return x; }" % i)
    method = ["pst", "control_regions", "ssa", "lint"][i % 4]
    req = (json.dumps({"id": i, "method": method, "source": src}) + "\n").encode()
    for attempt in range(8):
        try:
            sock.sendall(req)
            line = reader.readline()
        except OSError:
            line = ""
        if not line:
            # drop-conn chaos hung up mid-request: the daemon must still
            # be alive, and a fresh connection must be accepted.
            assert daemon.poll() is None, f"{fault}: daemon died"
            sock, reader = connect()
            continue
        reply = json.loads(line)  # every reply is a structured envelope
        assert reply.get("id") == i, (fault, reply)
        if reply.get("ok") is False and reply["error"]["code"] == "overloaded":
            time.sleep(reply["error"].get("retry_after_ms", 10) / 1000)
            continue
        answered += 1
        break
    else:
        raise AssertionError(f"{fault}: request {i} never answered")
assert answered == 50, f"{fault}: only {answered} of 50 answered"
assert daemon.poll() is None, f"{fault}: daemon died during the batch"
# An edge list naming node 4e9 is a structured analysis error: parsing
# once created every node up to it and the allocation aborted the
# daemon. Chaos may drop, shed or panic the request first; retry.
huge = b'{"id":98,"method":"pst","edges":"0->4000000000"}\n'
for attempt in range(8):
    try:
        sock.sendall(huge)
        line = reader.readline()
    except OSError:
        line = ""
    if not line:
        assert daemon.poll() is None, f"{fault}: daemon died on a huge node"
        sock, reader = connect()
        continue
    reply = json.loads(line)
    assert reply.get("id") == 98 and reply.get("ok") is False, (fault, reply)
    if reply["error"]["code"] == "analysis_error":
        break
    time.sleep(reply["error"].get("retry_after_ms", 0) / 1000)
else:
    raise AssertionError(f"{fault}: the huge node request never answered")
sock.sendall(b'{"id":99,"method":"stats"}\n')
stats = json.loads(reader.readline())
assert stats["ok"], (fault, stats)
if fault == "slow":
    # The slowlog must have captured the injected stalls and attributed
    # them to the inject phase, not to compute.
    sock.sendall(b'{"id":101,"method":"slowlog"}\n')
    slow = json.loads(reader.readline())
    assert slow["ok"], (fault, slow)
    stalls = [e for e in slow["result"]["entries"]
              if e["phases"]["inject_nanos"] >= 40_000_000]
    assert stalls, (fault, slow["result"]["entries"])
sock.sendall(b'{"id":100,"method":"shutdown"}\n')
json.loads(reader.readline())
assert daemon.wait(timeout=10) == 0, f"{fault}: unclean exit"
print(f"chaos OK: {fault} — 50/50 structured replies, daemon survived")
EOF
done

# Rebuild the release binary without the test-only feature so later
# consumers of target/release/pst get the production configuration.
cargo build -q --release -p pst-cli

echo "== smoke: pst lint (examples corpus, JSON schema) =="
# Every example must lint to parseable JSON with the documented shape;
# clean inputs exit 0, inputs with findings exit 5, anything else fails.
lintjson=$(mktemp)
trap 'rm -f "$metrics" "$lintjson"; rm -rf "$fuzzdir"' EXIT
for mini in examples/*.mini; do
    set +e
    ./target/release/pst lint "$mini" --json > "$lintjson"
    code=$?
    set -e
    { [ "$code" -eq 0 ] || [ "$code" -eq 5 ]; } \
        || { echo "FAIL: pst lint $mini exited $code"; exit 1; }
    python3 - "$lintjson" "$mini" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    reports = json.load(f)
assert isinstance(reports, list) and reports, "lint JSON must be a nonempty array"
for r in reports:
    assert r["input"].startswith(sys.argv[2]), r["input"]
    assert r["rules_run"], "no rules ran"
    for d in r["diagnostics"]:
        assert d["rule"].startswith("PST-"), d["rule"]
        assert d["severity"] in ("info", "warning", "error"), d["severity"]
        assert isinstance(d["message"], str) and d["message"]
EOF
    echo "lint OK: $mini (exit $code)"
done

echo "== smoke: pst lint exit-code taxonomy (injected defects) =="
# The curated defective fixture must trip the engine: exit exactly 5,
# with the documented rule IDs among the findings.
set +e
defect_out=$(./target/release/pst lint examples/defects.mini --json)
code=$?
set -e
[ "$code" -eq 5 ] \
    || { echo "FAIL: lint on defects.mini should exit 5, got $code"; exit 1; }
for rule in PST-S001 PST-C002 PST-C101 PST-D001 PST-D002; do
    echo "$defect_out" | grep -q "\"$rule\"" \
        || { echo "FAIL: defects.mini did not trip $rule"; exit 1; }
done
# --allow must silence a rule; --deny escalates without changing the exit.
allow_out=$(./target/release/pst lint examples/defects.mini --json \
    --allow PST-D001 --allow PST-D002 --allow PST-S001 --allow PST-S002 \
    --allow PST-C002 --allow PST-C101 || true)
if echo "$allow_out" | grep -q '"PST-D001"'; then
    echo "FAIL: --allow PST-D001 did not silence the rule"; exit 1
fi
echo "lint taxonomy OK"

echo "== smoke: pst lint --edges (strong control dependence rules) =="
# The canonical DOD digraph must trip both graph-side C1xx rules: the
# 1<->2 cycle only exits through a virtual loop-exit edge (PST-C102)
# and branch 0 decides the order of nodes 1 and 2 (PST-C103).
dodgraph="$fuzzdir/dod.edges"
printf '0->1\n0->2\n1->2\n2->1\n' > "$dodgraph"
set +e
graph_out=$(./target/release/pst lint --edges "$dodgraph" --json)
code=$?
set -e
[ "$code" -eq 5 ] \
    || { echo "FAIL: lint --edges on the DOD graph should exit 5, got $code"; exit 1; }
for rule in PST-C102 PST-C103; do
    echo "$graph_out" | grep -q "\"$rule\"" \
        || { echo "FAIL: the DOD graph did not trip $rule"; exit 1; }
done
echo "graph lint OK (PST-C102 and PST-C103 fire)"

echo "== smoke: pst lint --explain (rule cards) =="
for rule in PST-C101 PST-C102 PST-C103; do
    explain_out=$(./target/release/pst lint --explain "$rule") \
        || { echo "FAIL: pst lint --explain $rule exited nonzero"; exit 1; }
    echo "$explain_out" | grep -q "severity:" \
        || { echo "FAIL: --explain $rule printed no severity"; exit 1; }
    echo "$explain_out" | grep -q "fix:" \
        || { echo "FAIL: --explain $rule printed no fix"; exit 1; }
done
set +e
./target/release/pst lint --explain PST-X999 >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] \
    || { echo "FAIL: --explain on an unknown rule should exit 2, got $code"; exit 1; }
echo "explain OK (cards print, unknown rule is a usage error)"

workdir=$(mktemp -d)
trap 'rm -f "$metrics" "$lintjson"; rm -rf "$fuzzdir" "$workdir"' EXIT

echo "== gate: no unwrap/expect in the request path =="
# Belt-and-suspenders for the in-source clippy denies
# (#![deny(clippy::unwrap_used, clippy::expect_used)] in pst-cli and
# pst-serve): non-test code in either crate must not call .unwrap() or
# .expect(. Test modules sit at the bottom of each file behind
# #[cfg(test)], so everything before that marker is production code.
unwraps=$(for f in crates/cli/src/*.rs crates/serve/src/*.rs; do
    awk -v file="$f" '/#\[cfg\(test\)\]/{intest=1}
        intest==0 && /\.unwrap\(\)|\.expect\(/{print file":"FNR": "$0}' "$f"
done)
[ -z "$unwraps" ] \
    || { echo "FAIL: unwrap/expect in the request path:"; echo "$unwraps"; exit 1; }
echo "unwrap gate OK"

echo "== gate: one pipeline driver =="
# Every driver reads the stages units share from one
# pst_analysis::Analysis, which computes each at most once. Non-test
# code in the CLI, the serve daemon, the verifier and the lint engine
# must therefore not call a shared stage's constructor itself; the
# Analysis module (crates/analysis/src/analysis.rs) is the one place
# that does. Comment lines are skipped, and test modules sit behind
# #[cfg(test)] as in the unwrap gate above.
stages='ProgramStructureTree::build|ControlRegions::compute|collapse_all|place_phis_pst|QpgContext::new|StrongControlDeps::of_|Dod::compute'
stage_calls=$(for f in crates/cli/src/*.rs crates/serve/src/*.rs crates/verify/src/*.rs \
    crates/analysis/src/*.rs; do
    [ "$f" = crates/analysis/src/analysis.rs ] && continue
    awk -v file="$f" -v re="$stages" '/#\[cfg\(test\)\]/{intest=1}
        intest==0 && $0 !~ /^[ \t]*\/\// && $0 ~ re {print file":"FNR": "$0}' "$f"
done)
[ -z "$stage_calls" ] \
    || { echo "FAIL: stage computed outside pst_analysis::Analysis:"; echo "$stage_calls"; exit 1; }
echo "pipeline-driver gate OK"

echo "== smoke: pst serve (NDJSON round trip, cache hit, error envelope) =="
# Drive the daemon over stdin: the same pst query twice (second must be
# served from the session cache), one garbage line (must get a
# structured error envelope, not kill the daemon), then a clean
# shutdown. The metrics JSON must show the cache counters firing.
servemetrics="$workdir/serve_metrics.json"
servereplies="$workdir/serve_replies.ndjson"
printf '%s\n%s\n%s\nthis is not json\n%s\n' \
    '{"id":1,"method":"pst","source":"fn f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }"}' \
    '{"id":2,"method":"lint","source":"fn f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }"}' \
    '{"id":3,"method":"controldep","source":"fn f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }"}' \
    '{"id":4,"method":"shutdown"}' \
    | ./target/release/pst serve --metrics-json "$servemetrics" > "$servereplies" \
    || { echo "FAIL: serve daemon exited nonzero"; exit 1; }
python3 - "$servemetrics" "$servereplies" <<'EOF'
import json, sys
with open(sys.argv[2]) as f:
    replies = [json.loads(l) for l in f if l.strip()]
assert len(replies) == 5, replies
assert replies[0]["ok"] and not replies[0]["cached"], replies[0]
# Same source, different method: unit cache hit, stage recompute.
assert replies[1]["ok"] and replies[1]["unit"] == replies[0]["unit"], replies[1]
# Strong control dependence on the same unit: another cache hit; the
# while loop makes the NTSCD relation non-empty and the DOD search must
# come back empty-and-complete on a valid CFG.
assert replies[2]["ok"] and replies[2]["unit"] == replies[0]["unit"], replies[2]
cd = replies[2]["result"][0]
assert cd["ntscd_deps"] > 0, cd
assert cd["dod_witnesses"] == [] and cd["dod_complete"], cd
assert cd["strong_regions"] > 0 and cd["classic_deps"] >= 0, cd
assert not replies[3]["ok"] and replies[3]["error"]["code"] == "parse_error", replies[3]
assert replies[4]["ok"] and replies[4]["result"]["stopping"], replies[4]
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
assert counters["serve_requests"] == 5, counters
assert counters["serve_cache_miss"] == 1, counters
assert counters["serve_cache_hit"] == 2, counters
print("serve OK: unit", replies[0]["unit"], "answered, cached, and shut down")
EOF

echo "== smoke: pst serve --request-timeout-ms reaches into NTSCD =="
# NTSCD is quadratic: `controldep` on a function of 8,000 if/else
# statements takes several seconds. Under a 1 s timeout the request must
# answer deadline_exceeded within 1.5 s (margin for a busy machine), and
# the unit must stay cached: a `pst` request by unit id answers ok.
python3 - <<'EOF'
import json, subprocess, time
body = "".join(f"  if (n > {i}) {{ a = a + {i}; }} else {{ b = a; }}\n" for i in range(8000))
src = "fn f(n) {\n  a = 0;\n  b = 0;\n" + body + "  return a + b;\n}\n"
def daemon(*flags):
    return subprocess.Popen(["./target/release/pst", "serve", *flags],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
def ask(proc, request):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    started = time.perf_counter()
    reply = json.loads(proc.stdout.readline())
    return reply, time.perf_counter() - started
# The unit id is the content hash; learn it from a daemon without a timeout.
probe = daemon()
unit = ask(probe, {"id": 0, "method": "pst", "source": src})[0]["unit"]
probe.stdin.close()
assert probe.wait(timeout=30) == 0
timed = daemon("--request-timeout-ms", "1000")
reply, seconds = ask(timed, {"id": 1, "method": "controldep", "source": src})
assert not reply["ok"] and reply["error"]["code"] == "deadline_exceeded", reply
assert seconds < 1.5, f"deadline_exceeded after {seconds:.2f} s"
reply, _ = ask(timed, {"id": 2, "method": "pst", "unit": unit})
assert reply["ok"] and reply["unit"] == unit, reply
timed.stdin.close()
assert timed.wait(timeout=30) == 0
print(f"deadline OK: controldep cut at {seconds:.2f} s; unit {unit} still resident")
EOF

echo "== smoke: pst serve --cache-snapshot (crash-safe warm restart) =="
# First life computes a unit and drains (which flushes a snapshot);
# the second life's very first repeat query must be a cache hit.
snap="$workdir/cache.snapshot"
printf '%s\n%s\n' \
    '{"id":1,"method":"pst","source":"fn g(n) { return n; }"}' \
    '{"id":2,"method":"drain"}' \
    | ./target/release/pst serve --cache-snapshot "$snap" >/dev/null \
    || { echo "FAIL: snapshot-writing serve run exited nonzero"; exit 1; }
[ -s "$snap" ] || { echo "FAIL: no snapshot written on drain"; exit 1; }
warm=$(printf '%s\n%s\n' \
    '{"id":1,"method":"pst","source":"fn g(n) { return n; }"}' \
    '{"id":2,"method":"shutdown"}' \
    | ./target/release/pst serve --cache-snapshot "$snap") \
    || { echo "FAIL: warm-restart serve run exited nonzero"; exit 1; }
echo "$warm" | head -1 | grep -q '"cached":true' \
    || { echo "FAIL: warm restart did not hit the restored cache"; exit 1; }
# A truncated snapshot is a logged cold start, never a dead daemon.
head -c 20 "$snap" > "$snap.trunc" && mv "$snap.trunc" "$snap"
cold=$(printf '%s\n%s\n' \
    '{"id":1,"method":"pst","source":"fn g(n) { return n; }"}' \
    '{"id":2,"method":"shutdown"}' \
    | ./target/release/pst serve --cache-snapshot "$snap") \
    || { echo "FAIL: serve died on a truncated snapshot"; exit 1; }
echo "$cold" | head -1 | grep -q '"cached":false' \
    || { echo "FAIL: truncated snapshot should mean a cold start"; exit 1; }
echo "snapshot OK: warm restart hits, truncation degrades to cold start"

echo "== smoke: pst serve live telemetry (metrics, exposition, slowlog, pst top) =="
# A TCP daemon with a 100ms window and an HTTP scrape endpoint: the
# metrics RPC must report per-method windowed series, the text
# exposition must be well-typed with monotone lifetime counters across
# two scrapes, the windowed quantiles must decay once traffic stops,
# the slowlog must come back ordered and phase-attributed, and
# `pst top --once --format json` must snapshot the same daemon.
python3 - <<'EOF'
import json, socket, subprocess, time
cmd = ["./target/release/pst", "serve", "--listen", "127.0.0.1:0",
       "--metrics-listen", "127.0.0.1:0", "--metrics-window-ms", "100",
       "--workers", "2"]
daemon = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
addr = daemon.stdout.readline().strip().rsplit(" ", 1)[1]
maddr = daemon.stdout.readline().strip().rsplit(" ", 1)[1]
host, port = addr.rsplit(":", 1)
mhost, mport = maddr.rsplit(":", 1)

sock = socket.create_connection((host, int(port)), timeout=10)
sock.settimeout(10)
reader = sock.makefile("r")
def ask(obj):
    sock.sendall((json.dumps(obj) + "\n").encode())
    return json.loads(reader.readline())

for i in range(6):
    rep = ask({"id": i, "method": "pst",
               "source": "fn f(n) { s = 0; while (n > 0) "
                         "{ s = s + n; n = n - 1; } return s; }"})
    assert rep["ok"], rep

m1 = ask({"id": 90, "method": "metrics"})
assert m1["ok"], m1
pst1 = m1["result"]["methods"]["pst"]
assert pst1["requests_total"] == 6, pst1
assert pst1["window"]["requests"] == 6, pst1
assert pst1["window"]["cache_hits"] == 5, pst1
assert pst1["window"]["p99_nanos"] > 0, pst1

def scrape():
    ms = socket.create_connection((mhost, int(mport)), timeout=10)
    ms.settimeout(10)
    ms.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
    data = b""
    while True:
        chunk = ms.recv(65536)
        if not chunk:
            break
        data += chunk
    ms.close()
    head, _, body = data.decode().partition("\r\n\r\n")
    assert head.startswith("HTTP/1.0 200 OK"), head
    assert "text/plain; version=0.0.4" in head, head
    return body

def parse_expo(body):
    types, samples = {}, {}
    for line in body.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
        elif line:
            key, _, value = line.rpartition(" ")
            samples[key] = int(value)
    return types, samples

t1, s1 = parse_expo(scrape())
for fam, kind in [("pst_serve_requests_total", "counter"),
                  ("pst_serve_errors_total", "counter"),
                  ("pst_serve_cache_hits_total", "counter"),
                  ("pst_serve_latency_nanos", "summary"),
                  ("pst_serve_shard_requests_total", "counter"),
                  ("pst_serve_shed_total", "counter"),
                  ("pst_serve_conn_errors_total", "counter"),
                  ("pst_serve_in_flight", "gauge"),
                  ("pst_serve_workers", "gauge"),
                  ("pst_serve_draining", "gauge")]:
    assert t1.get(fam) == kind, (fam, t1)

rep = ask({"id": 91, "method": "pst", "source": "fn g(n) { return n; }"})
assert rep["ok"], rep
_, s2 = parse_expo(scrape())
monotone = [k for k in s1
            if k.split("{")[0].endswith(("_total", "_sum", "_count"))]
assert monotone, s1
for k in monotone:
    assert s2.get(k, 0) >= s1[k], (k, s1[k], s2.get(k))
key = 'pst_serve_requests_total{method="pst"}'
assert s2[key] == s1[key] + 1 == 7, (s1[key], s2[key])

# Quantiles come from the windowed ring: once traffic stops and the
# ring's horizon passes, the window empties while totals persist.
time.sleep(1.2)
m2 = ask({"id": 92, "method": "metrics"})
pst2 = m2["result"]["methods"]["pst"]
assert pst2["requests_total"] == 7, pst2
assert pst2["window"]["requests"] == 0, pst2
assert pst2["window"]["p99_nanos"] == 0, pst2

sl = ask({"id": 93, "method": "slowlog"})
assert sl["ok"], sl
entries = sl["result"]["entries"]
assert entries, sl
totals = [e["total_nanos"] for e in entries]
assert totals == sorted(totals, reverse=True), totals
for e in entries:
    assert e["total_nanos"] >= e["phases"]["compute_nanos"], e

top = subprocess.run(["./target/release/pst", "top", "--addr", addr,
                      "--once", "--format", "json"],
                     capture_output=True, text=True, timeout=30)
assert top.returncode == 0, top.stderr
snap = json.loads(top.stdout)
assert snap["metrics"]["methods"]["pst"]["requests_total"] == 7, snap
assert snap["stats"]["workers"] == 2, snap

ask({"id": 99, "method": "shutdown"})
assert daemon.wait(timeout=10) == 0, "unclean exit"
print("live telemetry OK: typed+monotone exposition, window decay,",
      "ordered slowlog,", len(entries), "entries, top snapshot")
EOF

echo "== gate: every counter/histogram name is documented =="
# Metric names drift silently: a new counter!() lands, the docs don't.
# Grep every counter!/histogram! literal out of non-test source (cut at
# the first test-module attribute, strip comment lines so doc examples
# don't count) and require each name to appear in docs/OBSERVABILITY.md.
python3 - <<'EOF'
import re, pathlib
names = {}
for p in sorted(pathlib.Path("crates").glob("*/src/**/*.rs")):
    text = p.read_text()
    m = re.search(r'#\[cfg\([^)]*test', text)
    if m:
        text = text[:m.start()]
    code = "\n".join(l for l in text.splitlines()
                     if not l.lstrip().startswith("//"))
    for m in re.finditer(r'(?:counter|histogram)!\(\s*"([a-z0-9_]+)"', code):
        names.setdefault(m.group(1), str(p))
doc = pathlib.Path("docs/OBSERVABILITY.md").read_text()
missing = {n: f for n, f in names.items() if n not in doc}
assert not missing, \
    f"metric names missing from docs/OBSERVABILITY.md: {missing}"
print(f"metric-name gate OK: {len(names)} names, all documented")
EOF

echo "== smoke: structured event journal (JSONL schema) =="
# A journaled, seeded run must emit a well-formed JSONL stream bracketed
# by run_start/run_end, with one trace id and contiguous sequence numbers.
PST_TRACE_SEED=1 ./target/release/pst regions examples/fig1.mini \
    --journal "$workdir/j1.jsonl" >/dev/null
PST_TRACE_SEED=2 ./target/release/pst regions examples/fig1.mini \
    --journal "$workdir/j2.jsonl" >/dev/null
python3 - "$workdir/j1.jsonl" <<'EOF'
import json, sys
records = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert records, "empty journal"
for i, r in enumerate(records):
    assert r["seq"] == i, (i, r)
    assert r["trace"] == records[0]["trace"], r
    assert r["level"] in ("info", "warn", "error"), r
    assert r["type"] in ("run_start", "run_end", "unit_summary",
                         "lint_finding", "fuzz_crash", "slow_request"), r
assert records[0]["type"] == "run_start", records[0]
assert records[0]["data"]["command"] == "regions", records[0]
assert records[-1]["type"] == "run_end", records[-1]
assert records[-1]["data"]["exit_code"] == 0, records[-1]
units = [r for r in records if r["type"] == "unit_summary"]
assert units, "no per-function unit summaries journaled"
print("journal OK:", len(records), "records,", len(units), "unit summaries")
EOF

echo "== smoke: pst obs (fleet aggregation over two journals) =="
./target/release/pst obs "$workdir/j1.jsonl" "$workdir/j2.jsonl" \
    --format json > "$workdir/fleet.json"
python3 - "$workdir/fleet.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    fleet = json.load(f)
assert len(fleet["traces"]) == 2, fleet["traces"]
assert fleet["event_counts"]["run_start"] == 2, fleet["event_counts"]
assert fleet["event_counts"]["run_end"] == 2, fleet["event_counts"]
top = fleet["top_units"]
assert top, "no aggregated units"
assert all(a["nanos"] >= b["nanos"] for a, b in zip(top, top[1:])), top
# Both runs analyzed the same program, so every merged count is even.
assert all(u["count"] % 2 == 0 for u in top), top
print("obs OK:", len(top), "units over", len(fleet["traces"]), "traces")
EOF

echo "== verify: all checks passed =="
