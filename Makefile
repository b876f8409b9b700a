GO ?= go

.PHONY: check race bench benchcmp test build vet chaos totem-soak fuzz-smoke slo slo-smoke mp-smoke dr-smoke fd-smoke lf-smoke

## check: vet + build + full test suite (the tier-1 gate)
check: vet build test

## vet: go vet plus a gofmt gate (fails listing any unformatted file)
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race-detect the concurrency-heavy layers — the executor queue
## the ring's protocol loop hands deliveries to, the CDR intern table every decoder shares, the ORB and the
## deterministic-execution context (whose objects replication builds per
## execution), totem, replication, the transport
## conformance suite on both backends (netsim and loopback UDP), a
## three-node deployment of StartNode stacks over loopback UDP (mproc), and
## the two stores every node shares (WAL and DR store) — then the
## fault notifier and suspicion machine, the Replication Manager, domain
## assembly and the SLO harness — then the GIOP and IIOP codecs and
## connections, object references, the interceptor chain, the naming
## service, the IDL compiler, the service layer, the ftsh console and the
## root facade. Each set runs after the one before: the
## CPU-heavy SLO harness sharing two cores with totem's lossy-network tests
## pushes those past their delivery deadlines.
race:
	$(GO) test -race ./internal/fifo ./internal/cdr ./internal/orb ./internal/nondet ./internal/totem ./internal/replication ./internal/netsim ./internal/transport/... ./internal/mproc ./internal/wal ./internal/drstore
	$(GO) test -race ./internal/fault ./internal/ftcorba ./internal/core ./internal/slo
	$(GO) test -race ./internal/giop ./internal/iiop ./internal/ior ./internal/interception ./internal/naming ./internal/idl ./internal/service ./internal/shell .

## chaos: the full seeded fault-injection sweep under the race detector —
## single-ring (7 seeds x 3 replication styles = 21 schedules) plus the
## sharded sweep (R=2, shard-partition episodes included) and the targeted
## coalescing/recovery fault tests
chaos:
	CHAOS_SEEDS=7 $(GO) test -race -count=1 ./internal/chaos

## totem-soak: repeat the totem tests that ride loss, token retransmission,
## parking, a lost install, the data-before-token receive order, the
## withdrawal of queued messages, ring formation, a crash, a partition and
## its remerge, EVS recovery across a partition, and the order in which the
## consumer gets views and deliveries 50 times — a one-in-twenty flake
## there hides behind the single run of the tier-1 gate — then 20 times the
## replication test that holds a servant for five token timeouts while
## another group on the ring must keep completing calls
totem-soak:
	$(GO) test -count=50 -run 'Coalesced|Lossy|Park|TwoLostHops|LostInstall|QueuedData|Withdraw|RingFormation|CrashReforms|PartitionBoth|EVSSamePrefix|StreamMixes' ./internal/totem
	$(GO) test -count=20 -run 'SlowServantDoesNotStallRing' ./internal/replication

## fuzz-smoke: fuzz the replication wire decoder (every message kind,
## including a checkpoint's executed-key window) for 15 s; minimization is
## capped because shrinking inputs grown from the 12 KB window seed would
## otherwise take the whole budget. Then fuzz the storage decoder (segment
## open over arbitrary file bytes) for 10 s, then the totem wire decoder
## (every packet kind; copying, owned and reused-storage decodes must agree)
## for 10 s, then the GIOP frame decoder (copying and zero-copy decodes must
## agree) and the CDR value-sequence decoder for 10 s each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWire$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/replication
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSegment$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePacket$$' -fuzztime 10s ./internal/totem
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 10s ./internal/giop
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeValues$$' -fuzztime 10s ./internal/cdr

## bench: snapshot the PR2 hot-path + PR5 sharded-transport benchmarks,
## the full-profile SLO workload percentiles (~10^6-client population over
## 1024 groups plus a 6-episode chaos phase, ~75s), the PR7 multi-process
## loopback-UDP throughput cells, the PR8 disaster-recovery RPO/RTO
## measurement, the PR9 fail-detection sweep (storm false evictions,
## confirmed-crash detection latency), and the PR10 leader-follower
## latency cell (leased read, direct-lane write vs ACTIVE, leader-crash
## blackout) into BENCH_pr10.json
bench:
	$(GO) test -run '^$$' -bench 'PR2|PR5' -benchmem -timeout 30m ./... | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_pr10.json
	$(GO) run ./cmd/ftbench -e slo -seed 1 -json BENCH_pr10.json
	$(GO) run ./cmd/ftbench -e e2mp -json BENCH_pr10.json
	$(GO) run ./cmd/ftbench -e dr -json BENCH_pr10.json
	$(GO) run ./cmd/ftbench -e fd -json BENCH_pr10.json
	$(GO) run ./cmd/ftbench -e lf -json BENCH_pr10.json

## benchcmp: fail on adverse drift vs the frozen baselines, merged
## first-match-wins — BENCH_pr10_base.json first (the leader-follower
## records: read_p99_us gates with a wide µs-scale threshold, blackout_ms
## against the deterministic lease fence; plus the PR5 single-ring
## aggregate cell re-frozen for the idle-detection fix — the ring now
## rotates ~2x faster instead of being wrongly throttled, which shifts
## its allocs/op profile), then BENCH_pr9_base.json (the
## fd detection records: false_evictions gates at zero, detect_ms with a
## wide threshold; plus the SLO percentiles re-frozen for the adaptive
## detector's confirm-grace blackout shift), BENCH_pr8_base.json (DR
## RPO/RTO: rpo_ops and eo_violations gate at zero, rto_ms with a wide
## threshold), BENCH_pr2.json and BENCH_pr5.json for the
## micro-benchmarks, BENCH_pr6_base.json for the remaining SLO metrics,
## and BENCH_pr7_base.json for the multi-process throughput cells (ops_s
## gates with a wide single-core-noise threshold; vs_baseline is
## informational)
benchcmp:
	$(GO) run ./cmd/benchcmp -threshold 20 BENCH_pr10_base.json,BENCH_pr9_base.json,BENCH_pr8_base.json,BENCH_pr2.json,BENCH_pr5.json,BENCH_pr6_base.json,BENCH_pr7_base.json BENCH_pr10.json

## slo: re-run just the SLO evaluation, upserting into BENCH_pr10.json
slo:
	$(GO) run ./cmd/ftbench -e slo -seed 1 -json BENCH_pr10.json

## slo-smoke: seconds-long tail-latency sanity gate (two seeds); fails if
## the calm-phase p999 blows past 500ms
slo-smoke:
	$(GO) run ./cmd/ftbench -e slo -smoke -seed 1 -p999max 500ms
	$(GO) run ./cmd/ftbench -e slo -smoke -seed 2 -p999max 500ms

## dr-smoke: seconds-long disaster-recovery smoke — kills the primary
## domain mid-load, promotes the warm standby, and fails on any lost
## acknowledged operation (RPO > 0) or exactly-once violation
dr-smoke:
	$(GO) run ./cmd/ftbench -e dr -smoke

## fd-smoke: seconds-long fail-detection smoke — one provisioning-storm
## cell with a real mid-storm crash; fails on any false eviction or an
## unconfirmed crash
fd-smoke:
	$(GO) run ./cmd/ftbench -e fd -smoke

## lf-smoke: seconds-long leader-follower smoke — the leased-read /
## direct-lane-write latency cell plus the leader-crash blackout
## measurement at smoke scale, so CI exercises the LF fast path, the order
## stream, and the mid-stream handover end-to-end without the full run
lf-smoke:
	$(GO) run ./cmd/ftbench -e lf -smoke

## mp-smoke: seconds-long multi-process deployment smoke — every e2mp cell
## spawns real replica-node child processes with ring traffic on loopback
## UDP, so CI exercises spawn/readiness/teardown and the UDP backend
## end-to-end without the full measurement run
mp-smoke:
	$(GO) run ./cmd/ftbench -e e2mp -smoke
