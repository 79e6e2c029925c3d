# Tier-1 verification gate: everything here must pass before a change
# lands. `make check` is what CI (and ROADMAP.md) means by tier-1.
GO ?= go

.PHONY: check tier1 pins sim-clock rig-deps importers reach footprint vet build examples test race race-regress fuzz-smoke exp-diff bench bench-compare bench-pairs bench-test bench-server bench-all scaling loc fmt fmt-check

check: fmt-check pins sim-clock rig-deps importers reach footprint vet build examples bench-test race

# tier1 is the replication-aware spelling of the gate: the full -race
# suite includes the 3-node kill-the-primary failover test
# (internal/repl) and the applier replay/snapshot/promote tests
# (internal/engine), so "tier1 green" means acked commits survive a
# leader crash under the race detector.
tier1: check test race-regress

# gofmt cleanliness is part of the gate: a dirty tree means a tool or a
# hand-edit skipped formatting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The pin → latch → attach → … → unlatch → unpin protocol of a buffered
# page is spelled out in internal/engine/pageref.go and nowhere else in
# the engine: a page byte changed outside the exclusive frame latch never
# reaches flash (DESIGN.md "Page translation and the flushed image"), so
# the protocol is kept where one file can be read for it. This target
# fails when another non-test file of the package pins, unpins, latches
# or attaches by hand. The exceptions, and why:
#   store.go: page.Attach only — the flush side. The pool has
#     claimed the frame and holds its latch when it calls Flush, and the
#     restart's mapping rebuild (recoverMapping) attaches a private copy
#     of a scanned flash page, not a frame.
PINS_FILES = ls internal/engine/*.go | grep -v '_test\.go$$\|/pageref\.go$$'
PINS_IDIOM = page\.Attach(\|pool\.\(Get\|GetNew\|Unpin\)(\|\.\(Try\)\?R\?Latch()\|\.R\?Unlatch()
PINS_ALLOW = ^internal/engine/store\.go:[0-9]*:.*page\.Attach(
pins:
	@out="$$(grep -n '$(PINS_IDIOM)' $$($(PINS_FILES)) | grep -v '$(PINS_ALLOW)')"; \
	if [ -n "$$out" ]; then \
		echo "page pinned, latched or attached by hand (use pageRef, internal/engine/pageref.go):"; \
		echo "$$out"; exit 1; fi

# A worker's simulated clock is advanced by a queue only inside
# internal/sim (Timeline.Acquire's per-chip horizons): that is the one
# queueing structure PAPER.md's substitution table promises, and the one
# ROADMAP item 4 audits. Outside it, Worker.SetNow may only align a
# clock with another worker's — a cleaner worker started at its
# trigger's time (engine/db.go, buffer/buffer.go), terminals started at
# the loader's (experiments/rig.go, examples/banking). This target fails
# on any other call in the root module's non-test Go, which is how a
# second horizon (PR 22 deleted one, workload's latchSim) would come
# back. bench/ is its own module and starts its workers at
# Timeline.Horizon().
SIM_CLOCK_ALLOW = ^\(internal/engine/db\|internal/buffer/buffer\|internal/experiments/rig\|examples/banking/main\)\.go:[0-9]*:.*\.SetNow([a-z]*\.Now())
sim-clock:
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' 'SetNow(' internal cmd examples \
		| grep -v '^internal/sim/' | grep -v '$(SIM_CLOCK_ALLOW)')"; \
	if [ -n "$$out" ]; then \
		echo "a simulated clock set outside internal/sim (only <worker>.SetNow(<other>.Now()) at the listed sites is allowed):"; \
		echo "$$out"; exit 1; fi

# The paper rig links no network stack: every `ipabench -exp` id is
# simulated time from a fixed seed, and what runs on real timers and
# sockets is measured by bench/.
rig-deps:
	@! $(GO) list -deps ./internal/experiments | grep -x 'ipa/internal/\(repl\|server\|client\|wire\)'

# Every package under internal/ is linked by a program (a command or an
# example): a package only tests reach is a second copy of something or
# dead code. bench/ is its own module and imports nothing the programs
# do not, so it is not consulted. This target names each orphan.
importers:
	@deps="$$($(GO) list -deps ./cmd/... ./examples/...)" || exit 1; \
	pkgs="$$($(GO) list ./internal/...)" || exit 1; \
	out="$$(echo "$$pkgs" | grep -vxF "$$deps")"; \
	if [ -n "$$out" ]; then \
		echo "package(s) under internal/ that no program imports:"; \
		echo "$$out"; exit 1; fi

# The same rule down to the function: every func declared in a non-test
# file under internal/ is linked by a program, or reach-allow.txt names it
# with a reason. The roots are the linker's reachability dump
# (-ldflags=-dumpdep, inlining off so that no call disappears into its
# caller) of every command and example and of bench/, which is a program
# too and the only caller of some client and cluster code. A generic
# instantiation counts for its declaration, and a value method for its
# pointer wrapper. The target fails on an unreached function the list
# does not name, on a list entry that is reached or no longer declared,
# and on an entry without a reason.
REACH_ALLOW = reach-allow.txt
reach:
	@dump() { $(GO) build -o /dev/null -gcflags=all=-l -ldflags=-dumpdep "$$@" 2>&1 || { echo "reach: $$* does not build" >&2; return 1; }; }; \
	roots="$$($(GO) list ./cmd/... ./examples/...)" || exit 1; \
	deps="$$(for p in $$roots; do dump $$p || exit 1; done; cd bench && dump .)" || exit 1; \
	reached="$$(echo "$$deps" | sed 's/ -> /\n/' | grep '^ipa/internal/' \
		| sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' -e 's/ <.*>$$//' -e 's#^ipa/internal/##' | sort -u)"; \
	reached="$$(echo "$$reached"; echo "$$reached" | sed -n 's/^\([^.]*\)\.(\*\([^)]*\))\./\1.\2./p')"; \
	declared="$$(grep -r --include='*.go' --exclude='*_test.go' '^func ' internal | sed -n \
		-e 's#^internal/\([^/]*\)/[^:]*:func (\([A-Za-z0-9_]* \)\?\*\([A-Za-z0-9_]*\)[^)]*) \([A-Za-z0-9_]*\).*#\1.(*\3).\4#p;t' \
		-e 's#^internal/\([^/]*\)/[^:]*:func (\([A-Za-z0-9_]* \)\?\([A-Za-z0-9_]*\)[^)]*) \([A-Za-z0-9_]*\).*#\1.\3.\4#p;t' \
		-e 's#^internal/\([^/]*\)/[^:]*:func \([A-Za-z0-9_]*\).*#\1.\2#p' | grep -v '\.init$$' | sort -u)"; \
	allow="$$(grep -v '^#' $(REACH_ALLOW) | awk 'NF { print $$1 }')"; \
	unreached="$$(echo "$$declared" | grep -vxF "$$reached")"; \
	new="$$(echo "$$unreached" | grep -vxF "$$allow")"; \
	stale="$$(echo "$$allow" | grep -vxF "$$unreached")"; \
	bare="$$(grep -v '^#' $(REACH_ALLOW) | awk 'NF == 1')"; \
	if [ -n "$$new" ]; then echo "function(s) under internal/ that no program links (call, delete, move into a test, or list in $(REACH_ALLOW)):"; echo "$$new"; fi; \
	if [ -n "$$stale" ]; then echo "$(REACH_ALLOW) entries that a program links or that are no longer declared:"; echo "$$stale"; fi; \
	if [ -n "$$bare" ]; then echo "$(REACH_ALLOW) entries without a reason:"; echo "$$bare"; fi; \
	[ -z "$$new$$stale$$bare" ]

# Memory follows the data, not the configured capacity: an idle device
# holds no page bytes, an erase gives a block's back, an empty pool holds
# one pointer a frame, and the served stack — sized for 64 MiB of flash
# and 131 072 frames — starts in a few MiB. A change that makes capacity
# cost memory again (a slab in flash.New, a header loop in buffer.New, a
# recovery scan that touches erased pages) fails one of these four. Block
# bytes live outside the Go heap (internal/flash/blockmem_mmap.go), so
# HeapAlloc no longer sees them: MappedBlocks holds the mapped-byte gauge
# to the blocks programmed and back to zero once the Array is collected,
# and OffHeap fails if programming a 64 MiB device grows the heap by a
# MiB. Both skip under -race, where the buffers are heap slices.
# VersionStoreFootprint: once a snapshot that pinned 100 000 MVCC
# before-images ends, one reaper pass leaves no version live and less
# than 1 MiB of image buffers on the store's bounded free lists.
# RetainedBytesPerRecord: a small update record costs the log at most
# 40 B once its segment is packed (80 with a 64-byte slot per record),
# and Stats.RetainedBytes matches the heap. ServedTPCBLogBytesKept: a
# served TPC-B transaction costs each member's log at most 250 B (568
# with a slot per record); a served member never checkpoints, so that
# is what it gains per commit. ScanPageFootprint: a SNAPSCAN of 1 MB and
# of 4 MB of rows, page by page, keeps the session's reply buffer within
# one 32 KiB page and allocates on the server the same bytes per page
# for both tables: a reply that held the whole table would grow the
# buffer to the table's size; and, since the session keeps its scan
# buffer, about 0 B a page. PoolReusesUnboundFrames: a frame unbound by a
# failed load or by Drop is the next one bound, so a failed Get then
# GetNew of one page costs one frame. ServedFollowerFramesMatchLeader: a
# follower that replayed a TPC-B load holds one frame per leader heap
# page, and missed no page its flash does not hold (a replay that first
# tried to fetch such a page held two). AppendAckAllocatesNothing: a
# heartbeat's ack is encoded into the session's reply buffer.
# ReadReplyAllocs: a client read costs one allocation, its reply
# payload; the row is decoded in place, not copied out of it. Since no
# GC runs in a served benchmark phase, a copy per row read shows in the
# peak. ReleasedTPCBTransactionAllocs: an engine TPC-B transaction whose
# caller releases its Tx allocates nothing, the next Begin draws the
# released handle back (1 without Release: the Tx).
# ServedTPCBTransactionAllocs: the same transaction pipelined through a
# session allocates no more than that, so the session releases each Tx
# it ends. Both skip under -race, where sync.Pool drops handles.
footprint:
	$(GO) test -count=1 -run 'IdleDevice|EraseReleases|LazyFrames|MemberFootprint|MappedBlocks|OffHeap|VersionStoreFootprint|RetainedBytesPerRecord|ServedTPCBLogBytesKept|ScanPageFootprint|PoolReusesUnboundFrames|ServedFollowerFramesMatchLeader|AppendAckAllocatesNothing|ReadReplyAllocs|ReleasedTPCBTransactionAllocs|ServedTPCBTransactionAllocs' \
		./internal/flash ./internal/buffer ./internal/repl ./internal/engine ./internal/wal ./internal/server ./internal/client

# bench/ is a module of its own that compiles against internal/client,
# internal/server and internal/wire; `./...` here does not reach it, so
# it is vetted too — an exported-API slip fails the gate, not the
# regression driver.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

build:
	$(GO) build ./...

# Every example runs to its end and checks what it printed: a wrong
# state exits non-zero (log.Fatal). examples/recovery is the one program
# that cuts the power and restarts. Together they take about two seconds.
examples:
	@for d in examples/*/; do $(GO) run ./$$d > /dev/null || { echo "$$d failed"; exit 1; }; done

test:
	$(GO) test ./...

# The engine is fine-grained concurrent; the race detector is part of
# the gate, not an optional extra.
race:
	$(GO) test -race ./...

# Regressions for races that one pass of `go test -race` rarely meets,
# repeated until it does. TestYCSBMixes: a B+tree writer changing a
# node page while the cleaner's flush diffs it (failed most runs before
# the tree writers took frame latches). TestAddFieldLostUpdate:
# eight goroutines adding to one row through the single-pass field
# update. internal/buffer's Concurrent tests: getters waiting on a load
# whose done-channel only the first waiter creates, the shard stress
# around them, and hits that take no mutex racing every path that fences
# a frame to rebind it (TestConcurrentLockFreePins). TestPageTable: the flat page translation table read,
# swapped and compare-and-swapped while it grows. TestFlushedImage: after
# every flush storage equals the frame — the property a page write
# outside Frame.Latch breaks — under the follower's applier
# (TestFlushedImageApplier) and under concurrent TPC-B and key-value
# terminals (TestFlushedImageWorkloads; its crash-recovery leg,
# TestCrashAtEveryStepFieldUpdates, is deterministic and runs in `test`).
# TestConcurrentNoWaitLocking, no -race but 200 times: an insert handed a
# slot that a transaction still rolling back had freed but kept locked
# (failed ~3 % of runs before Table.insertInto skipped such a page).
# The commit path's shared structures: the open-addressing lock table
# against a map model and under concurrent acquire/release
# (TestLockTable), the striped active-transaction table as the fuzzy
# checkpoint reads it (TestCheckpointSeesEveryStripe), and group commit's
# lock-free and leader paths racing (TestGroupFlush: every call counted
# once, the durable horizon never past the published one).
# TestOLCDescentStress: OLC lookups routing through decoded copies of
# internal nodes, with neither pin nor latch, while a writer splits them
# and a 24-frame pool evicts and reloads them under the readers.
# TestRecycledImagesAreNotTorn: MVCC snapshot reads and scans while the
# reaper recycles version entries whose image buffers writers refill; a
# reader handed a store buffer instead of its own copy sees it change.
# TestConcurrentPackingReadsBackExactly: log appenders, Get/Scan/ReadFrom
# readers, a truncator and the packing of cold segments, every record
# read compared byte for byte; a segment packed before the published
# horizon passed it fails it.
# TestRecycledTxUnderSnapshotScans: sessions end transactions on every
# path (commit, abort, lock conflict, dropped connection) and release
# their engine.Tx while snapshots scan; a handle released twice or while
# in use is drawn by two transactions at once.
race-regress:
	$(GO) test -race -count=20 -run 'TestYCSBMixes' ./internal/workload
	$(GO) test -race -count=10 -run 'TestAddFieldLostUpdate' ./internal/engine
	$(GO) test -race -count=5 -run 'TestLockTable|TestCheckpointSeesEveryStripe' ./internal/engine
	$(GO) test -race -count=10 -run 'TestGroupFlush' ./internal/wal
	$(GO) test -race -count=5 -run 'TestConcurrentPackingReadsBackExactly' ./internal/wal
	$(GO) test -race -count=10 -run 'Concurrent' ./internal/buffer
	$(GO) test -race -count=10 -run 'TestPageTable' ./internal/core
	$(GO) test -race -count=5 -run 'TestFlushedImage' ./internal/engine
	$(GO) test -race -count=10 -run 'TestOLCDescentStress' ./internal/engine
	$(GO) test -race -count=10 -run 'TestRecycledImagesAreNotTorn' ./internal/engine
	$(GO) test -race -count=5 -run 'TestRecycledTxUnderSnapshotScans|TestReleaseRecyclesTx' ./internal/server ./internal/engine
	$(GO) test -count=200 -run TestConcurrentNoWaitLocking ./internal/engine

# Each native fuzz target for 10 s. Their seed corpora run as ordinary
# tests in `make test`; this looks a little further. One target per
# invocation is a `go test -fuzz` rule.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReplAppendDecode -fuzztime 10s ./internal/repl
	$(GO) test -run xxx -fuzz FuzzWALRecordRoundTrip -fuzztime 10s ./internal/wal
	$(GO) test -run xxx -fuzz FuzzWireFrame -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzPDLRecord -fuzztime 10s ./internal/noftl
	$(GO) test -run xxx -fuzz FuzzReplayCut -fuzztime 10s ./internal/engine
	$(GO) test -run xxx -fuzz FuzzDeltaRecordCodec -fuzztime 10s ./internal/core
	$(GO) test -run xxx -fuzz FuzzScanPage -fuzztime 10s ./internal/client

# `ipabench -exp all` of BASE (unpacked under .bench_build/) against the
# working tree, diffed; exits 1 on any difference. EXPFLAGS=-quick for
# the 4 s version. What to run before regenerating a golden.
exp-diff:
	bash scripts/exp-diff.sh $(BASE) $(EXPFLAGS)

# The benchmark of the whole stack (bench/, its own module; contract in
# BENCHMARK.json): 4 workloads untraced and traced, layer probes and the
# layer budget, written to bench/results/latest.json. bench-compare
# judges that run against the committed baseline (exit 1 on a `worse`
# row); bench-test is the benchmark's own smoke and unit tests, which
# the root module's `go test ./...` does not reach. check runs it, so an
# internal API change that breaks the benchmark's runtime fails the gate.
bench:
	bash bench/run.sh

bench-compare:
	cd bench && $(GO) run . -compare results/baseline.json results/latest.json

bench-test:
	cd bench && $(GO) test ./...

# A performance claim on one workload, measured the way it has to be on
# a box whose speed drifts: N alternating pairs of BASE (unpacked under
# .bench_build/) and the working tree, same seed within a pair; prints
# medians, quartiles and pairs won per end-to-end metric. ~1 min a pair.
# SEED, the first pair's seed, defaults to the clock.
W ?= ycsb-read-flash
BASE ?= HEAD
N ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(W) $(BASE) $(N) $(SEED)

# What a second client costs the first on the embedded read and commit
# paths (internal/engine, one sim.Worker per goroutine, every page in the
# pool): BenchmarkReadPathParallel, an OLC Lookup + Table.Read,
# BenchmarkCommitPathParallel, Begin + three AddField + Commit on the
# goroutine's own pages, and BenchmarkIndexLookupParallel, OLC Lookups
# alone in one shared tree, each at one and two goroutines, five runs
# each. Prints the median ns/op of each and their ratio — 0.5 if the two
# share no written cache line, 1.0 if the second gains nothing. Two
# committers share the log by construction (one LSN sequence, one
# published and one durable horizon), so the commit path's ratio stays
# above the read path's.
SCALING = ReadPathParallel CommitPathParallel IndexLookupParallel
scaling:
	@$(GO) test -run xxx -bench '$(subst $() ,|,$(SCALING))' -count 5 -cpu 1,2 ./internal/engine | awk -v names='$(SCALING)' ' \
		function med(a, n,   i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } return a[int((n + 1) / 2)] } \
		/^Benchmark/ { b = $$1; cpu = 1; if (sub(/-2$$/, "", b)) cpu = 2; sub(/^Benchmark/, "", b); v[b, cpu, ++n[b, cpu]] = $$3 } \
		END { k = split(names, list, " "); for (x = 1; x <= k; x++) { b = list[x]; \
			for (cpu = 1; cpu <= 2; cpu++) { if (!n[b, cpu]) exit 1; delete t; for (i = 1; i <= n[b, cpu]; i++) t[i] = v[b, cpu, i]; m[cpu] = med(t, n[b, cpu]) } \
			printf "%-20s 1 cpu %.1f ns/op  2 cpu %.1f ns/op  ratio %.2f\n", b, m[1], m[2], m[2] / m[1] } }'

# The network service benchmarks, go-bench text: end-to-end TPC-B over
# the wire protocol across a connections × pipelining-depth grid, and
# BenchmarkSessionBurst — one raw connection, the TPC-B commit burst,
# nothing of internal/client in the loop: ns, allocations and server
# socket writes per burst.
bench-server:
	$(GO) test -run xxx -bench 'BenchmarkServerTPCB|BenchmarkSessionBurst' -benchtime 2000x \
		-benchmem -count=5 ./internal/server/

bench-all:
	$(GO) test -bench=. -benchmem -run xxx ./...

# Go line counts of the root module (bench/ is its own module), per
# package directory, non-test and test files apart: the figure ROADMAP
# quotes and simplicity PRs are measured in.
ROOT_GO = find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*'
loc:
	@for d in $$($(ROOT_GO) -exec dirname {} \; | sort -u); do \
		printf '%-28s %7d %7d\n' $$d \
			$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l) \
			$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); done
	@printf '%-28s %7d %7d\n' 'total (non-test, test)' \
		$$($(ROOT_GO) -not -name '*_test.go' -exec cat {} + | wc -l) \
		$$($(ROOT_GO) -name '*_test.go' -exec cat {} + | wc -l)

fmt:
	gofmt -l -w .
