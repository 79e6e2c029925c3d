package main

import (
	"sync"
	"time"

	"ipa/internal/engine"
	"ipa/internal/metrics"
	"ipa/internal/repl"
	"ipa/internal/server"
)

// snapshot is the public Stats() of every layer an instance has, read
// at one instant. The S metrics are differences of two snapshots.
type snapshot struct {
	eng      engine.Stats
	mapped   int // flash pages the region maps
	pageSize int

	served bool // ops and srv are set
	ops    map[string]metrics.LatencySnapshot
	srv    server.Counters

	replicated bool // repl is set
	repl       repl.Stats

	wireFrames, wireBytes uint64 // counted by the wire script
}

// resetLive clears the recorders Stats() hands out live (they cannot
// be differenced), so that they cover the measured phase only.
func (s snapshot) resetLive() {
	if st, ok := s.eng.Stores[region]; ok {
		st.NetBytes.Reset()
	}
}

// lagStats summarises follower lag over a measured phase, from the
// leader's per-peer shipping state sampled every 5 ms.
type lagStats struct {
	samples         uint64
	recSum, byteSum uint64
	recMax          uint64
}

// sampleLag starts the sampler and returns the function that stops it.
// stats is nil for instances without replication.
func sampleLag(stats func() repl.Stats) func() lagStats {
	if stats == nil {
		return func() lagStats { return lagStats{} }
	}
	var l lagStats
	halt := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-halt:
				return
			case <-tick.C:
			}
			for _, ps := range stats().Peers {
				if !ps.Connected {
					continue
				}
				l.samples++
				l.recSum += ps.LagRecords
				l.byteSum += ps.LagBytes
				if ps.LagRecords > l.recMax {
					l.recMax = ps.LagRecords
				}
			}
		}
	}()
	return func() lagStats {
		close(halt)
		wg.Wait()
		return l
	}
}

// opTotalUs is count × mean of one server op: the wall time the server
// spent executing it.
func opTotalUs(ops map[string]metrics.LatencySnapshot, name string) float64 {
	o := ops[name]
	return float64(o.Count) * float64(o.MeanNs) / 1e3
}

// layerMetrics derives the S and T metrics of one repetition. Metrics
// of a layer the workload does not have are reported as 0.
func layerMetrics(p *phaseResult, rep *repResult) map[string]float64 {
	tx := float64(rep.Committed)
	m := make(map[string]float64, len(layers))
	per := func(d uint64) float64 { return ratio(float64(d), tx) }

	// flash
	f0, f1 := p.before.eng.Flash, p.after.eng.Flash
	m["flash.reads_per_tx"] = per(f1.Reads - f0.Reads)
	m["flash.programs_per_tx"] = per(f1.Programs - f0.Programs)
	m["flash.delta_programs_per_tx"] = per(f1.DeltaPrograms - f0.DeltaPrograms)
	m["flash.erases_per_ktx"] = 1000 * per(f1.Erases-f0.Erases)
	m["flash.bytes_read_per_tx"] = per(f1.BytesRead - f0.BytesRead)

	// noftl
	r0, r1 := p.before.eng.Regions[region], p.after.eng.Regions[region]
	hostWrites := float64(r1.HostWrites() - r0.HostWrites())
	m["noftl.host_writes_per_tx"] = ratio(hostWrites, tx)
	m["noftl.ipa_frac"] = ratio(float64(r1.DeltaWrites-r0.DeltaWrites), hostWrites)
	m["noftl.gc_migrations_per_host_write"] = ratio(float64(r1.GCPageMigrations-r0.GCPageMigrations), hostWrites)
	m["noftl.gc_erases_per_host_write"] = ratio(float64(r1.GCErases-r0.GCErases), hostWrites)
	m["noftl.gc_stalls"] = float64(r1.GCStalls - r0.GCStalls)
	usPer := func(d time.Duration) float64 { return ratio(float64(d)/1e3, tx) }
	m["noftl.sim_read_us_per_tx"] = usPer(r1.ReadTime - r0.ReadTime)
	m["noftl.sim_write_us_per_tx"] = usPer(r1.WriteTime - r0.WriteTime + r1.DeltaTime - r0.DeltaTime)
	m["noftl.sim_gc_us_per_tx"] = usPer(r1.GCTime - r0.GCTime)

	// page store
	s0, s1 := p.before.eng.Stores[region], p.after.eng.Stores[region]
	m["engine.flush_delta_per_tx"] = per(s1.FlushesDelta - s0.FlushesDelta)
	m["engine.flush_oop_per_tx"] = per(s1.FlushesOOP - s0.FlushesOOP)
	m["engine.flush_skipped_per_tx"] = per(s1.FlushesSkipped - s0.FlushesSkipped)
	m["engine.fetch_delta_apply_frac"] = ratio(float64(s1.DeltaApply-s0.DeltaApply), float64(s1.Fetches-s0.Fetches))
	if s1.NetBytes != nil {
		m["engine.net_bytes_per_flush_p50"] = float64(s1.NetBytes.Quantile(0.5))
	}

	// buffer
	b0, b1 := p.before.eng.Pool, p.after.eng.Pool
	hits, misses := float64(b1.Hits-b0.Hits), float64(b1.Misses-b0.Misses)
	m["buffer.hit_rate"] = ratio(hits, hits+misses)
	m["buffer.misses_per_tx"] = ratio(misses, tx)
	m["buffer.evictions_per_tx"] = per(b1.Evictions - b0.Evictions)
	m["buffer.eviction_flush_per_tx"] = per(b1.EvictionFlush - b0.EvictionFlush)
	m["buffer.cleaner_flushes_per_tx"] = per(b1.CleanerFlushes - b0.CleanerFlushes)

	// wal
	w0, w1 := p.before.eng.WAL, p.after.eng.WAL
	m["wal.records_per_tx"] = per(w1.Reservations - w0.Reservations)
	m["wal.flushes_per_tx"] = per(w1.Flushes - w0.Flushes)
	m["wal.absorbed_frac"] = ratio(float64(w1.Absorbed-w0.Absorbed), tx)
	m["wal.batch_p50"] = float64(w1.BatchP50)

	// engine
	a0, a1 := p.before.eng.Aborts, p.after.eng.Aborts
	m["engine.lock_conflicts_per_ktx"] = 1000 * per(a1.LockConflicts-a0.LockConflicts)
	m["engine.aborts_per_ktx"] = 1000 * per(a1.LockConflict+a1.Explicit-a0.LockConflict-a0.Explicit)
	m["engine.checkpoints"] = float64(p.after.eng.Checkpoints - p.before.eng.Checkpoints)
	m["engine.log_reclaims"] = float64(p.after.eng.LogReclaims - p.before.eng.LogReclaims)
	var restarts, indexOps uint64
	for name, i1 := range p.after.eng.Indexes {
		i0 := p.before.eng.Indexes[name]
		restarts += i1.Restarts - i0.Restarts
		indexOps += i1.Lookups + i1.Inserts + i1.Updates + i1.Deletes + i1.Scans -
			(i0.Lookups + i0.Inserts + i0.Updates + i0.Deletes + i0.Scans)
	}
	m["engine.index_restarts_per_kop"] = 1000 * ratio(float64(restarts), float64(indexOps))

	// client, wire, server
	m["client.tx_mean_us"] = meanInt(p.lat) / 1e3
	m["client.tx_p50_us"] = float64(sortedQuantile(p.lat, 0.5)) / 1e3
	if p.after.served {
		m["wire.frames_per_tx"] = per(p.after.wireFrames - p.before.wireFrames)
		m["wire.bytes_per_tx"] = per(p.after.wireBytes - p.before.wireBytes)
		var execUs float64
		for name := range p.after.ops {
			execUs += opTotalUs(p.after.ops, name) - opTotalUs(p.before.ops, name)
		}
		m["server.exec_us_per_tx"] = ratio(execUs, tx)
		c0, c1 := p.before.ops["COMMIT"], p.after.ops["COMMIT"]
		m["server.commit_exec_us"] = ratio(opTotalUs(p.after.ops, "COMMIT")-opTotalUs(p.before.ops, "COMMIT"),
			float64(c1.Count-c0.Count))
		m["server.requests_per_tx"] = per(p.after.srv.Requests - p.before.srv.Requests)
		m["server.busy_rejected"] = float64(p.after.srv.BusyRejected - p.before.srv.BusyRejected)
		m["server.poisoned_aborts"] = float64(p.after.srv.PoisonedAborts - p.before.srv.PoisonedAborts)
		m["wire.transit_us_per_tx"] = m["client.tx_mean_us"] - m["server.exec_us_per_tx"]
	}

	// repl
	if p.after.replicated {
		q0, q1 := p.before.repl, p.after.repl
		batches := float64(q1.BatchesSent - q0.BatchesSent)
		m["repl.records_per_batch"] = ratio(float64(q1.RecordsSent-q0.RecordsSent), batches)
		m["repl.batches_per_tx"] = ratio(batches, tx)
		m["repl.lag_records_mean"] = ratio(float64(p.lag.recSum), float64(p.lag.samples))
		m["repl.lag_records_max"] = float64(p.lag.recMax)
		m["repl.lag_bytes_mean"] = ratio(float64(p.lag.byteSum), float64(p.lag.samples))
		m["repl.elections"] = float64(q1.Elections - q0.Elections)
		m["repl.snapshots_sent"] = float64(q1.SnapshotsSent - q0.SnapshotsSent)
	}

	// host
	m["host.speed"] = hostSpeed(p.burstRates)
	m["host.raw_tx_per_s"] = p.txPerS

	// go runtime
	m["go.allocs_per_tx"] = per(p.allocs)
	m["go.alloc_bytes_per_tx"] = per(p.allocBytes)
	m["go.gc_cpu_frac"] = ratio(p.gcCPU, p.cpu.Seconds())

	// T: mean wall µs per committed transaction inside each call.
	if p.trace != nil {
		for name, key := range map[spanName]string{
			spIdxLookup: "engine.idx_lookup_us", spBegin: "engine.begin_us",
			spAddField: "engine.add_field_us", spInsert: "engine.insert_us",
			spCommit: "engine.commit_us", spRead: "engine.read_us",
			spRTReads: "client.rt_reads_us", spRTCommit: "client.rt_commit_us",
		} {
			m[key] = ratio(p.trace.totalUs(name), tx)
		}
	}
	return m
}
