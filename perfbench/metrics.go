package main

import (
	"time"
)

// endToEndMetrics fills the metrics a user of the system sees.
func (r *run) endToEndMetrics(m map[string]metric, spaceAmp float64, peakHeap uint64) {
	quiet := quietest(r.roundSteal, r.rounds)
	var lat, modeled []time.Duration
	for _, st := range r.reads {
		if quiet[partOf(st.round, r.rounds)] {
			lat = append(lat, st.lat)
			modeled = append(modeled, st.modeled)
		}
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	m["setup_s"] = metric{medianFloat(setups), "s"}
	m["read_p50_ms"] = metric{ms(quantile(lat, 0.5)), "ms"}
	m["read_p90_ms"] = metric{ms(quantile(lat, 0.9)), "ms"}
	m["modeled_p50_ms"] = metric{ms(quantile(modeled, 0.5)), "ms"}
	m["cpu_ms_per_op"] = metric{ratio(ms(r.measured.cpu), float64(r.opsDone)), "ms"}
	m["peak_heap_mb"] = metric{float64(peakHeap) / (1 << 20), "MB"}
	m["space_amp"] = metric{spaceAmp, "ratio"}
}

// layerMetrics fills the per-layer metrics from the measured rounds'
// counters and read timings and from the traced rounds' spans.
func (r *run) layerMetrics(m map[string]metric) {
	c := r.measured
	o := c.obs
	reads := float64(len(r.reads))
	queries := float64(r.queries)
	ops := float64(r.opsDone)
	var plan, parallel, compose, transmission, firstItem time.Duration
	var frags, skipped, cached, streamed float64
	for _, s := range r.reads {
		plan += s.plan
		parallel += s.parallel
		compose += s.compose
		transmission += s.transmission
		frags += float64(s.frags)
		skipped += float64(s.skipped)
		if s.planCached {
			cached++
		}
		if s.streamed {
			streamed++
			firstItem += s.firstItem
		}
	}
	perRead := func(d time.Duration) float64 { return ratio(ms(d), reads) }
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("partix.plan_ms", "ms", perRead(plan))
	set("partix.plan_cache_hit_ratio", "ratio", ratio(cached, reads))
	set("partix.stats_fetches_per_read", "count", ratio(o["partix_coord_stats_fetches_total"], queries))
	set("partix.fragments_contacted_per_read", "count", ratio(frags, reads))
	set("partix.fragments_skipped_per_read", "count", ratio(skipped, reads))
	set("partix.parallel_ms", "ms", perRead(parallel))
	set("partix.compose_ms", "ms", perRead(compose))
	set("partix.transmission_ms", "ms", perRead(transmission))

	set("wire.bytes_per_read", "B", ratio(o["partix_wire_client_in_bytes_total"]+o["partix_wire_client_out_bytes_total"], queries))
	set("wire.requests_per_read", "count", ratio(o["partix_wire_client_requests_total"], queries))
	set("wire.frames_per_read", "count", ratio(o["partix_wire_client_frames_total"], queries))
	set("wire.first_item_ms", "ms", ratio(ms(firstItem), streamed))
	set("wire.retries", "count", o["partix_wire_client_retries_total"])
	set("wire.reconnects", "count", o["partix_wire_client_reconnects_total"])

	set("cluster.subqueries_per_read", "count", ratio(o["partix_cluster_subqueries_total"], queries))
	set("cluster.failovers", "count", o["partix_cluster_failovers_total"])

	set("engine.docs_decoded_per_read", "count", ratio(float64(c.eng.DocsDecoded), queries))
	set("engine.bytes_decoded_per_read", "B", ratio(float64(c.eng.BytesDecoded), queries))
	set("engine.compiled_ratio", "ratio", ratio(float64(c.eng.Compiled), float64(c.eng.Queries)))
	set("engine.docs_pruned_per_read", "count", ratio(float64(c.eng.DocsPruned), queries))
	set("engine.index_only_per_read", "count", ratio(float64(c.eng.IndexOnlyHits), queries))
	set("engine.snapshot_retries", "count", o["partix_engine_snapshot_retries_total"])

	set("storage.pages_read_per_read", "count", ratio(o["partix_storage_pages_read_total"], queries))
	set("storage.read_bytes_per_read", "B", ratio(o["partix_storage_read_bytes_total"], queries))
	set("storage.checkpoints", "count", o["partix_storage_checkpoints_total"])
	set("write_p50_ms", "ms", ms(quantile(r.writeLat, 0.5)))
	set("write_p90_ms", "ms", ms(quantile(r.writeLat, 0.9)))
	// Write-path counters: the measured rounds' writes on ingest, every
	// Publish of the set-up elsewhere.
	wc, writes, user := c, float64(r.writes), float64(r.userBytes)
	if r.writes == 0 {
		wc, writes, user = r.publishCounters, float64(r.publishWrites), float64(r.publishBytes)
	}
	set("storage.wal_fsyncs_per_write", "count", ratio(wc.obs["partix_storage_wal_fsyncs_total"], writes))
	set("storage.wal_bytes_per_write", "B", ratio(wc.obs["partix_storage_wal_bytes_total"], writes))
	set("storage.wal_group_size", "count", ratio(wc.obs["partix_storage_wal_group_size_sum"], wc.obs["partix_storage_wal_group_size_count"]))
	set("storage.written_bytes_per_user_byte", "ratio", ratio(wc.obs["partix_storage_written_bytes_total"], user))

	// runtime samples: allocs bytes, allocs objects, GC cycles, GC CPU,
	// total CPU, idle CPU
	set("runtime.alloc_kb_per_op", "KB", ratio(c.rt[0]/1024, ops))
	set("runtime.mallocs_per_op", "count", ratio(c.rt[1], ops))
	set("runtime.gc_cycles_per_op", "count", ratio(c.rt[2], ops))
	set("runtime.gc_cpu_share", "ratio", ratio(c.rt[3], c.rt[4]-c.rt[5]))
	set("host.steal_share", "ratio", ratio(float64(c.stealed[0]), float64(c.stealed[1])))

	// From the traced rounds' spans.
	lts := r.tr.selfTimes()
	mean := func(name string, unit time.Duration) float64 {
		lt := lts[name]
		if lt == nil || lt.count == 0 {
			return 0
		}
		return float64(lt.total) / float64(lt.count) / float64(unit)
	}
	total := func(names ...string) time.Duration {
		var t time.Duration
		for _, n := range names {
			if lt := lts[n]; lt != nil {
				t += lt.total
			}
		}
		return t
	}
	tracedReads := float64(len(r.tracedLat))
	engineTime := total("engine.DB.QueryExpr", "engine.DB.RawDocuments")
	driverTime := total("cluster.Driver.ExecuteQuery", "cluster.Driver.StreamQuery", "cluster.Driver.FetchCollection")
	var unattributed time.Duration
	if lt := lts["partix.System.Query"]; lt != nil {
		unattributed = lt.own
	}
	set("xquery.parse_us", "us", mean("xquery.Parse", time.Microsecond))
	set("wire.self_ms", "ms", ratio(ms(driverTime-engineTime), tracedReads))
	set("engine.query_ms", "ms", ratio(ms(engineTime), tracedReads))
	set("storage.get_document_us", "us", mean("storage.Store.GetDocument", time.Microsecond))
	set("fragmentation.apply_ms", "ms", mean("fragmentation.Scheme.ApplyMode", time.Millisecond))
	set("fragmentation.reconstruct_ms", "ms", mean("fragmentation.Scheme.Reconstruct", time.Millisecond))
	set("trace.unattributed_ms", "ms", ratio(ms(unattributed), tracedReads))
	var untraced []time.Duration
	for _, s := range r.reads {
		untraced = append(untraced, s.lat)
	}
	set("trace.overhead_ms", "ms", ms(quantile(r.tracedLat, 0.5)-quantile(untraced, 0.5)))
}
