package main

import (
	"sort"

	"segshare/internal/pae"
	"segshare/internal/pfs"
)

// perLayer fills the per-layer metrics of a traced window: deltas of the
// bench's wrappers and of the counters the server exports, kernel
// timings, and the request-time split from the spans.
func perLayer(out *outcome, w *workload, untraced, traced *windowResult, spans []span, kt kernelTimes, s *setup) {
	m := out.Metrics
	b, a := traced.before, traced.after
	ops := traced.ops()
	userBytes := float64(traced.userBytes)
	perOp := func(v float64) float64 { return ratio(v, ops) }
	perByte := func(v float64) float64 { return ratio(v, userBytes) }
	delta := func(name string, want map[string]string) float64 {
		return a.reg.value(name, want) - b.reg.value(name, want)
	}
	hdelta := func(name string, want map[string]string) (count, sum float64) {
		c1, s1 := a.reg.hist(name, want)
		c0, s0 := b.reg.hist(name, want)
		return c1 - c0, s1 - s0
	}

	// pfs: chunk-sized units crossing the content and dedup stores.
	var dataBytes int64
	for _, role := range []int{roleContent, roleDedup} {
		dataBytes += a.stores[role].readBytes + a.stores[role].writeBytes - b.stores[role].readBytes - b.stores[role].writeBytes
	}
	m.set("pfs.chunk_ops_per_op", perOp(float64(dataBytes)/float64(pfs.ChunkSize+pae.Overhead)), "count")
	m.set("pfs.seal_MBps", kt.sealMBps, "MB/s")
	m.set("pfs.open_MBps", kt.openMBps, "MB/s")

	// enctls: the raw connections below the enclave TLS terminator.
	wire := float64(a.conn.readBytes + a.conn.writeBytes - b.conn.readBytes - b.conn.writeBytes)
	m.set("enctls.wire_bytes_per_user_byte", perByte(wire), "ratio")
	m.set("enctls.conn_calls_per_op", perOp(float64(a.conn.calls-b.conn.calls)), "count")
	m.set("enctls.conns_accepted", float64(a.conn.accepted), "count")

	// journal
	_, commitNs := hdelta("segshare_journal_commit_ns", nil)
	m.set("journal.commit_us_per_op", perOp(commitNs/1e3), "us")
	m.set("journal.bytes_per_user_byte", perByte(delta("segshare_journal_commit_bytes_total", nil)), "ratio")
	m.set("journal.store_puts_per_op", perOp(float64(a.stores[roleGroup].journalPuts-b.stores[roleGroup].journalPuts)), "count")

	// store, per role
	for role, name := range roleNames {
		sa, sb := a.stores[role], b.stores[role]
		p := "store." + name + "."
		m.set(p+"ops_per_op", perOp(float64(sa.ops-sb.ops)), "count")
		m.set(p+"busy_ms_per_op", perOp(float64(sa.busyNs-sb.busyNs)/1e6), "ms")
		m.set(p+"write_bytes_per_user_byte", perByte(float64(sa.writeBytes-sb.writeBytes)), "ratio")
		m.set(p+"read_bytes_per_user_byte", perByte(float64(sa.readBytes-sb.readBytes)), "ratio")
	}
	m.set("store.retries", delta("segshare_store_retries_total", nil), "count")

	// cache
	var hits, lookups, evictions float64
	for kind, ca := range a.caches {
		cb := b.caches[kind]
		h, l := float64(ca.Hits-cb.Hits), float64(ca.Hits+ca.Misses-cb.Hits-cb.Misses)
		hits, lookups = hits+h, lookups+l
		evictions += float64(ca.Evictions - cb.Evictions)
		m.set("cache."+kind+".hit_ratio", ratio(h, l), "ratio")
	}
	m.set("cache.hit_ratio", ratio(hits, lookups), "ratio")
	m.set("cache.evictions_per_op", perOp(evictions), "count")
	m.set("cache.working_set_ratio", ratio(float64(s.workingSet), float64(s.budget)), "ratio")
	m.set("acl.decode_us", kt.aclDecodeUs, "us")

	// core
	_, lockNs := hdelta("segshare_lock_wait_ns", nil)
	m.set("core.lock_wait_us_per_op", perOp(lockNs/1e3), "us")
	_, admitNs := hdelta("segshare_admission_wait_ns", nil)
	m.set("core.admission_wait_us_per_op", perOp(admitNs/1e3), "us")
	shed := delta("segshare_admission_shed_total", nil) + delta("segshare_admission_queue_timeout_total", nil)
	m.set("core.shed_ratio", perOp(shed), "ratio")
	derived := float64(a.caches["derived"].Misses - b.caches["derived"].Misses)
	m.set("core.file_key_us_per_op", perOp(derived*kt.deriveUs), "us")
	leader := delta("segshare_crypto_coalesce_total", map[string]string{"role": "leader"})
	follower := delta("segshare_crypto_coalesce_total", map[string]string{"role": "shared"})
	m.set("core.coalesce_follower_ratio", ratio(follower, leader+follower), "ratio")

	// enclave bridge
	m.set("enclave.ecalls_per_op", perOp(float64(a.bridge.ECalls-b.bridge.ECalls)), "count")
	m.set("enclave.ocalls_per_op", perOp(float64(a.bridge.OCalls-b.bridge.OCalls)), "count")
	_, queueNs := hdelta("segshare_bridge_queue_wait_ns", nil)
	m.set("enclave.queue_wait_us_per_op", perOp(queueNs/1e3), "us")
	_, callNs := hdelta("segshare_bridge_call_ns", nil)
	m.set("enclave.call_us_per_op", perOp(callNs/1e3), "us")

	// rollback, mhash, dedup
	uc, us := hdelta("segshare_rollback_tree_update_depth", nil)
	vc, vs := hdelta("segshare_rollback_tree_validate_depth", nil)
	m.set("rollback.update_depth_mean", ratio(us, uc), "count")
	m.set("rollback.validate_depth_mean", ratio(vs, vc), "count")
	m.set("rollback.failures", a.reg.value("segshare_rollback_failures_total", nil), "count")
	m.set("mhash.update_us", kt.mhashUs, "us")
	dh := delta("segshare_dedup_put_total", map[string]string{"result": "hit"})
	dm := delta("segshare_dedup_put_total", map[string]string{"result": "miss"})
	m.set("dedup.hit_ratio", ratio(dh, dh+dm), "ratio")
	m.set("dedup.saved_bytes_per_user_byte", perByte(delta("segshare_dedup_saved_bytes_total", nil)), "ratio")

	// audit
	records := delta("segshare_audit_records_total", nil)
	dropped := delta("segshare_audit_dropped_total", nil)
	m.set("audit.records_per_op", perOp(records), "count")
	m.set("audit.bytes_per_op", perOp(delta("segshare_audit_bytes_total", nil)), "bytes")
	m.set("audit.dropped_ratio", ratio(dropped, records+dropped), "ratio")

	// runtime
	m.set("runtime.gc_cycles_per_op", perOp(float64(a.proc.gcCycles-b.proc.gcCycles)), "count")
	m.set("runtime.alloc_objects_per_op", perOp(float64(a.proc.allocObjects-b.proc.allocObjects)), "count")

	// harness health
	late := append([]int64(nil), traced.loop.lateNs...)
	late = append(late, untraced.loop.lateNs...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	var lateP99 float64
	if len(late) > 0 {
		lateP99 = ms(late[len(late)*99/100])
	}
	m.set("gen.late_p99_ms", lateP99, "ms")
	m.set("gen.backlog_max", float64(max(traced.loop.backlogMax, untraced.loop.backlogMax)), "count")
	m.set("trace.overhead_ratio", ratio(medianLatency(traced.samples), medianLatency(untraced.samples))-1, "ratio")

	reqs := make([]request, len(traced.samples))
	for i, smp := range traced.samples {
		reqs[i] = request{class: smp.class, start: smp.sent, end: smp.end}
	}
	at := attribute(reqs, spans)
	m.set("trace.ambiguous_ratio", ratio(float64(at.ambiguous), float64(at.children)), "ratio")
	splits := map[string]any{}
	for c := range numClasses {
		sp := at.byClass[c]
		n := float64(sp.Requests)
		p := "split." + classNames[c] + "."
		m.set(p+"request_ms", ratio(float64(sp.Request)/1e6, n), "ms")
		m.set(p+"store_ms", ratio(float64(sp.Store)/1e6, n), "ms")
		m.set(p+"conn_ms", ratio(float64(sp.Conn)/1e6, n), "ms")
		m.set(p+"unattributed_ms", ratio(float64(sp.Unattributed)/1e6, n), "ms")
		m.set("core.self_ms_per_op."+classNames[c], ratio(float64(sp.Self)/1e6, n), "ms")
		splits[classNames[c]] = sp
	}
	out.report["split_ns_totals"] = splits
	out.report["program_counters_ms_per_op_overlapping"] = programCounters(traced)
	out.report["kernels"] = map[string]float64{
		"pfs_seal_MBps": kt.sealMBps, "pfs_open_MBps": kt.openMBps, "acl_decode_us": kt.aclDecodeUs,
		"pae_derive_us": kt.deriveUs, "mhash_update_us": kt.mhashUs,
	}
}

// programCounters reports the server's own duration counters per op
// class beside the split. They overlap one another (a request's time
// contains its store, lock and journal time), so they do not add up.
func programCounters(wr *windowResult) map[string]map[string]float64 {
	lat, _, _ := byClass(wr.samples)
	out := map[string]map[string]float64{}
	for c := range numClasses {
		out[classNames[c]] = map[string]float64{}
	}
	for _, m := range wr.after.reg["segshare_request_ns"] {
		var op string
		for _, l := range m.Labels {
			if l.Key == "op" {
				op = l.Value
			}
		}
		_, sum0 := wr.before.reg.hist("segshare_request_ns", map[string]string{"op": op})
		c := opClassOf(op)
		out[classNames[c]]["request"] += ratio((float64(m.Histogram.Sum)-sum0)/1e6, float64(len(lat[c])))
	}
	ops := wr.ops()
	all := map[string]float64{}
	for name, metric := range map[string]string{
		"store_op": "segshare_store_op_ns", "lock_wait": "segshare_lock_wait_ns", "admission_wait": "segshare_admission_wait_ns",
		"journal_commit": "segshare_journal_commit_ns", "bridge_call": "segshare_bridge_call_ns", "audit_fsync": "segshare_audit_fsync_ns",
	} {
		_, s1 := wr.after.reg.hist(metric, nil)
		_, s0 := wr.before.reg.hist(metric, nil)
		all[name] = ratio((s1-s0)/1e6, ops)
	}
	out["all"] = all
	return out
}

func medianLatency(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	lat := make([]int64, len(samples))
	for i, s := range samples {
		lat[i] = s.end - s.start
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[len(lat)/2])
}
