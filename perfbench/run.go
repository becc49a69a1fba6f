package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"partix/internal/fragmentation"
	"partix/internal/partix"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// setupReps is how many times a run deploys and publishes; setup_s is
// the median.
const setupReps = 5

// load is one benchmark workload. Its inputs come from the seed
// alone; the deployment, warm-up and timed window are driven by run.
type load interface {
	// prepare generates the inputs and works out the expected answers.
	prepare(seed int64, window time.Duration) error
	// published is the collection and scheme that Publish distributes;
	// each fragment gets a node of its own.
	published() (*xmltree.Collection, *fragmentation.Scheme)
	// afterPublish runs inside the timed set-up, after Publish.
	afterPublish(r *run) error
	// warm runs every read once, checked but not counted.
	warm(r *run) error
	// round runs round i of the timed window and reports whether another
	// round follows.
	round(r *run, i int, start time.Time, traced bool) bool
	// release drops the generated documents that only the set-up
	// needs, so that the timed window's heap is the program's.
	release()
	// held summarizes every document the collection holds at the end.
	held() []docSum
	// finish runs after the timed window: the probes and checks that are
	// not part of the measured load.
	finish(r *run) error
}

var workloads = map[string]load{
	"scan":   &cycle{kind: "scan"},
	"join":   &cycle{kind: "join"},
	"ingest": &ingest{},
}

// readStat is what one measured read leaves behind.
type readStat struct {
	round                                                          int
	lat, modeled, plan, parallel, compose, transmission, firstItem time.Duration
	frags, skipped                                                 int
	planCached, streamed                                           bool
}

// run is the state of one benchmark run.
type run struct {
	name   string
	seed   int64
	window time.Duration
	traced bool
	dir    string
	tr     *tracer

	dep        *deployment
	docNames   map[string][]docRef // node name → documents it stores
	setups     []time.Duration     // process CPU time of each set-up
	setupsWall []time.Duration     // and its wall-clock time

	// write phase of set-up: counters over every Publish and the writes
	// and user bytes they stored
	publishCounters counters
	publishWrites   int
	publishBytes    int64

	mu         sync.Mutex
	correct    bool
	problems   []string
	ops        opCounts
	reads      []readStat      // measured reads
	writeLat   []time.Duration // ingest writes in measured rounds, from due time to acknowledgement
	tracedLat  []time.Duration // client-visible latency of traced reads
	queries    int             // System.Query calls in measured rounds
	measured   counters        // counters over measured rounds
	opsDone    int             // operations completed in measured rounds
	writes     int             // writes in measured rounds
	userBytes  int64           // bytes of the documents those writes stored
	rounds     int
	roundSteal [][2]uint64 // host steal at the start of each round and at the end
}

type docRef struct{ collection, name string }

// fail records a wrong answer or a broken check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.correct = false
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// done counts work completed in a measured round.
func (r *run) done(queries, ops, writes int, userBytes int64) {
	r.mu.Lock()
	r.queries += queries
	r.opsDone += ops
	r.writes += writes
	r.userBytes += userBytes
	r.mu.Unlock()
}

func (r *run) note(kind string, failed bool) {
	r.mu.Lock()
	r.ops.note(kind, failed)
	r.mu.Unlock()
}

// execute deploys the workload setupReps times, keeps the last
// deployment, warms it, runs the timed window and assembles the result.
func (r *run) execute(w load) (*result, error) {
	if err := w.prepare(r.seed, r.window); err != nil {
		return nil, err
	}
	col, scheme := w.published()
	for rep := 0; rep < setupReps; rep++ {
		dep, err := r.setup(w, rep, col, scheme)
		if err != nil {
			return nil, err
		}
		if rep < setupReps-1 {
			if err := dep.close(); err != nil {
				return nil, err
			}
			continue
		}
		r.dep = dep
	}
	defer r.dep.close()
	// Only the set-up needs the generated documents.
	col = nil
	w.release()
	runtime.GC()
	if r.traced {
		docs, err := r.dep.documents()
		if err != nil {
			return nil, err
		}
		r.docNames = docs
	}
	if err := w.warm(r); err != nil {
		return nil, err
	}

	heap := startHeapSampler(time.Millisecond)
	base := readCounters(r.dep)
	start := time.Now()
	for i := 0; ; i++ {
		r.roundSteal = append(r.roundSteal, readSteal())
		traced := r.traced && i%2 == 1
		var before counters
		if r.traced && !traced {
			before = readCounters(r.dep)
		}
		more := w.round(r, i, start, traced)
		if r.traced && !traced {
			r.measured.add(readCounters(r.dep).delta(before))
		}
		r.rounds++
		if !more {
			break
		}
	}
	elapsed := time.Since(start)
	r.roundSteal = append(r.roundSteal, readSteal())
	if !r.traced {
		r.measured = readCounters(r.dep).delta(base)
	}
	peak := heap.finish()

	disk, err := r.dep.diskBytes()
	if err != nil {
		return nil, err
	}
	var user int64
	for _, d := range w.held() {
		user += d.bytes
	}
	if err := w.finish(r); err != nil {
		return nil, err
	}
	// Reads over vertical fragments reconstruct in every round; over
	// horizontal ones the traced run checks one whole reconstruction.
	if r.traced && scheme.AllHorizontal() {
		r.checkReconstruction(w)
	}

	attempted, failed := r.ops.totals()
	res := &result{Correct: r.correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if r.traced {
		r.layerMetrics(res.Metrics)
	} else {
		r.endToEndMetrics(res.Metrics, float64(disk)/float64(user), peak)
	}
	r.printContext(elapsed, base)
	return res, nil
}

// setup deploys, publishes and runs the workload's post-publish step,
// timing all of it as one set-up: by the process CPU time it takes,
// which setup_s reports, and by wall clock, which the context line
// shows. The wall-clock time is mostly waiting for the WAL's fsyncs.
func (r *run) setup(w load, rep int, col *xmltree.Collection, scheme *fragmentation.Scheme) (*deployment, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", rep))
	if r.traced {
		start := time.Now()
		if _, err := scheme.ApplyMode(col, fragmentation.FragModeSD); err != nil {
			return nil, err
		}
		r.tr.add("fragmentation.Scheme.ApplyMode", 0, r.tr.op(), start, time.Now())
	}
	runtime.GC() // each set-up starts from the same heap
	start, cpu := time.Now(), processCPU()
	dep, err := deploy(dir, len(scheme.Fragments))
	if err != nil {
		return nil, err
	}
	before := readCounters(dep)
	if err := dep.publish(col, scheme); err != nil {
		dep.close()
		return nil, err
	}
	r.publishCounters.add(readCounters(dep).delta(before))
	r.dep = dep
	if err := w.afterPublish(r); err != nil {
		dep.close()
		return nil, err
	}
	r.setups = append(r.setups, processCPU()-cpu)
	r.setupsWall = append(r.setupsWall, time.Since(start))
	for _, d := range col.Docs {
		r.publishBytes += int64(xmltree.SerializedSize(d))
	}
	// Publish stores one document per fragment a document has a part in.
	stored, err := dep.documents()
	if err != nil {
		dep.close()
		return nil, err
	}
	for _, refs := range stored {
		r.publishWrites += len(refs)
	}
	return dep, nil
}

// read issues one System.Query. Measured reads are counted as operation
// kind and keep their timings; warm-up reads (kind "") are neither;
// traced reads are counted and additionally replay their plan layer by
// layer inside spans. The caller checks the answer.
func (r *run) read(kind, text string, round int, traced bool) (*partix.QueryResult, error) {
	if traced {
		return r.tracedRead(kind, text)
	}
	start := time.Now()
	res, err := r.dep.sys.Query(text)
	lat := time.Since(start)
	if kind == "" {
		return res, err
	}
	r.note(kind, err != nil)
	if err != nil {
		return nil, err
	}
	st := readStat{
		round: round, lat: lat, modeled: res.ResponseTime(), plan: res.PlanTime, parallel: res.ParallelTime,
		compose: res.ComposeTime, transmission: res.TransmissionTime, firstItem: res.FirstItemLatency,
		frags: len(res.Fragments), skipped: len(res.SkippedFragments),
		planCached: res.PlanCached, streamed: res.Streamed,
	}
	r.mu.Lock()
	r.reads = append(r.reads, st)
	r.mu.Unlock()
	return res, nil
}

// tracedRead runs one read inside spans: parse and explain the query,
// run it, then replay each planned step through the node's driver and
// on the node's engine, reconstruct fetched fragments, and read one
// stored document.
func (r *run) tracedRead(kind, text string) (*partix.QueryResult, error) {
	op := r.tr.op()
	err := r.tr.timed("xquery.Parse", op, func() error { _, err := xquery.Parse(text); return err })
	var plan *partix.Plan
	if err == nil {
		err = r.tr.timed("partix.System.Explain", op, func() (err error) {
			plan, err = r.dep.sys.Explain(text)
			return err
		})
	}
	if err != nil {
		r.note(kind, true)
		return nil, err
	}
	start := time.Now()
	res, err := r.dep.sys.Query(text)
	end := time.Now()
	id := r.tr.add("partix.System.Query", 0, op, start, end)
	r.note(kind, err != nil)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.tracedLat = append(r.tracedLat, end.Sub(start))
	r.mu.Unlock()
	// The result's own timing fields, laid end to end inside the query
	// span; what they leave uncovered is the unattributed remainder.
	t := start
	for _, part := range []struct {
		name string
		d    time.Duration
	}{{"partix.plan", res.PlanTime}, {"cluster.parallel", res.ParallelTime}, {"partix.compose", res.ComposeTime}} {
		r.tr.add(part.name, id, op, t, t.Add(part.d))
		t = t.Add(part.d)
	}
	if err := r.replay(op, plan); err != nil {
		r.fail("replay of %q: %v", text, err)
	}
	return res, nil
}

// replay re-issues a plan's steps layer by layer.
func (r *run) replay(op int64, plan *partix.Plan) error {
	var parts []*xmltree.Collection
	for _, st := range plan.Steps {
		nd := r.dep.nodeNamed(st.Node)
		if nd == nil {
			return fmt.Errorf("plan names unknown node %q", st.Node)
		}
		coll := r.dep.meta.NodeCollection(st.Fragment)
		if st.Query == "" {
			var col *xmltree.Collection
			if err := r.tr.timed("cluster.Driver.FetchCollection", op, func() (err error) {
				col, err = nd.client.FetchCollection(coll)
				return err
			}); err != nil {
				return err
			}
			parts = append(parts, col)
			if err := r.tr.timed("engine.DB.RawDocuments", op, func() error {
				return nd.db.RawDocuments(coll, func(string, []byte) error { return nil })
			}); err != nil {
				return err
			}
			continue
		}
		var err error
		if len(plan.Steps) > 1 {
			err = r.tr.timed("cluster.Driver.StreamQuery", op, func() error {
				return nd.client.StreamQuery(st.Query, func(xquery.Seq) error { return nil })
			})
		} else {
			err = r.tr.timed("cluster.Driver.ExecuteQuery", op, func() error {
				_, err := nd.client.ExecuteQuery(st.Query)
				return err
			})
		}
		if err != nil {
			return err
		}
		e, err := xquery.Parse(st.Query)
		if err != nil {
			return err
		}
		if err := r.tr.timed("engine.DB.QueryExpr", op, func() error {
			_, err := nd.db.QueryExpr(e)
			return err
		}); err != nil {
			return err
		}
	}
	if len(parts) > 0 {
		if err := r.tr.timed("fragmentation.Scheme.Reconstruct", op, func() error {
			_, err := r.dep.meta.Scheme.Reconstruct(parts)
			return err
		}); err != nil {
			return err
		}
	}
	nd := r.dep.nodes[int(op)%len(r.dep.nodes)]
	refs := r.docNames[nd.name]
	if len(refs) == 0 {
		return nil
	}
	ref := refs[int(op)%len(refs)]
	return r.tr.timed("storage.Store.GetDocument", op, func() error {
		_, err := nd.db.Store().GetDocument(ref.collection, ref.name)
		return err
	})
}

// checkReconstruction fetches every fragment, reconstructs the
// collection and compares it with the documents it must hold.
func (r *run) checkReconstruction(w load) {
	op := r.tr.op()
	var parts []*xmltree.Collection
	for _, f := range r.dep.meta.Scheme.Fragments {
		nd := r.dep.nodeFor(f.Name)
		col, err := nd.client.FetchCollection(r.dep.meta.NodeCollection(f.Name))
		if err != nil {
			r.fail("fetch %s: %v", f.Name, err)
			return
		}
		parts = append(parts, col)
	}
	var whole *xmltree.Collection
	if err := r.tr.timed("fragmentation.Scheme.Reconstruct", op, func() (err error) {
		whole, err = r.dep.meta.Scheme.Reconstruct(parts)
		return err
	}); err != nil {
		r.fail("reconstruct: %v", err)
		return
	}
	want, got := bag{}, bag{}
	for _, d := range w.held() {
		want[d.digest]++
	}
	for _, d := range whole.Docs {
		got[digestNode(d.Root)]++
	}
	if len(whole.Docs) != len(w.held()) {
		r.fail("reconstruction holds %d documents, want %d", len(whole.Docs), len(w.held()))
		return
	}
	for d, n := range want {
		if got[d] != n {
			r.fail("reconstruction differs from the stored documents")
			return
		}
	}
}

// printContext prints what a reader needs to tell a contended run from
// a regression: operations per type, host steal, GC cycles, and any
// problems found.
func (r *run) printContext(elapsed time.Duration, base counters) {
	whole := readCounters(r.dep).delta(base)
	fmt.Printf("context: workload=%s seed=%d trace=%v rounds=%d window_s=%.3f\n",
		r.name, r.seed, r.traced, r.rounds, elapsed.Seconds())
	fmt.Printf("context: ops (failed/attempted) %s\n", r.ops.String())
	fmt.Printf("context: host.steal_share=%.4f gc_cycles=%.0f\n",
		ratio(float64(whole.stealed[0]), float64(whole.stealed[1])), whole.rt[2])
	fmt.Printf("context: set-ups cpu=%v wall=%v\n", r.setups, r.setupsWall)
	if !r.traced {
		r.printParts()
	}
	for _, p := range r.problems {
		fmt.Printf("problem: %s\n", p)
	}
	if r.traced {
		writeTable(os.Stdout, r.tr.selfTimes())
	}
}

// printParts prints, for each part of the window, its host steal share
// and its reads' p50 and p90 in ms, marking with * the parts the latency
// figures pool.
func (r *run) printParts() {
	byPart := map[int][]time.Duration{}
	for _, st := range r.reads {
		p := partOf(st.round, r.rounds)
		byPart[p] = append(byPart[p], st.lat)
	}
	quiet := quietest(r.roundSteal, r.rounds)
	var line []string
	for p := 0; p < parts; p++ {
		if lo, hi := partRounds(p, r.rounds); lo == hi {
			continue
		}
		mark := ""
		if quiet[p] {
			mark = "*"
		}
		line = append(line, fmt.Sprintf("%s%.3f:%.2f/%.2f", mark, partSteal(r.roundSteal, r.rounds, p),
			ms(quantile(byPart[p], 0.5)), ms(quantile(byPart[p], 0.9))))
	}
	fmt.Printf("context: parts (steal:p50/p90 ms) %s\n", strings.Join(line, " "))
}
