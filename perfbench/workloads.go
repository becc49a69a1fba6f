package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"partix/internal/engine"
	"partix/internal/fragmentation"
	"partix/internal/toxgene"
	"partix/internal/workload"
	"partix/internal/xbench"
	"partix/internal/xmltree"
	"partix/internal/xquery"
)

// Input sizes. 1 500 ToXgene items are the repository's default Figure
// 7(a) database; 60 XBench articles its default Figure 7(c) one.
const (
	itemCount    = 1500
	articleCount = 60
	itemFrags    = 4
)

// query is one workload read with the check its answer must pass.
type query struct {
	id, text string
	check    func(items xquery.Seq) string
}

// cycle is a workload in which one closed-loop client cycles a fixed set
// of reads over a read-only deployment: scan or join.
type cycle struct {
	kind    string
	col     *xmltree.Collection
	sums    []docSum
	scheme  *fragmentation.Scheme
	queries []query
}

// docSum is what the end of a run needs of a held document: its
// serialized size, for space_amp, and its digest, for the
// reconstruction check.
type docSum struct {
	bytes  int64
	digest uint64
}

func summarize(docs []*xmltree.Document) []docSum {
	out := make([]docSum, len(docs))
	for i, d := range docs {
		out[i] = docSum{int64(xmltree.SerializedSize(d)), digestNode(d.Root)}
	}
	return out
}

func (c *cycle) prepare(seed int64, _ time.Duration) error {
	var set []workload.Query
	var ids []string
	switch c.kind {
	case "scan":
		c.col = toxgene.GenerateItems(toxgene.ItemsConfig{Docs: itemCount, Seed: seed})
		s, err := workload.HorizontalScheme("items", itemFrags)
		if err != nil {
			return err
		}
		c.scheme, set, ids = s, workload.Horizontal("items"), []string{"HQ4", "HQ5", "HQ8"}
	case "join":
		c.col = xbench.Generate(xbench.Config{Docs: articleCount, Seed: seed})
		c.scheme, set, ids = xbench.VerticalScheme("articles"), workload.Vertical("articles"), []string{"VQ4", "VQ7", "VQ8"}
	}
	c.sums = summarize(c.col.Docs)
	c.queries = nil
	for _, id := range ids {
		q := query{id: id, text: workload.ByID(set, id).Text}
		if c.kind == "scan" {
			t, err := newTruth(id, c.col.Docs, len(c.col.Docs))
			if err != nil {
				return err
			}
			n := len(c.col.Docs)
			q.check = func(items xquery.Seq) string { return t.check(items, n, n) }
		} else {
			want, err := verticalExpectation(id, c.col.Docs)
			if err != nil {
				return err
			}
			q.check = want.check
		}
		c.queries = append(c.queries, q)
	}
	return nil
}

func (c *cycle) published() (*xmltree.Collection, *fragmentation.Scheme) { return c.col, c.scheme }

func (c *cycle) afterPublish(*run) error { return nil }

func (c *cycle) warm(r *run) error {
	for _, q := range c.queries {
		res, err := r.read("", q.text, 0, false)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", q.id, err)
		}
		if msg := q.check(res.Items); msg != "" {
			r.fail("warm-up %s: %s", q.id, msg)
		}
	}
	return nil
}

// round runs each query once, back to back, while the window lasts.
func (c *cycle) round(r *run, i int, start time.Time, traced bool) bool {
	for _, q := range c.queries {
		res, err := r.read(c.kind+"."+q.id, q.text, i, traced)
		if err != nil {
			r.fail("%s: %v", q.id, err)
			continue
		}
		if msg := q.check(res.Items); msg != "" {
			r.fail("%s: %s", q.id, msg)
		}
	}
	if !traced {
		r.done(len(c.queries), len(c.queries), 0, 0)
	}
	return time.Since(start) < r.window
}

func (c *cycle) release() { c.col = nil }

func (c *cycle) held() []docSum { return c.sums }

func (c *cycle) finish(*run) error { return nil }

// ingest is scan's deployment after a clean restart, with a writer that
// stores new items at a fixed rate, probing each one right after its
// acknowledgement, and a reader that cycles the selective Figure 7(a)
// queries. Both start each round at its due time, so every run makes the
// same number of rounds of the same operations.
type ingest struct {
	items  []*xmltree.Document // published items, then the ones written
	sums   []docSum            // of every item
	route  []int               // fragment index of each item
	col    *xmltree.Collection // the published part
	scheme *fragmentation.Scheme
	reads  []string
	texts  map[string]string
	truths map[string]*truth
	rounds int

	issued, acked atomic.Int64 // writes started and acknowledged
	ackedTo       []int        // acknowledged writes per fragment
	mu            sync.Mutex
	lag           []time.Duration // from due time to the write's start
}

// The writer stores one item per writePeriod, on a fixed schedule.
// readerCycles is how many times the reader runs its queries in each
// period, about two thirds of it when the host is quiet.
const (
	writePeriod  = 100 * time.Millisecond
	readerCycles = 3
)

func (in *ingest) prepare(seed int64, window time.Duration) error {
	in.rounds = int(window / writePeriod)
	all := toxgene.GenerateItems(toxgene.ItemsConfig{Docs: itemCount + in.rounds, Seed: seed})
	in.items = all.Docs
	in.sums = summarize(all.Docs)
	in.col = xmltree.NewCollection("items", all.Docs[:itemCount]...)
	s, err := workload.HorizontalScheme("items", itemFrags)
	if err != nil {
		return err
	}
	in.scheme = s
	// Route every item with the scheme's own fragment definitions; the
	// oracles never look at fragments, so a misrouted item still shows.
	in.route = make([]int, len(in.items))
	for i, d := range in.items {
		in.route[i] = -1
		for k, f := range s.Fragments {
			fc, err := f.Apply(xmltree.NewCollection("items", d))
			if err != nil {
				return err
			}
			if fc.Len() > 0 {
				in.route[i] = k
				break
			}
		}
		if in.route[i] < 0 {
			return fmt.Errorf("item %s belongs to no fragment", d.Name)
		}
	}
	set := workload.Horizontal("items")
	in.reads = []string{"HQ1", "HQ2", "HQ3", "HQ6", "HQ7"}
	in.texts, in.truths = map[string]string{}, map[string]*truth{}
	for _, id := range in.reads {
		t, err := newTruth(id, in.items, itemCount)
		if err != nil {
			return err
		}
		in.texts[id], in.truths[id] = workload.ByID(set, id).Text, t
	}
	in.issued.Store(0)
	in.acked.Store(0)
	in.ackedTo = make([]int, len(s.Fragments))
	in.lag = nil
	return nil
}

func (in *ingest) published() (*xmltree.Collection, *fragmentation.Scheme) { return in.col, in.scheme }

func (in *ingest) afterPublish(r *run) error { return r.dep.restart() }

// release keeps only the items still to be written.
func (in *ingest) release() {
	in.col = nil
	clear(in.items[:itemCount])
}

// readAll runs the reader's queries once, checking each answer against
// the items visible around it. Warm-up reads are not counted.
func (in *ingest) readAll(r *run, round int, warm, traced bool) {
	for _, id := range in.reads {
		kind := "ingest." + id
		if warm {
			kind = ""
		}
		lo := itemCount + int(in.acked.Load())
		res, err := r.read(kind, in.texts[id], round, traced)
		hi := itemCount + int(in.issued.Load())
		if err != nil {
			r.fail("%s: %v", id, err)
			continue
		}
		if msg := in.truths[id].check(res.Items, lo, hi); msg != "" {
			r.fail("%s: %s", id, msg)
		}
	}
}

// warm runs the reader's queries once. HQ2 is broadcast, so the
// coordinator caches statistics for every fragment here.
func (in *ingest) warm(r *run) error {
	in.readAll(r, 0, true, false)
	return nil
}

// round i runs readerCycles read cycles back to back from its start and
// one write half a period in, while the reader is busy: on this kind of
// virtual machine a read issued after the CPUs went idle waits for them
// to wake, which varies far more from run to run than the work itself.
func (in *ingest) round(r *run, i int, start time.Time, traced bool) bool {
	due := start.Add(time.Duration(i) * writePeriod)
	if now := time.Now(); r.traced && now.After(due) {
		// A traced round's replays overrun the period; the next round
		// starts from where it ended, so that the untraced rounds' write
		// latencies do not carry the traced rounds' delay.
		due = now
	}
	writeDue := due.Add(writePeriod / 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(writeDue))
		in.write(r, i, writeDue, traced)
	}()
	time.Sleep(time.Until(due))
	for c := 0; c < readerCycles; c++ {
		in.readAll(r, i, false, traced)
	}
	wg.Wait()
	if !traced {
		reads := readerCycles * len(in.reads)
		r.done(reads+1, reads+2, 1, int64(xmltree.SerializedSize(in.items[itemCount+i])))
	}
	return i+1 < in.rounds
}

// write stores item itemCount+i on its fragment's node, then looks it up
// by its Code through the coordinator.
func (in *ingest) write(r *run, i int, due time.Time, traced bool) {
	idx := itemCount + i
	doc := in.items[idx]
	f := in.scheme.Fragments[in.route[idx]]
	nd := r.dep.nodeFor(f.Name)
	coll := r.dep.meta.NodeCollection(f.Name)
	begin := time.Now()
	in.issued.Add(1)
	err := nd.client.StoreDocument(coll, doc)
	end := time.Now()
	if traced {
		r.tr.add("cluster.Driver.StoreDocument", 0, r.tr.op(), begin, end)
	}
	r.note("ingest.write", err != nil)
	if err != nil {
		r.fail("write %s: %v", doc.Name, err)
		r.note("ingest.probe", true)
		return
	}
	in.acked.Add(1)
	in.mu.Lock()
	in.ackedTo[in.route[idx]]++
	if !traced {
		in.lag = append(in.lag, begin.Sub(due))
	}
	in.mu.Unlock()
	if !traced {
		r.mu.Lock()
		r.writeLat = append(r.writeLat, end.Sub(due))
		r.mu.Unlock()
	}

	// Read-after-write probe: the item was acknowledged, so the
	// coordinator must find it.
	code := children(doc.Root, "Code")
	res, err := r.dep.sys.Query(fmt.Sprintf(`for $i in collection("items")/Item where $i/Code = %q return $i/Code`, stringValue(code[0])))
	hit := err == nil && len(res.Items) == 1 && digestItem(res.Items[0]) == digestNode(code[0])
	r.note("ingest.probe", !hit)
}

func (in *ingest) held() []docSum {
	return in.sums[:itemCount+int(in.acked.Load())]
}

// finish runs the durability probe on the node that took the most
// writes: checkpoint its store, copy store and WAL as a crash image,
// open the copy and count the fragment's documents.
func (in *ingest) finish(r *run) error {
	in.mu.Lock()
	fmt.Printf("context: writer lag_max_ms=%.3f lag_p50_ms=%.3f writes=%d\n",
		ms(quantile(in.lag, 1)), ms(quantile(in.lag, 0.5)), len(in.lag))
	k := 0
	for i, n := range in.ackedTo {
		if n > in.ackedTo[k] {
			k = i
		}
	}
	want := in.ackedTo[k]
	in.mu.Unlock()
	for i := 0; i < itemCount; i++ {
		if in.route[i] == k {
			want++
		}
	}
	f := in.scheme.Fragments[k]
	nd := r.dep.nodeFor(f.Name)
	if err := nd.db.Store().Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint %s: %w", nd.name, err)
	}
	image := filepath.Join(r.dep.dir, "crash", filepath.Base(nd.path))
	if err := os.MkdirAll(filepath.Dir(image), 0o755); err != nil {
		return err
	}
	for _, suffix := range []string{"", ".wal"} {
		data, err := os.ReadFile(nd.path + suffix)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(image+suffix, data, 0o644); err != nil {
			return err
		}
	}
	db, err := engine.Open(image, engine.Options{})
	if err != nil {
		return fmt.Errorf("open crash image: %w", err)
	}
	defer db.Close()
	res, err := db.Query(fmt.Sprintf(`count(collection(%q)/Item)`, r.dep.meta.NodeCollection(f.Name)))
	got, ok := -1, false
	if err == nil && len(res) == 1 {
		got, ok = countValue(res[0])
	}
	fmt.Printf("context: durability probe on %s: %d of %d documents visible after reopening\n", nd.name, got, want)
	r.note("ingest.durability", !ok || got != want)
	return nil
}
