package main

// Answer oracles. They work out what each workload query must return by
// walking the generated documents with plain Go: no query processor,
// fragmentation, storage or wire code is involved, so a fault in any of
// those layers shows as a mismatch instead of agreeing with itself.
//
// Answers are compared as digests: every node item is reduced to a
// 64-bit FNV-1a hash of its canonical form (element names, attributes
// and text in document order), every atomic item to the hash of its
// printed value. Digesting allocates nothing, so checking an answer
// inside the timed window costs little next to the query itself.

import (
	"fmt"
	"strconv"
	"strings"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	return h * fnvPrime
}

// digestNode hashes the canonical form of a subtree. Node IDs are left
// out: they are storage identities, not content.
func digestNode(n *xmltree.Node) uint64 { return digestInto(fnvOffset, n) }

func digestInto(h uint64, n *xmltree.Node) uint64 {
	switch n.Kind {
	case xmltree.TextNode:
		h = fnvByte(h, 'T')
		return fnvByte(fnvString(h, n.Value), 0)
	case xmltree.AttributeNode:
		h = fnvByte(fnvString(fnvByte(h, 'A'), n.Name), '=')
		return fnvByte(fnvString(h, stringValue(n)), 0)
	}
	h = fnvByte(fnvString(fnvByte(h, 'E'), n.Name), 0)
	for _, c := range n.Children {
		h = digestInto(h, c)
	}
	return fnvByte(h, 'e')
}

// digestAtom hashes an atomic value the way digestItem prints it.
func digestAtom(s string) uint64 { return fnvString(fnvByte(fnvOffset, 'V'), s) }

// digestItem reduces one query result item.
func digestItem(it xquery.Item) uint64 {
	switch v := it.(type) {
	case *xmltree.Node:
		return digestNode(v)
	case float64:
		return digestAtom(strconv.FormatFloat(v, 'g', -1, 64))
	case int:
		return digestAtom(strconv.Itoa(v))
	case int64:
		return digestAtom(strconv.FormatInt(v, 10))
	case string:
		return digestAtom(v)
	case bool:
		return digestAtom(strconv.FormatBool(v))
	default:
		return digestAtom(fmt.Sprintf("%T:%v", it, it))
	}
}

// stringValue is the XPath string value of a node: its text descendants
// concatenated in document order. Attribute values are not part of an
// element's content; an attribute's string value is its own value.
func stringValue(n *xmltree.Node) string {
	if n.Kind == xmltree.TextNode {
		return n.Value
	}
	var b strings.Builder
	appendText(&b, n)
	return b.String()
}

func appendText(b *strings.Builder, n *xmltree.Node) {
	if n.Kind == xmltree.TextNode {
		b.WriteString(n.Value)
		return
	}
	for _, c := range n.Children {
		if c.Kind == xmltree.AttributeNode {
			continue
		}
		appendText(b, c)
	}
}

// children returns the element children of n named name.
func children(n *xmltree.Node, name string) []*xmltree.Node {
	var out []*xmltree.Node
	for _, c := range n.Children {
		if c.Kind == xmltree.ElementNode && c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// walk follows a child-axis path from n, returning every node it reaches
// in document order.
func walk(n *xmltree.Node, path ...string) []*xmltree.Node {
	cur := []*xmltree.Node{n}
	for _, step := range path {
		var next []*xmltree.Node
		for _, c := range cur {
			next = append(next, children(c, step)...)
		}
		cur = next
	}
	return cur
}

// anyEquals is the general comparison path = "lit": some node's string
// value equals the literal.
func anyEquals(nodes []*xmltree.Node, lit string) bool {
	for _, n := range nodes {
		if stringValue(n) == lit {
			return true
		}
	}
	return false
}

// firstContains is contains(path, word) over a path that yields at most
// one node; an empty path is the empty string.
func firstContains(nodes []*xmltree.Node, word string) bool {
	if len(nodes) == 0 {
		return false
	}
	return strings.Contains(stringValue(nodes[0]), word)
}

func digests(nodes []*xmltree.Node) []uint64 {
	out := make([]uint64, len(nodes))
	for i, n := range nodes {
		out[i] = digestNode(n)
	}
	return out
}

// horizontalOracle maps the node-returning Figure 7(a) queries to each
// Item document's contribution: the digests it adds to the answer, whose
// order across fragments is the union's, so answers compare as bags.
var horizontalOracle = map[string]func(item *xmltree.Node) []uint64{
	"HQ1": func(i *xmltree.Node) []uint64 {
		if anyEquals(children(i, "Section"), "CD") {
			return digests(children(i, "Name"))
		}
		return nil
	},
	"HQ2": func(i *xmltree.Node) []uint64 {
		if anyEquals(children(i, "Code"), "I000007") {
			return []uint64{digestNode(i)}
		}
		return nil
	},
	"HQ3": func(i *xmltree.Node) []uint64 {
		if anyEquals(children(i, "Section"), "DVD") {
			return []uint64{digestNode(i)}
		}
		return nil
	},
	"HQ4": func(i *xmltree.Node) []uint64 {
		if len(children(i, "Characteristics")) > 0 {
			return digests(children(i, "Code"))
		}
		return nil
	},
	"HQ5": func(i *xmltree.Node) []uint64 {
		if firstContains(children(i, "Description"), "good") {
			return digests(children(i, "Code"))
		}
		return nil
	},
	"HQ6": func(i *xmltree.Node) []uint64 {
		if anyEquals(children(i, "Section"), "Book") && firstContains(children(i, "Description"), "excellent") {
			return digests(children(i, "Name"))
		}
		return nil
	},
}

// horizontalCounts are the count() queries of the set, each counting the
// items one predicate selects.
var horizontalCounts = map[string]func(item *xmltree.Node) bool{
	"HQ7": func(i *xmltree.Node) bool { return anyEquals(children(i, "Section"), "CD") },
	"HQ8": func(i *xmltree.Node) bool { return firstContains(children(i, "Description"), "good") },
}

// verticalOracle works out a Figure 7(c) query over whole articles, in
// document order.
var verticalOracle = map[string]func(article *xmltree.Node) []uint64{
	"VQ4": func(a *xmltree.Node) []uint64 {
		if anyEquals(walk(a, "prolog", "genre"), "theory") {
			return digests(walk(a, "body", "section", "title"))
		}
		return nil
	},
	"VQ7": func(a *xmltree.Node) []uint64 {
		if firstContains(walk(a, "body"), "defective") {
			return digests(walk(a, "prolog", "title"))
		}
		return nil
	},
	"VQ8": func(a *xmltree.Node) []uint64 {
		if anyEquals(walk(a, "prolog", "genre"), "security") {
			return []uint64{digestNode(a)}
		}
		return nil
	},
}

// bag is a multiset of digests.
type bag map[uint64]int

func (b bag) addAll(ds []uint64) {
	for _, d := range ds {
		b[d]++
	}
}

// truth is everything a horizontal-set query can return over a growing
// item list: each item's contribution, and the bag (or count) of the
// first base items, which are always visible.
type truth struct {
	count   bool
	contrib [][]uint64 // per item, for node-returning queries
	hit     []bool     // per item, for count queries
	base    bag
	baseN   int
	n0      int
}

// newTruth works out query id over items, of which the first n0 are
// published before any read.
func newTruth(id string, items []*xmltree.Document, n0 int) (*truth, error) {
	t := &truth{n0: n0, base: bag{}}
	if pred, ok := horizontalCounts[id]; ok {
		t.count = true
		t.hit = make([]bool, len(items))
		for i, d := range items {
			t.hit[i] = pred(d.Root)
			if i < n0 && t.hit[i] {
				t.baseN++
			}
		}
		return t, nil
	}
	fn, ok := horizontalOracle[id]
	if !ok {
		return nil, fmt.Errorf("no oracle for %s", id)
	}
	t.contrib = make([][]uint64, len(items))
	for i, d := range items {
		t.contrib[i] = fn(d.Root)
		if i < n0 {
			t.base.addAll(t.contrib[i])
		}
	}
	return t, nil
}

// check compares an answer with the items visible to a read: every one
// of items[:lo] must be in it and nothing beyond items[:hi] may be.
// It returns "" when the answer fits, otherwise what is wrong.
func (t *truth) check(items xquery.Seq, lo, hi int) string {
	if t.count {
		if len(items) != 1 {
			return fmt.Sprintf("count returned %d items", len(items))
		}
		n, ok := countValue(items[0])
		if !ok {
			return fmt.Sprintf("count returned %T %v", items[0], items[0])
		}
		low, high := t.baseN, t.baseN
		for i := t.n0; i < hi; i++ {
			if t.hit[i] {
				if i < lo {
					low++
				}
				high++
			}
		}
		if n < low || n > high {
			return fmt.Sprintf("count %d outside [%d, %d]", n, low, high)
		}
		return ""
	}
	lowAdd, highAdd := bag{}, bag{}
	for i := t.n0; i < hi; i++ {
		if i < lo {
			lowAdd.addAll(t.contrib[i])
		}
		highAdd.addAll(t.contrib[i])
	}
	got := make(bag, len(items))
	for _, it := range items {
		got[digestItem(it)]++
	}
	for d, n := range t.base {
		if got[d] < n+lowAdd[d] {
			return fmt.Sprintf("answer of %d items misses an expected item", len(items))
		}
	}
	for d, n := range lowAdd {
		if got[d] < t.base[d]+n {
			return fmt.Sprintf("answer of %d items misses an acknowledged item", len(items))
		}
	}
	for d, n := range got {
		if n > t.base[d]+highAdd[d] {
			return fmt.Sprintf("answer of %d items holds an item that was not stored", len(items))
		}
	}
	return ""
}

// countValue reads a count() result as an integer.
func countValue(it xquery.Item) (int, bool) {
	switch v := it.(type) {
	case float64:
		if v != float64(int(v)) {
			return 0, false
		}
		return int(v), true
	case int:
		return v, true
	case int64:
		return int(v), true
	}
	return 0, false
}

// orderedExpectation is an answer whose items must match in order.
type orderedExpectation []uint64

func (o orderedExpectation) check(items xquery.Seq) string {
	if len(items) != len(o) {
		return fmt.Sprintf("answer has %d items, want %d", len(items), len(o))
	}
	for i, it := range items {
		if digestItem(it) != o[i] {
			return fmt.Sprintf("item %d of %d differs", i, len(o))
		}
	}
	return ""
}

// verticalExpectation is a vertical-set query's answer over articles.
func verticalExpectation(id string, articles []*xmltree.Document) (orderedExpectation, error) {
	fn, ok := verticalOracle[id]
	if !ok {
		return nil, fmt.Errorf("no oracle for %s", id)
	}
	var out orderedExpectation
	for _, d := range articles {
		out = append(out, fn(d.Root)...)
	}
	return out, nil
}
