package main

import (
	"strings"
	"testing"

	"partix/internal/xmltree"
	"partix/internal/xquery"
)

func el(name string, kids ...*xmltree.Node) *xmltree.Node { return xmltree.NewElement(name, kids...) }

func leaf(name, text string) *xmltree.Node { return el(name, xmltree.NewText(text)) }

// item builds <Item><Code/><Name/><Description/><Section/>[<Characteristics/>]</Item>.
func item(code, name, desc, section string, characteristics bool) *xmltree.Document {
	root := el("Item", leaf("Code", code), leaf("Name", name), leaf("Description", desc), leaf("Section", section))
	if characteristics {
		root.Append(leaf("Characteristics", "red and round"))
	}
	return xmltree.NewDocument(code, root)
}

func handItems() []*xmltree.Document {
	return []*xmltree.Document{
		item("I000001", "lamp", "a good lamp", "CD", true),
		item("I000002", "disc", "rather bad", "DVD", false),
		item("I000003", "book", "excellent and good", "Book", true),
		item("I000007", "lamp", "plain", "CD", false),
	}
}

func seqOf(nodes ...*xmltree.Node) xquery.Seq {
	out := make(xquery.Seq, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out
}

func TestStringValueConcatenatesTextInDocumentOrder(t *testing.T) {
	n := el("body", el("p", xmltree.NewText("defec")), el("p", xmltree.NewText("tive")))
	if got := stringValue(n); got != "defective" {
		t.Fatalf("stringValue = %q", got)
	}
	if !firstContains([]*xmltree.Node{n}, "defective") {
		t.Fatal("contains must see text across element boundaries, as XPath does")
	}
}

func TestStringValueLeavesOutAttributes(t *testing.T) {
	section := el("Section", xmltree.NewAttr("kind", "DVD"), xmltree.NewText("CD"))
	desc := el("Description", xmltree.NewAttr("note", "good"), xmltree.NewText("plain"))
	if got := stringValue(section); got != "CD" || got != section.Text() {
		t.Fatalf("stringValue = %q, xmltree says %q", got, section.Text())
	}
	if got := stringValue(section.Children[0]); got != "DVD" {
		t.Fatalf("an attribute's string value is its value, got %q", got)
	}
	if !anyEquals([]*xmltree.Node{section}, "CD") || anyEquals([]*xmltree.Node{section}, "DVDCD") {
		t.Fatal("= compares the element's content only")
	}
	if firstContains([]*xmltree.Node{desc}, "good") {
		t.Fatal("contains must not see attribute values")
	}
	root := el("Item", leaf("Code", "I9"), leaf("Name", "n"), desc, section)
	if got := horizontalOracle["HQ1"](root); len(got) != 1 {
		t.Fatalf("HQ1 selects the CD item by content, got %d names", len(got))
	}
	if got := horizontalOracle["HQ5"](root); len(got) != 0 {
		t.Fatalf("HQ5 must not match a word in an attribute, got %d codes", len(got))
	}
	if digestNode(section) == digestNode(el("Section", xmltree.NewAttr("kind", "CD"), xmltree.NewText("CD"))) {
		t.Fatal("attribute values are part of the digest")
	}
}

func TestDigestIgnoresNodeIDsButNotContent(t *testing.T) {
	a := item("I1", "n", "d", "CD", true).Root
	b := item("I1", "n", "d", "CD", true).Root
	b.ID += 100
	if digestNode(a) != digestNode(b) {
		t.Fatal("equal content must digest equally")
	}
	if digestNode(a) == digestNode(item("I1", "n", "d", "DVD", true).Root) {
		t.Fatal("different content must digest differently")
	}
	if digestNode(leaf("Code", "x")) == digestNode(leaf("Name", "x")) {
		t.Fatal("element names are part of the digest")
	}
	if digestItem(float64(3)) != digestItem(3) {
		t.Fatal("a count digests the same as a float or an int")
	}
}

func TestHorizontalAnswersOnHandBuiltItems(t *testing.T) {
	items := handItems()
	codes := func(idx ...int) xquery.Seq {
		var out xquery.Seq
		for _, i := range idx {
			out = append(out, leaf("Code", items[i].Name))
		}
		return out
	}
	cases := []struct {
		id   string
		good xquery.Seq
		bad  []xquery.Seq
	}{
		// Characteristics present on items 0 and 2; order across
		// fragments is free.
		{"HQ4", codes(2, 0), []xquery.Seq{codes(0), codes(0, 1, 2), codes(0, 2, 2)}},
		// "good" in the descriptions of items 0 and 2.
		{"HQ5", codes(0, 2), []xquery.Seq{codes(0), codes(0, 2, 3)}},
		{"HQ8", xquery.Seq{float64(2)}, []xquery.Seq{{float64(1)}, {float64(3)}, {}}},
		{"HQ7", xquery.Seq{float64(2)}, []xquery.Seq{{float64(4)}}},
		{"HQ2", seqOf(items[3].Root), []xquery.Seq{seqOf(items[0].Root), {}}},
		{"HQ1", seqOf(leaf("Name", "lamp"), leaf("Name", "lamp")), []xquery.Seq{seqOf(leaf("Name", "lamp"))}},
		{"HQ6", seqOf(leaf("Name", "book")), []xquery.Seq{{}}},
		{"HQ3", seqOf(items[1].Root), []xquery.Seq{seqOf(items[1].Root, items[1].Root)}},
	}
	for _, c := range cases {
		tr, err := newTruth(c.id, items, len(items))
		if err != nil {
			t.Fatal(err)
		}
		if msg := tr.check(c.good, len(items), len(items)); msg != "" {
			t.Errorf("%s: correct answer rejected: %s", c.id, msg)
		}
		for i, bad := range c.bad {
			if tr.check(bad, len(items), len(items)) == "" {
				t.Errorf("%s: wrong answer %d accepted", c.id, i)
			}
		}
	}
}

func TestBoundsWhileItemsAreWritten(t *testing.T) {
	items := handItems()
	more := item("I000009", "vase", "good", "CD", true)
	all := append(items, more)
	hq1, _ := newTruth("HQ1", all, len(items))
	hq7, _ := newTruth("HQ7", all, len(items))
	old := seqOf(leaf("Name", "lamp"), leaf("Name", "lamp"))
	withNew := append(old, leaf("Name", "vase"))
	// Write issued but not yet acknowledged: either answer is right.
	for _, ans := range []xquery.Seq{old, withNew} {
		if msg := hq1.check(ans, 4, 5); msg != "" {
			t.Errorf("in-flight write: %s", msg)
		}
	}
	if msg := hq7.check(xquery.Seq{float64(3)}, 4, 5); msg != "" {
		t.Errorf("in-flight count: %s", msg)
	}
	// Acknowledged before the read: the new item must show.
	if hq1.check(old, 5, 5) == "" {
		t.Error("acknowledged item missing but accepted")
	}
	if hq7.check(xquery.Seq{float64(2)}, 5, 5) == "" {
		t.Error("count without the acknowledged item accepted")
	}
	// Not issued before the read returned: the new item must not show.
	if hq1.check(withNew, 4, 4) == "" {
		t.Error("item from the future accepted")
	}
}

func article(id, genre, title, body string, sections ...string) *xmltree.Document {
	bodyEl := el("body", leaf("abstract", body))
	for _, s := range sections {
		bodyEl.Append(el("section", leaf("title", s), leaf("p", "text")))
	}
	root := el("article", xmltree.NewAttr("id", id),
		el("prolog", leaf("title", title), leaf("genre", genre)),
		bodyEl,
		el("epilog", leaf("country", "Brazil")))
	return xmltree.NewDocument(id, root)
}

func TestVerticalAnswersInDocumentOrder(t *testing.T) {
	arts := []*xmltree.Document{
		article("a1", "theory", "T1", "a defective proof", "s1", "s2"),
		article("a2", "security", "T2", "fine", "s3"),
		article("a3", "theory", "T3", "fine", "s4"),
	}
	vq4, _ := verticalExpectation("VQ4", arts)
	titles := func(ts ...string) xquery.Seq {
		var out xquery.Seq
		for _, s := range ts {
			out = append(out, leaf("title", s))
		}
		return out
	}
	if msg := vq4.check(titles("s1", "s2", "s4")); msg != "" {
		t.Errorf("VQ4: %s", msg)
	}
	if vq4.check(titles("s4", "s1", "s2")) == "" {
		t.Error("VQ4: out-of-order answer accepted")
	}
	vq7, _ := verticalExpectation("VQ7", arts)
	if msg := vq7.check(titles("T1")); msg != "" {
		t.Errorf("VQ7: %s", msg)
	}
	vq8, _ := verticalExpectation("VQ8", arts)
	if msg := vq8.check(seqOf(arts[1].Root)); msg != "" {
		t.Errorf("VQ8: %s", msg)
	}
	changed := article("a2", "security", "T2", "changed", "s3")
	if vq8.check(seqOf(changed.Root)) == "" {
		t.Error("VQ8: article with different body accepted")
	}
	if _, err := verticalExpectation("VQ1", arts); err == nil || !strings.Contains(err.Error(), "VQ1") {
		t.Error("a query without an oracle must be refused")
	}
}
