package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("n", "steps")
	tbl.AddRow(8, 12)
	tbl.AddRow(1024, 3)
	got := tbl.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), got)
	}
	if !strings.Contains(lines[0], "n") || !strings.Contains(lines[0], "steps") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "|--") {
		t.Fatalf("separator wrong: %q", lines[1])
	}
	if !strings.Contains(lines[3], "1024") {
		t.Fatalf("row wrong: %q", lines[3])
	}
	// All rows must have equal width (aligned).
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows not aligned:\n%s", got)
	}
}

func TestTableShortRow(t *testing.T) {
	tbl := NewTable("a", "b")
	tbl.AddRow(1) // fewer cells than headers
	if !strings.Contains(tbl.String(), "1") {
		t.Fatal("short row dropped")
	}
}

func TestCheckAndBool(t *testing.T) {
	if Check(nil) != "ok" {
		t.Fatal("Check(nil)")
	}
	if got := Check(errors.New("boom")); got != "FAIL: boom" {
		t.Fatalf("Check(err) = %q", got)
	}
	if Bool(true) != "ok" || Bool(false) != "FAIL" {
		t.Fatal("Bool wrong")
	}
}

func TestSection(t *testing.T) {
	var b strings.Builder
	Section(&b, 2, "E%d %s", 1, "wakeup")
	if !strings.Contains(b.String(), "## E1 wakeup") {
		t.Fatalf("Section = %q", b.String())
	}
}

// TestTableJSONRoundTrip: marshal → unmarshal must preserve the table, and
// the rendered markdown must be identical on both sides.
func TestTableJSONRoundTrip(t *testing.T) {
	tbl := NewTable("n", "steps", "check")
	tbl.AddRow(2, 1, "ok")
	tbl.AddRow(1024, 5, "FAIL: boom")
	data, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"headers":["n","steps","check"],"rows":[["2","1","ok"],["1024","5","FAIL: boom"]]}`
	if string(data) != want {
		t.Fatalf("json = %s, want %s", data, want)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != tbl.String() {
		t.Fatalf("round-trip changed the table:\n%s\nvs\n%s", back.String(), tbl.String())
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-marshal differs: %s vs %s", again, data)
	}
}

// TestTableJSONEmpty: an empty table encodes with [] (never null) and
// round-trips to an empty table.
// TestTimingLine pins the wall-clock line Timing appends after a section:
// its own paragraph, rounded to the millisecond.
func TestTimingLine(t *testing.T) {
	var b strings.Builder
	Section(&b, 2, "E1")
	before := b.String()
	Timing(&b, "E1", 1234567*time.Microsecond)
	if got, want := b.String(), before+"\n_E1 wall-clock: 1.235s_\n"; got != want {
		t.Fatalf("report with timing = %q, want %q", got, want)
	}
}

func TestTableJSONEmpty(t *testing.T) {
	data, err := json.Marshal(&Table{})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"headers":[],"rows":[]}` {
		t.Fatalf("empty table json = %s", data)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.headers) != 0 || len(back.rows) != 0 {
		t.Fatalf("empty table round-trip: %+v", back)
	}

	headersOnly := NewTable("a", "b")
	data, err = json.Marshal(headersOnly)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"headers":["a","b"],"rows":[]}` {
		t.Fatalf("headers-only json = %s", data)
	}
}

// TestDocCapturesTablesAndMarkdown: a Doc renders byte-identically to a
// plain writer while recording the tables passed through it.
func TestDocCapturesTablesAndMarkdown(t *testing.T) {
	render := func(w io.Writer, table func(*Table) error) {
		Section(w, 2, "E%d — demo", 1)
		fmt.Fprintln(w, "preamble")
		tbl := NewTable("x")
		tbl.AddRow(7)
		if err := table(tbl); err != nil {
			t.Fatal(err)
		}
	}
	var plain strings.Builder
	render(&plain, func(tb *Table) error { _, err := tb.WriteTo(&plain); return err })
	var doc Doc
	render(&doc, doc.Table)
	if doc.Markdown() != plain.String() {
		t.Fatalf("Doc markdown diverges:\n%q\nvs\n%q", doc.Markdown(), plain.String())
	}
	tables := doc.Tables()
	if len(tables) != 1 || tables[0].rows[0][0] != "7" {
		t.Fatalf("Doc recorded tables = %+v", tables)
	}
}
