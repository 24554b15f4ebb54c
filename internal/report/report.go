// Package report renders experiment results as aligned markdown tables —
// the format cmd/lbreport writes and EXPERIMENTS.md records.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a simple markdown table builder.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table as aligned markdown.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", w, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return ""
	}
	return b.String()
}

// tableJSON is the wire form of a Table: headers plus rows of rendered
// cells. Cells are strings — exactly what the markdown renderer prints —
// so the JSON and markdown forms of a report carry identical content.
type tableJSON struct {
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON encodes the table as {"headers": [...], "rows": [[...]]}.
// Empty headers and rows encode as [] rather than null, so an empty table
// round-trips to an empty table.
func (t *Table) MarshalJSON() ([]byte, error) {
	j := tableJSON{Headers: t.headers, Rows: t.rows}
	if j.Headers == nil {
		j.Headers = []string{}
	}
	if j.Rows == nil {
		j.Rows = [][]string{}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the MarshalJSON form.
func (t *Table) UnmarshalJSON(data []byte) error {
	var j tableJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	t.headers = j.Headers
	t.rows = j.Rows
	return nil
}

// Doc is an experiment-section sink that renders markdown exactly like a
// plain io.Writer would while also recording every table added through
// Table, so one experiment run can serve both the markdown report
// (cmd/lbreport) and the structured JSON result (internal/jobs) from a
// single execution. Doc implements io.Writer: existing Section/Fprintln
// call sites work unchanged.
type Doc struct {
	b      strings.Builder
	tables []*Table
}

// Write implements io.Writer over the markdown buffer.
func (d *Doc) Write(p []byte) (int, error) { return d.b.Write(p) }

// Table renders t into the markdown buffer and records it.
func (d *Doc) Table(t *Table) error {
	d.tables = append(d.tables, t)
	_, err := t.WriteTo(&d.b)
	return err
}

// Markdown returns everything rendered so far.
func (d *Doc) Markdown() string { return d.b.String() }

// Tables returns the recorded tables in render order.
func (d *Doc) Tables() []*Table { return append([]*Table(nil), d.tables...) }

// Check renders a pass/fail cell from an error.
func Check(err error) string {
	if err == nil {
		return "ok"
	}
	return "FAIL: " + err.Error()
}

// Bool renders a boolean as ok/FAIL.
func Bool(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// Section writes a markdown heading.
func Section(w io.Writer, level int, format string, args ...any) {
	fmt.Fprintf(w, "\n%s %s\n\n", strings.Repeat("#", level), fmt.Sprintf(format, args...))
}

// Timing writes the per-experiment wall-clock line cmd/lbreport appends
// after each section. The line is the report's only nondeterministic
// content; StripTimings removes it for byte-for-byte comparisons.
func Timing(w io.Writer, label string, d time.Duration) {
	fmt.Fprintf(w, "\n_%s wall-clock: %s_\n", label, d.Round(time.Millisecond))
}
