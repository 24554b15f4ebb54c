package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickReportRuns executes the full report pipeline at quick sizes and
// sanity-checks that every experiment section renders with passing checks.
func TestQuickReportRuns(t *testing.T) {
	var b strings.Builder
	if err := run(&b, options{Quick: true, Parallel: 4, Timing: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, section := range []string{
		"E1 —", "E2 —", "E3 —", "E4/E5 —", "E6 —", "E7/E8 —", "E9 —", "E10 —", "E11 —", "E12 —",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("report missing section %q", section)
		}
	}
	if strings.Contains(out, "FAIL") {
		i := strings.Index(out, "FAIL")
		t.Fatalf("report contains a failing check near: %q", out[max(0, i-120):i+60])
	}
	if !strings.Contains(out, "measured growth: logarithmic") {
		t.Error("group-update growth classification missing")
	}
	if !strings.Contains(out, "measured growth: linear") {
		t.Error("herlihy growth classification missing")
	}
	for _, label := range []string{"_E1 wall-clock: ", "_E4/E5 wall-clock: ", "_E12 wall-clock: "} {
		if !strings.Contains(out, label) {
			t.Errorf("report missing timing line %q", label)
		}
	}
}

// TestParallelReportByteIdentical is the determinism contract of the sweep
// engine end to end: without its wall-clock lines (-timing=false), the
// -parallel 8 report must be byte-identical to the -parallel 1 (serial)
// report.
func TestParallelReportByteIdentical(t *testing.T) {
	var serial, parallel strings.Builder
	if err := run(&serial, options{Quick: true, Parallel: 1, Timing: false}); err != nil {
		t.Fatal(err)
	}
	if err := run(&parallel, options{Quick: true, Parallel: 8, Timing: false}); err != nil {
		t.Fatal(err)
	}
	got := parallel.String()
	if got != serial.String() {
		line := firstDiffLine(serial.String(), got)
		t.Fatalf("parallel report diverges from serial report at: %q", line)
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i] + " <> " + bl[i]
		}
	}
	return "length mismatch"
}

// TestFailedRunLeavesNoFile pins the atomic-output contract: a run that
// errors mid-report must leave neither the target file nor any temp file
// behind, and must not clobber a pre-existing report.
func TestFailedRunLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.md")
	boom := errors.New("experiment exploded")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "# partial report\n"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the generator error", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed run left %s behind", path)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("failed run left stray files: %v", left)
	}

	// A failing regeneration must not touch an existing report either.
	if err := os.WriteFile(path, []byte("previous good report"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous good report" {
		t.Fatalf("failed run clobbered the existing report: %q", got)
	}
}

// TestWriteFileAtomicSuccess checks the success path renames the full
// content into place and leaves no temp file behind.
func TestWriteFileAtomicSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.md")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "# full report\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "# full report\n" {
		t.Fatalf("content = %q", got)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestEmitBadDirectoryErrors: -o into a nonexistent directory must fail
// up front rather than Fatal from a defer.
func TestEmitBadDirectoryErrors(t *testing.T) {
	err := emit(filepath.Join(t.TempDir(), "no", "such", "dir", "report.md"),
		options{Quick: true, Parallel: 1})
	if err == nil {
		t.Fatal("expected an error for an unwritable path")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
