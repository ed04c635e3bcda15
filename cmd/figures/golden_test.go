package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hotprefetch/internal/experiment"
	"hotprefetch/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden CSV files from a fresh run")

// TestFigureCSVGolden is the conformance test for the -format csv output the
// paper-reproduction scripts consume: the Figure 11 and Figure 12 exports
// must keep their header, benchmark rows, and column count exactly as the
// golden files record them. Numeric cells are simulator-relative (they move
// when the simulator, analysis defaults, or optimizer change), so they are
// held only to being well-formed finite floats — run with -update to bless
// an intentional shift; a structural change must come with a new golden
// file in the same commit. The two figures run as parallel subtests.
func TestFigureCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Figure 11/12 simulations (~20s)")
	}
	for _, tc := range []struct {
		name   string
		golden string
		got    func() (string, error)
	}{
		{
			name:   "figure11",
			golden: filepath.Join("testdata", "figure11.csv"),
			got: func() (string, error) {
				runs, err := experiment.Figure11(nil)
				if err != nil {
					return "", err
				}
				return stats.CSVFigure11(runs), nil
			},
		},
		{
			name:   "figure12",
			golden: filepath.Join("testdata", "figure12.csv"),
			got: func() (string, error) {
				runs, err := experiment.Figure12(nil)
				if err != nil {
					return "", err
				}
				return stats.CSVFigure12(runs), nil
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := tc.got()
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(tc.golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", tc.golden)
				return
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			compareCSV(t, string(want), got)
		})
	}
}

// compareCSV holds got to the golden structure: identical header, identical
// benchmark column, identical shape — with the numeric cells required only
// to parse as finite floats.
func compareCSV(t *testing.T, want, got string) {
	t.Helper()
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("output has %d lines, golden has %d\ngot:\n%s", len(gotLines), len(wantLines), got)
	}
	if gotLines[0] != wantLines[0] {
		t.Fatalf("header = %q, want %q", gotLines[0], wantLines[0])
	}
	cols := len(strings.Split(wantLines[0], ","))
	for i := 1; i < len(wantLines); i++ {
		wantCells := strings.Split(wantLines[i], ",")
		gotCells := strings.Split(gotLines[i], ",")
		if len(gotCells) != cols || len(wantCells) != cols {
			t.Fatalf("row %d has %d columns, want %d: %q", i, len(gotCells), cols, gotLines[i])
		}
		if gotCells[0] != wantCells[0] {
			t.Fatalf("row %d benchmark = %q, want %q", i, gotCells[0], wantCells[0])
		}
		for j := 1; j < cols; j++ {
			v, err := strconv.ParseFloat(gotCells[j], 64)
			if err != nil {
				t.Fatalf("row %d column %d: %q is not a float: %v", i, j, gotCells[j], err)
			}
			if v != v || v > 1e6 || v < -1e6 {
				t.Fatalf("row %d column %d: %q is not a sane percentage", i, j, gotCells[j])
			}
		}
	}
}
