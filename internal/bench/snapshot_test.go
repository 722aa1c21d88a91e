package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// healthySnapshot holds one point per section, every invariant holding.
func healthySnapshot() Snapshot {
	held := BoundContract{Bound: 1000, GarbagePeak: 400}
	return Snapshot{
		Schema:    SnapshotSchema,
		Workloads: []WorkloadPoint{{DS: "dgt", Scheme: "nbr+", Threads: 8, KeyRange: 1000, Mops: 2, BoundContract: held}},
		Runtime: []RuntimePoint{
			{Structures: "lazylist+dgt", Scheme: "nbr+", Slots: 8, Workers: 12, Mops: 1, Drained: true, BoundContract: held},
			{Structures: "lazylist+dgt", Scheme: "nbr+", Slots: 8, Workers: 12, Mops: 1, Drained: true, BoundContract: held,
				Stall: true, Reaped: 40, RevokedReleases: 40},
		},
		ResizeBurst: []ResizeBurstPoint{{Scheme: "ibr", Mode: "segment", Threads: 8, Retired: 4088,
			StampsPerRecord: 0.003, ScansPerRecord: 0.003, Drained: true, BoundContract: held}},
		Widths:    []WidthPoint{{DS: "lazylist", Threads: 8, DeclaredEntries: 16, RuntimeEntries: 16}},
		ScanCost:  []ScanCostPoint{{Threads: 8, Slots: 4, Entries: 32, NsPerScan: 1000}},
		FreeBurst: []FreeBurstPoint{{Shards: 4, Goroutines: 8, Burst: 256, NsPerOp: 28}},
	}
}

// TestPointViolations doctors a healthy snapshot once per invariant and
// requires exactly that one violation — the contract `nbrbench -snapshot
// -assert-bound` blocks on. The width gap and scan allocations had no
// blocking check before Violations existed.
func TestPointViolations(t *testing.T) {
	if v := healthySnapshot().Violations(); len(v) != 0 {
		t.Fatalf("healthy snapshot reports violations: %q", v)
	}
	cases := []struct {
		name   string
		doctor func(s *Snapshot)
		want   string
	}{
		{"bound exceeded", func(s *Snapshot) { s.Workloads[0].GarbagePeak = 1001 },
			"workload dgt/nbr+ t=8 range=1000: garbage peak 1001 > declared bound 1000"},
		{"not drained", func(s *Snapshot) { s.Runtime[0].Drained = false },
			"runtime lazylist+dgt/nbr+ t=8 w=12: drain left retired != freed (0 freed)"},
		{"reaps off stall", func(s *Snapshot) { s.Runtime[0].Reaped = 3 },
			"runtime lazylist+dgt/nbr+ t=8 w=12: 3 holders reaped in a cell with no stall injection"},
		{"no reaps under stall", func(s *Snapshot) { s.Runtime[1].Reaped = 0 },
			"runtime lazylist+dgt/nbr+ t=8 w=12 stall: stall injection reaped nothing (revocation path dead)"},
		{"width gap", func(s *Snapshot) { s.Widths[0].RuntimeEntries = 24 },
			"width lazylist t=8: runtime scans 24 announcement entries where the structure declares 16"},
		{"scan allocs", func(s *Snapshot) { s.ScanCost[0].AllocsPerOp = 1 },
			"scan N=8 R=4: reservation scan allocates 1 times per scan; the flat scratch must not"},
		{"segment amortization", func(s *Snapshot) { s.ResizeBurst[0].StampsPerRecord = 0.2 },
			"resize ibr/segment t=8: segment mode pays 0.2030 stamps+scans per retired record, under 8x below the per-node floor of 1.0"},
	}
	for _, c := range cases {
		s := healthySnapshot()
		c.doctor(&s)
		if got := s.Violations(); len(got) != 1 || got[0] != c.want {
			t.Errorf("%s: violations = %q, want exactly %q", c.name, got, c.want)
		}
	}

	// The same contracts elsewhere: the bound on every end-to-end point type,
	// the drain on the resize cells, and the per-node baseline exempt from the
	// amortization it is the floor of. A violating runtime cell brings its
	// flight-recorder tail along.
	s := healthySnapshot()
	s.Runtime[0].GarbagePeak, s.ResizeBurst[0].GarbagePeak = 1001, 1001
	s.Runtime[0].EventTail = "t3 read-phase open\n"
	s.ResizeBurst = append(s.ResizeBurst, ResizeBurstPoint{Scheme: "ibr", Mode: "per-node", Threads: 8,
		StampsPerRecord: 1, ScansPerRecord: 0.5, BoundContract: s.Workloads[0].BoundContract})
	got := strings.Join(s.Violations(), "\n")
	for _, want := range []string{
		"w=12: garbage peak 1001", "flight recorder tail for runtime lazylist+dgt/nbr+ t=8 w=12:\n    t3 read-phase open",
		"resize ibr/segment t=8: garbage peak 1001", "resize ibr/per-node t=8: drain left",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("violations miss %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "per-node t=8: segment mode") || len(s.Violations()) != 4 {
		t.Errorf("want 4 violations and none about the per-node cell's amortization:\n%s", got)
	}
}

// TestCommittedSnapshotsJudgeClean reads the committed history as it was
// recorded: every root BENCH_*.json loads, its cells keep distinct keys (two
// cells sharing one would make CompareSnapshots diff the wrong pair — the
// per-node resize cells of BENCH_7…19 are told from their segment siblings
// only by Mode), and no cell breaks an invariant under today's Violations.
func TestCommittedSnapshotsJudgeClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 19 {
		t.Fatalf("found %d committed snapshots, want at least 19", len(paths))
	}
	for _, path := range paths {
		s, err := ReadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range s.points() {
			if k := p.key(); seen[k] {
				t.Errorf("%s: two cells share the key %q", filepath.Base(path), k)
			} else {
				seen[k] = true
			}
		}
		if v := s.Violations(); len(v) != 0 {
			t.Errorf("%s: %d violations:\n  %s", filepath.Base(path), len(v), strings.Join(v, "\n  "))
		}
	}
}

// TestTrendCommittedGolden is the oracle for the one-loop diff: the report
// over the committed BENCH_1…9 trajectory, captured from the six-copy
// CompareSnapshots this loop replaced, must come out byte for byte — cells,
// metrics, values, percentages, REGRESSION/UNTRUSTED tags and order.
func TestTrendCommittedGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "trend_committed.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, n := range "123456789" {
		paths = append(paths, "BENCH_"+string(n)+".json")
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/nbrtrend", "-all-hosts"}, paths...)...)
	cmd.Dir = filepath.Join("..", "..")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("nbrtrend: %v\n%s", err, stderr.String())
	}
	if !bytes.Equal(got, golden) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(golden), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trend report diverges from the golden at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trend report has %d lines, golden %d", len(gl), len(wl))
	}
}

// populate sets every field of a struct to a non-zero value, so omitempty
// hides nothing when it is marshalled.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		if _, isTime := v.Interface().(time.Time); isTime {
			return // marshals as a string whatever it holds
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				populate(v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1)
	}
}

// TestSnapshotLayoutV10 pins the on-disk layout without running the suite: a
// marshalled Snapshot holding one fully populated point per section has
// exactly BENCH_18.json's keys, at the top level and section by section (the
// union over a section's cells, since omitempty columns appear only where
// they are set).
func TestSnapshotLayoutV10(t *testing.T) {
	keys := func(data []byte) map[string][]string {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		out := map[string][]string{}
		for section, raw := range doc {
			out[""] = append(out[""], section)
			var cells []map[string]json.RawMessage
			if json.Unmarshal(raw, &cells) != nil {
				continue // a scalar header field
			}
			for _, cell := range cells {
				for k := range cell {
					if !slices.Contains(out[section], k) {
						out[section] = append(out[section], k)
					}
				}
			}
		}
		for _, ks := range out {
			slices.Sort(ks)
		}
		return out
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_18.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	populate(reflect.ValueOf(&s).Elem())
	if n := len(s.points()); n != 6 {
		t.Fatalf("populated snapshot holds %d points, want one per section", n)
	}
	ours, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want, got := keys(committed), keys(ours)
	if !reflect.DeepEqual(got, want) {
		for section := range want {
			if !slices.Equal(got[section], want[section]) {
				t.Errorf("section %q keys:\n got %v\nwant %v", section, got[section], want[section])
			}
		}
		t.Fatalf("layout differs from BENCH_18.json (sections: got %v, want %v)", got[""], want[""])
	}
}
