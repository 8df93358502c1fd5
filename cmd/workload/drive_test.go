package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/kernel"
	"gapbench/internal/report"
	"gapbench/internal/serve"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("BFS:3,PR:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].kernel != "BFS" || mix[1].kernel != "PR" {
		t.Fatalf("mix = %+v", mix)
	}
	if mix[0].bound != 0.75 || mix[1].bound != 1.0 {
		t.Errorf("bounds = %v, %v, want 0.75, 1.0", mix[0].bound, mix[1].bound)
	}
	if _, err := parseMix("BC:1"); err == nil {
		t.Error("unserved kernel BC accepted")
	}
	if _, err := parseMix("BFS:-2"); err == nil {
		t.Error("negative weight accepted")
	}
	// The default mix covers all four served kernels.
	def, err := parseMix("")
	if err != nil || len(def) != 4 {
		t.Fatalf("default mix = %+v, %v", def, err)
	}
	// Sampling respects the weights roughly.
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[pickKernel(mix, rng)]++
	}
	if counts["BFS"] < 2700 || counts["BFS"] > 3300 {
		t.Errorf("BFS drawn %d/4000 with weight 3/4", counts["BFS"])
	}
}

func TestSourcePickerZipfSkews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newSourcePicker(rng, 1<<10, 1.5)
	low := 0
	for i := 0; i < 1000; i++ {
		v := p.pick()
		if v < 0 || v >= 1<<10 {
			t.Fatalf("source %d out of range", v)
		}
		if v < 8 {
			low++
		}
	}
	if low < 500 {
		t.Errorf("zipf 1.5 put only %d/1000 draws in the top 8 vertices", low)
	}
	// Uniform mode covers the range without the skew.
	u := newSourcePicker(rng, 1<<10, 0)
	low = 0
	for i := 0; i < 1000; i++ {
		if u.pick() < 8 {
			low++
		}
	}
	if low > 100 {
		t.Errorf("uniform picker drew %d/1000 from the top 8 vertices", low)
	}
}

// TestDriveEndToEnd runs the full driver against an in-process daemon:
// closed-loop and Poisson modes, JSONL records, the bench line, and the
// summary totals all agree.
func TestDriveEndToEnd(t *testing.T) {
	in, err := core.LoadInput(core.GraphSpec{Name: "Kron", Scale: 6, Seed: 1, Delta: 16, SourceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close() })
	srv, err := serve.NewServer(serve.Config{PoolSize: 2, Workers: 2, Logf: t.Logf},
		[]*core.Input{in}, []kernel.Framework{core.FrameworkByName("GAP")})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "gapd.sock")
	l, err := serve.Listen("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Shutdown(5 * time.Second) })

	recPath := filepath.Join(t.TempDir(), "records.jsonl")
	var out strings.Builder
	err = runDrive(driveConfig{
		Addr:     "unix:" + sock,
		Clients:  3,
		Duration: 400 * time.Millisecond,
		Mix:      "BFS:2,PR:1,CC:1",
		Zipf:     1.3,
		Records:  recPath,
		Bench:    "Serve/test/c3",
		Seed:     1,
	}, &out)
	if err != nil {
		t.Fatalf("closed-loop drive: %v\noutput: %s", err, out.String())
	}
	// One graph, one framework: the PR and CC halves of the mix cost at most
	// two whole-graph kernel runs however many queries were sent.
	if st := srv.StatsSnapshot(); st.SnapshotBuilds != 2 || st.SnapshotHits == 0 {
		t.Errorf("snapshot_builds=%d snapshot_hits=%d, want 2 builds and the rest hits", st.SnapshotBuilds, st.SnapshotHits)
	}
	for _, want := range []string{"closed loop", "throughput", "p99", "daemon: accepted=", "snapshot_builds=2 ", "BenchmarkServe/test/c3 1 "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("driver output missing %q:\n%s", want, out.String())
		}
	}

	// The JSONL records decode and match the daemon's view: every record OK
	// (nothing in this run sheds or faults), kernels within the mix.
	f, err := os.Open(recPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var n int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec report.QueryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.Code != "OK" {
			t.Errorf("record %d: code %s (%s)", n, rec.Code, rec.Kernel)
		}
		// Two clocks, never mixed: the round trip the client saw contains the
		// service time the daemon reported for it.
		if rec.Micros <= 0 || rec.ServerMicros > rec.Micros {
			t.Errorf("record %d: client %d us, server %d us", n, rec.Micros, rec.ServerMicros)
		}
		switch rec.Kernel {
		case "BFS", "PR", "CC":
		default:
			t.Errorf("record %d: kernel %q outside the mix", n, rec.Kernel)
		}
		n++
	}
	if n == 0 {
		t.Fatal("driver recorded no queries")
	}
	st := srv.StatsSnapshot()
	if st.OK != int64(n) {
		t.Errorf("daemon served %d OK, driver recorded %d", st.OK, n)
	}

	// Poisson mode: a modest offered rate yields roughly rate*duration
	// arrivals and an open-loop pacing note in the header.
	out.Reset()
	err = runDrive(driveConfig{
		Addr:     "unix:" + sock,
		Clients:  2,
		Duration: 500 * time.Millisecond,
		Rate:     100,
		Mix:      "CC:1",
		Seed:     2,
	}, &out)
	if err != nil {
		t.Fatalf("poisson drive: %v", err)
	}
	if !strings.Contains(out.String(), "poisson 100.0 qps offered") {
		t.Errorf("poisson header missing:\n%s", out.String())
	}
}
