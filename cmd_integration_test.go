// Integration tests for the command-line tools: each binary is built once
// and exercised end to end on small inputs. These verify flag parsing, file
// IO and the wiring between the commands and the library — the paths unit
// tests cannot reach.
package roadnet_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"roadnet"
	"roadnet/internal/binio"
	"roadnet/internal/chaos"
	"roadnet/internal/testutil"
)

// buildCommands compiles the cmd binaries into a temp dir once per test run.
var builtCommands struct {
	dir  string
	fail string
}

func commandPath(t *testing.T, name string) string {
	t.Helper()
	if builtCommands.fail != "" {
		t.Fatalf("command build failed earlier: %s", builtCommands.fail)
	}
	if builtCommands.dir == "" {
		dir, err := os.MkdirTemp("", "roadnet-cmds")
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
			"./cmd/spexp", "./cmd/genmap", "./cmd/sproute", "./cmd/spverify", "./cmd/spserve").CombinedOutput()
		if err != nil {
			builtCommands.fail = string(out)
			t.Fatalf("building commands: %v\n%s", err, out)
		}
		builtCommands.dir = dir
	}
	return filepath.Join(builtCommands.dir, name)
}

func runCommand(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(commandPath(t, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestSpexpList: -list names every artifact of the paper's evaluation by
// the id spexp -exp takes.
func TestSpexpList(t *testing.T) {
	out := strings.Fields(runCommand(t, "spexp", "-list"))
	for _, id := range []string{"t1", "t2", "f6", "f7", "f8", "f9", "f10", "f11", "f13", "f14", "f15", "f16", "f17", "b", "ext", "knn"} {
		if !slices.Contains(out, id) {
			t.Errorf("spexp -list missing experiment %q:\n%s", id, out)
		}
	}
}

// TestSpexpRunsSingleExperiment: an id that is one slicing of a merged
// table prints that table, under a heading that says how to regenerate it.
func TestSpexpRunsSingleExperiment(t *testing.T) {
	out := runCommand(t, "spexp", "-exp", "f9", "-datasets", "DE", "-queries", "10")
	for _, want := range []string{"`go run ./cmd/spexp -exp f9 -datasets DE -queries 10`", "## Figures 8-11", "### DE\n", "|Q10|", "|R10|"} {
		if !strings.Contains(out, want) {
			t.Errorf("spexp -exp f9 output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Table 1") {
		t.Errorf("spexp -exp f9 printed more than its experiment:\n%s", out)
	}
}

func TestGenmapAndSproute(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "tiny")
	out := runCommand(t, "genmap", "-n", "400", "-seed", "3", "-out", base)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("genmap output: %s", out)
	}
	for _, ext := range []string{".gr", ".co"} {
		if _, err := os.Stat(base + ext); err != nil {
			t.Fatalf("genmap did not write %s: %v", ext, err)
		}
	}

	out = runCommand(t, "sproute",
		"-gr", base+".gr", "-co", base+".co", "-method", "ch", "-s", "0", "-t", "5", "-path")
	if !strings.Contains(out, "distance") {
		t.Fatalf("sproute output: %s", out)
	}
	if !strings.Contains(out, "path (") {
		t.Fatalf("sproute -path did not print a path: %s", out)
	}
}

func TestSprouteRejectsBadVertex(t *testing.T) {
	cmd := exec.Command(commandPath(t, "sproute"), "-preset", "DE", "-s", "0", "-t", "999999")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected failure for out-of-range vertex, got:\n%s", out)
	}
}

// TestSpverifyVerdicts drives spverify through its three verdicts and the
// exit status each one maps to.
func TestSpverifyVerdicts(t *testing.T) {
	g := roadnet.Generate(roadnet.GenParams{N: 300, Seed: 5})
	idx, err := roadnet.NewIndex(roadnet.CH, g, roadnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := roadnet.SaveIndex(idx, &buf); err != nil {
		t.Fatal(err)
	}
	clean := testutil.TempFile(t, "clean.idx", buf.Bytes())
	flipped := testutil.TempFile(t, "flipped.idx", buf.Bytes())
	if _, err := chaos.FlipCovered(flipped, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	// Clearing the checksum flag (bit 0 of the u32 at offset 20) gives the
	// layout files had before checksums, which no reader accepts now.
	bare := append([]byte(nil), buf.Bytes()...)
	bare[20] &^= 1
	flagCleared := testutil.TempFile(t, "bare.idx", bare)
	v2 := append([]byte(nil), buf.Bytes()...)
	v2[12] = 2 // the container version, a u32 at offset 12
	version2 := testutil.TempFile(t, "v2.idx", v2)
	notFlat := testutil.TempFile(t, "v1.idx", []byte("ROADNET-CH\n\x01 and then whatever a v1 stream held"))

	for _, tc := range []struct {
		name string
		args []string
		exit int
		says string
	}{
		{"clean", []string{clean}, 0, ": ok"},
		{"version 2", []string{version2}, 2, "unsupported flat container version"},
		{"byte flipped", []string{flipped}, 1, "CORRUPT"},
		{"checksum flag cleared", []string{flagCleared}, 1, "CORRUPT"},
		{"checksum flag cleared, quiet", []string{"-q", flagCleared}, 1, "CORRUPT"},
		{"not a flat container", []string{notFlat}, 2, "not a roadnet index file"},
	} {
		out, err := exec.Command(commandPath(t, "spverify"), tc.args...).CombinedOutput()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if exit != tc.exit || !strings.Contains(string(out), tc.says) {
			t.Errorf("%s: exit %d, want %d with %q in the output:\n%s", tc.name, exit, tc.exit, tc.says, out)
		}
	}
}

// bootSpserve runs spserve with method on the DE preset with its three
// caches in dir, the index as <method>.idx, until /readyz answers, stops it
// with SIGTERM and returns what it printed and the /readyz body it answered.
func bootSpserve(t *testing.T, dir, method string) (out, readyz string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var stdout bytes.Buffer
	cmd := exec.Command(commandPath(t, "spserve"), "-preset", "DE", "-method", method, "-addr", addr,
		"-index", filepath.Join(dir, method+".idx"), "-graph", filepath.Join(dir, "graph.bin"), "-rtree", filepath.Join(dir, "rtree.bin"))
	cmd.Stdout, cmd.Stderr = &stdout, &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	ready := false
	for deadline := time.Now().Add(30 * time.Second); !ready && time.Now().Before(deadline); {
		select {
		case err := <-exited:
			t.Fatalf("spserve exited before it was ready: %v\n%s", err, stdout.String())
		case <-time.After(20 * time.Millisecond):
		}
		if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
			ready = resp.StatusCode == http.StatusOK
			body, _ := io.ReadAll(resp.Body)
			readyz = string(body)
			resp.Body.Close()
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-exited; err != nil || !ready {
		t.Fatalf("spserve: ready=%v, exit %v\n%s", ready, err, stdout.String())
	}
	return stdout.String(), readyz
}

// TestSpserveCachesSurviveRestart boots spserve twice over one cache
// directory: the first boot must leave exactly the three cache files (no
// temporary ones) that spverify passes, and the second must load all three,
// its "load:" lines naming each path once.
func TestSpserveCachesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	first, _ := bootSpserve(t, dir, "ch")
	if strings.Contains(first, "load:") {
		t.Errorf("the first boot loaded a cache from an empty directory:\n%s", first)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names, paths []string
	for _, e := range ents {
		names = append(names, e.Name())
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(names)
	if strings.Join(names, " ") != "ch.idx graph.bin rtree.bin" {
		t.Fatalf("the cache directory holds %v, want exactly ch.idx, graph.bin and rtree.bin", names)
	}
	if out := runCommand(t, "spverify", paths...); strings.Count(out, ": ok\n") < 3 {
		t.Errorf("spverify did not pass the three caches:\n%s", out)
	}

	second, _ := bootSpserve(t, dir, "ch")
	for kind, name := range map[string]string{"graph": "graph.bin", "index": "ch.idx", "rtree": "rtree.bin"} {
		path := filepath.Join(dir, name)
		var line string
		for _, l := range strings.Split(second, "\n") {
			if strings.HasPrefix(l, "load: "+kind+" ") {
				line = l
			}
		}
		if strings.Count(line, path) != 1 || !strings.Contains(line, " via ") {
			t.Errorf("the second boot's load line for %s is %q, want one naming %s once:\n%s", kind, line, path, second)
		}
	}
	if strings.Contains(second, "saved ") {
		t.Errorf("the second boot rewrote a cache it should have loaded:\n%s", second)
	}
}

// TestSpserveRebuildsStaleCaches boots spserve over three caches of another
// container version: each is rebuilt from its source and overwritten at this
// build's version, and the node serves verified, not degraded.
func TestSpserveRebuildsStaleCaches(t *testing.T) {
	dir := t.TempDir()
	bootSpserve(t, dir, "ch")
	names := []string{"graph.bin", "ch.idx", "rtree.bin"}
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[12] = 2 // the container version, a u32 at offset 12
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	out, readyz := bootSpserve(t, dir, "ch")
	if !strings.Contains(readyz, `"verified":true`) || strings.Contains(readyz, `"degraded":true`) {
		t.Errorf("/readyz after rebuilding stale caches says %s", readyz)
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if !strings.Contains(out, "stale: "+path+": ") || !strings.Contains(out, "saved ") {
			t.Errorf("the boot did not report %s stale and rebuild it:\n%s", name, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if v := data[12]; v != binio.FlatVersion {
			t.Errorf("%s was left at version %d, want it rewritten at %d", name, v, binio.FlatVersion)
		}
	}
	if strings.Count(out, "saved ") != len(names) {
		t.Errorf("the boot saved %d caches, want %d:\n%s", strings.Count(out, "saved "), len(names), out)
	}
}

// TestSpservePCPDIndexSurvivesRestart: a PCPD index saved by the first boot
// is loaded by the second, which builds nothing and saves nothing.
func TestSpservePCPDIndexSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pcpd.idx")
	if first, _ := bootSpserve(t, dir, "pcpd"); !strings.Contains(first, "saved index to "+path) {
		t.Fatalf("the first boot did not save %s:\n%s", path, first)
	}
	second, _ := bootSpserve(t, dir, "pcpd")
	if !strings.Contains(second, "load: index "+path+" via ") || strings.Contains(second, "saved ") {
		t.Errorf("the second boot did not load %s and nothing else:\n%s", path, second)
	}
}

// TestSpserveRefusesIndexWithoutFormat: -index with a method that has no
// file format exits 2, naming the methods that have one, before it loads a
// network or builds anything.
func TestSpserveRefusesIndexWithoutFormat(t *testing.T) {
	for _, method := range []string{"dijkstra", "alt", "arcflags"} {
		path := filepath.Join(t.TempDir(), method+".idx")
		out, err := exec.Command(commandPath(t, "spserve"), "-preset", "DE", "-method", method, "-index", path).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: err = %v, want exit status 2\n%s", method, err, out)
		}
		if !strings.Contains(string(out), "methods with one: [ch tnr silc pcpd]") || strings.Contains(string(out), "network:") {
			t.Errorf("%s: spserve said\n%s\nwant the refusal alone, naming ch, tnr, silc and pcpd", method, out)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: the index file exists after the refusal (stat: %v)", method, err)
		}
	}
}
