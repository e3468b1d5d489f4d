package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceCacheFlagsAtStart runs the built binary. A -tracecache
// directory that cannot be created fails every experiment at start (exit
// 1 before the profile banner), never a run that silently keeps its
// recordings in memory; -mintracehit without -tracecache is a usage error
// (exit 2) for cell and fullgrid, whose recordings go to a directory of
// their own that no hit rate is reported for.
func TestTraceCacheFlagsAtStart(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "schedbench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "tc")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-experiment", "fig10", "-tracecache", bad}, 1, "not a directory"},
		{[]string{"-experiment", "fullgrid", "-tracecache", bad}, 1, "not a directory"},
		{[]string{"-experiment", "cell", "-tracecache", bad}, 1, "not a directory"},
		{[]string{"-experiment", "fullgrid", "-mintracehit", "50"}, 2, "-mintracehit needs -tracecache"},
		{[]string{"-experiment", "cell", "-mintracehit", "50"}, 2, "-mintracehit needs -tracecache"},
	} {
		cmd := exec.Command(bin, append([]string{"-profile", "quick"}, tc.args...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
			t.Errorf("%v: err = %v, want exit status %d", tc.args, err, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr.String(), tc.want)
		}
		if strings.Contains(string(out), "schedbench: profile=") {
			t.Errorf("%v: started the experiment before failing:\n%s", tc.args, out)
		}
	}
}
