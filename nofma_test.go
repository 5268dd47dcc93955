package gossipkit

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// fusedArchs are the architectures whose Go compiler fuses x*y + z into one
// multiply-add instruction. amd64 does not (without GOAMD64=v3, which the
// module never sets), so tier-1 on amd64 cannot see the difference.
var fusedArchs = []string{"arm64", "ppc64le", "s390x", "riscv64"}

// fusedOp matches the fused multiply-add mnemonics go tool objdump prints:
// FMADDD/FMSUBD/FNMADDD/FNMSUBD (arm64, riscv64), FMADD/FMSUB/FNMADD/FNMSUB
// (ppc64le) and MADBR/MSDBR with their float32 and vector forms (s390x).
var fusedOp = regexp.MustCompile(`^(FN?M(ADD|SUB)[DS]?|MADBR?|MSDBR?|MAEBR?|MSEBR?|WFN?M[AS]DB)$`)

// fusedAllow names the functions that may keep a fused site, each with the
// reason the rounding it skips cannot move a result.
var fusedAllow = map[string]string{
	"gossipkit/internal/simnet.delayBand": "floor + 7·mean sizes the calendar queue's buckets; it decides where an event is filed, never the order events fire in",
}

// TestNoFusedFloat holds the promise that results are byte-identical
// across machines. Go's spec lets a compiler fuse x*y + z, even across
// statements, and skip the product's rounding; an explicit float64(…)
// conversion forbids that. The test cross-compiles the five commands for
// every fusing architecture with the local toolchain (no network), scans
// the disassembly of every gossipkit function for a fused instruction, and
// fails on each one whose function fusedAllow does not name. A site is
// closed by converting its product: float64(x*y) + z.
func TestNoFusedFloat(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	seen := map[string]bool{}
	var open []string
	for _, arch := range fusedArchs {
		start := time.Now()
		dir := t.TempDir()
		build := exec.Command(goBin, "build", "-o", dir+string(filepath.Separator), "./cmd/...")
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("%s: go build: %v\n%s", arch, err, out)
		}
		bins, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(bins) != 5 {
			t.Fatalf("%s: built %d commands (%v), want 5", arch, len(bins), err)
		}
		sites := map[string]bool{}
		for _, bin := range bins {
			out, err := exec.Command(goBin, "tool", "objdump", "-s", "^gossipkit", bin).Output()
			if err != nil {
				t.Fatalf("%s: objdump %s: %v", arch, filepath.Base(bin), err)
			}
			for fn, pos := range fusedSites(out) {
				if _, ok := fusedAllow[fn]; ok {
					seen[fn] = true
					continue
				}
				for _, p := range pos {
					sites[fn+" at "+p] = true
				}
			}
		}
		for s := range sites {
			open = append(open, arch+": "+s)
		}
		t.Logf("%s: built and scanned in %v", arch, time.Since(start).Round(10*time.Millisecond))
	}
	sort.Strings(open)
	for _, s := range open {
		t.Errorf("fused multiply-add in %s: convert the product with float64(…) or name the function in fusedAllow with a reason", s)
	}
	for fn := range fusedAllow {
		if !seen[fn] {
			t.Errorf("fusedAllow names %s, which has no fused site on any architecture: drop the entry", fn)
		}
	}
}

// fusedSites returns, per gossipkit function in an objdump listing, the
// file:line of each fused multiply-add instruction (the file of an inlined
// callee, so a site inlined into many callers is reported in each).
func fusedSites(listing []byte) map[string][]string {
	sites := map[string][]string{}
	fn := ""
	sc := bufio.NewScanner(bytes.NewReader(listing))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "TEXT" {
			fn = ""
			if sym := strings.TrimSuffix(fields[1], "(SB)"); strings.HasPrefix(sym, "gossipkit") {
				fn = sym
			}
			continue
		}
		// An instruction: file:line, address, encoding, mnemonic, operands.
		if fn == "" || len(fields) < 4 || !strings.HasPrefix(fields[1], "0x") {
			continue
		}
		if fusedOp.MatchString(fields[3]) {
			sites[fn] = append(sites[fn], fields[0]+" "+fields[3])
		}
	}
	return sites
}
