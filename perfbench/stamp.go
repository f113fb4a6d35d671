package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostJiffies reads the machine-wide CPU time from /proc/stat: busy
// (user, nice, system, irq, softirq) and steal, the time the hypervisor
// ran something else while a virtual CPU of this guest wanted to run.
func hostJiffies() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]int64, 9)
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8]
}

// stealMeter measures the share of a phase's CPU time the hypervisor
// withheld.
type stealMeter struct{ busy, steal int64 }

func startSteal() stealMeter {
	b, s := hostJiffies()
	return stealMeter{b, s}
}

// share is steal / (steal + busy) since start: the fraction of the time
// the running threads wanted a CPU and did not get one.
func (m stealMeter) share() float64 {
	b, s := hostJiffies()
	db, ds := b-m.busy, s-m.steal
	if db+ds <= 0 || ds < 0 {
		return 0
	}
	return float64(ds) / float64(db+ds)
}

// residentMiB is the process's current resident set size, 0 where /proc
// is unavailable.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// revision identifies the source the benchmark measured: the git revision
// when the build recorded one, and always a digest of the Go sources and
// module files under the working directory, since a checkout need not be
// a git repository.
func revision() string {
	rev := "src-" + sourceDigest(".")
	if info, ok := debug.ReadBuildInfo(); ok {
		var vcs, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				vcs = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "-dirty"
				}
			}
		}
		if len(vcs) >= 12 {
			rev = "git-" + vcs[:12] + modified + " " + rev
		}
	}
	return rev
}

// sourceDigest hashes the path and content of every .go, go.mod and go.sum
// file under root, skipping hidden directories (build outputs live there).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// cpuTime is the CPU time this process has used so far, user and system,
// summed over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
