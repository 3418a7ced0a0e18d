package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload function receives.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	root    string // this run's data directory, removed when the run ends
}

// phaseLen is the timed phase length.
func (rc runConfig) phaseLen() time.Duration { return time.Duration(rc.seconds) * time.Second }

// setupReps is how many times each workload runs its whole set-up;
// setup_s is the median. Only the last set-up's state is used.
const setupReps = 3

// flushPolicy is the durability every workload runs with: segstore's
// default durable mode, the one cmd/stationd runs.
const flushPolicy = "fsync-per-append+seal+manifest+checkpoint"

// ramRoot is where the stations' data goes when it exists: a RAM-backed
// filesystem. Durable appends still fsync, but fsync there costs no disk
// round trip, so other tenants' disk traffic cannot move the figures.
const ramRoot = "/dev/shm"

// makeDataRoot creates this run's data directory: on the RAM-backed
// filesystem when it is available and writable, otherwise under
// .bench_build in the checkout. The environment stamp records which.
func makeDataRoot() (string, error) {
	if dir, err := os.MkdirTemp(ramRoot, "perfbench-"); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", fmt.Errorf("creating data root: %w", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "data-")
	if err != nil {
		return "", fmt.Errorf("creating data root: %w", err)
	}
	return filepath.Abs(dir)
}

// env is the environment stamp every output starts with.
type env struct {
	workload string
	seed     int64
	commit   string
	cpu      string
	nproc    int
	procs    int
	goVer    string
	fsType   string
}

func stamp(workload string, seed int64, dataRoot string) env {
	return env{
		workload: workload,
		seed:     seed,
		commit:   commit(),
		cpu:      cpuModel(),
		nproc:    runtime.NumCPU(),
		procs:    runtime.GOMAXPROCS(0),
		goVer:    runtime.Version(),
		fsType:   fsType(dataRoot),
	}
}

func (e env) line() string {
	return fmt.Sprintf("# env workload=%s seed=%d commit=%s cpu=%q nproc=%d gomaxprocs=%d go=%s datadir_fs=%s flush=%s",
		e.workload, e.seed, e.commit, e.cpu, e.nproc, e.procs, e.goVer, e.fsType, flushPolicy)
}

// commit is the VCS revision the binary was built from, when the build saw
// one (a plain source checkout has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// stealMark is the host's cumulative CPU time in /proc/stat ticks: busy,
// and stolen by the hypervisor while this VM wanted to run.
type stealMark struct {
	busy, steal uint64
	ok          bool
}

func markSteal() stealMark {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealMark{}
	}
	var v [8]uint64
	for i := range v {
		if _, err := fmt.Sscan(f[i+1], &v[i]); err != nil {
			return stealMark{}
		}
	}
	// user, nice, system, idle, iowait, irq, softirq, steal
	return stealMark{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7], ok: true}
}

// line reports the share of the CPU time wanted since m that the host
// stole: the figure to read first when a run is slower than its
// neighbours.
func (m stealMark) line(phase string) string {
	now := markSteal()
	if !m.ok || !now.ok || now.busy+now.steal == m.busy+m.steal {
		return "# cpu_steal " + phase + "=unknown"
	}
	st := float64(now.steal - m.steal)
	return fmt.Sprintf("# cpu_steal %s=%.1f%%", phase, 100*st/(float64(now.busy-m.busy)+st))
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle collects garbage before a timed phase, so that the GC debt the
// set-up left behind does not land in the measurement: whether a cycle
// happens inside a phase then depends on the phase's own allocations.
func settle() { runtime.GC() }

// memMark is a Go runtime snapshot taken at a phase boundary.
type memMark struct {
	alloc uint64 // cumulative bytes allocated
	pause uint64 // cumulative GC pause, ns
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{alloc: ms.TotalAlloc, pause: ms.PauseTotalNs}
}

// since returns the bytes allocated and the GC pause, in ms, since m.
func (m memMark) since() (allocBytes, pauseMS float64) {
	now := markMem()
	return float64(now.alloc - m.alloc), float64(now.pause-m.pause) / 1e6
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
