package bench

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"srumma/internal/mat"
)

// Env is the environment a benchmark record was taken on. No BENCH_*.json
// number means anything without it.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"git_commit"`
	Date       string `json:"date"`
}

// CurrentEnv describes this process: toolchain, processors, the micro-kernel
// mat dispatches to, and the git commit of the working directory.
func CurrentEnv() Env {
	env := Env{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: "unknown", Kernel: mat.KernelName(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			env.Commit += "+dirty" // measured on uncommitted changes on top of it
		}
	}
	return env
}
