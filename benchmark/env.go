package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the block every result carries, so that two results can
// be seen to come from comparable runs before their numbers are compared.
func environment(cfg config, in *instance, timedOps int) map[string]any {
	sha := os.Getenv("BENCH_GIT_SHA") // run.sh sets it; a bare checkout has no git
	if sha == "" {
		sha = "unknown"
	}
	env := map[string]any{
		"git_sha":            sha,
		"go_version":         runtime.Version(),
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"cpu_model":          cpuModel(),
		"sessions":           len(in.sessions),
		"engine_parallelism": in.parallelism,
		"chunk_cache_budget": in.cacheBudget,
		"seed":               cfg.seed,
		"scale":              cfg.scale,
		"load_model":         "closed loop; each session waits for its reply; first tenth is warm-up; rounds of the schedule are always finished",
		"timed_operations":   timedOps,
		"note": "client sessions and the server share this process and its cores over loopback TCP; " +
			"latencies are this sandbox's, not a network's, and fsync times are this filesystem's, not a device's",
	}
	for k, v := range in.env {
		env[k] = v
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type holding dir, from the mount table.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mount := fields[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, typ = mount, fields[2]
		}
	}
	return typ
}
