package drive

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Daemon is one running gapd process.
type Daemon struct {
	// Addr is the unix socket path the daemon listens on.
	Addr   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	exited chan error
}

// Usage is what the operating system charged a finished daemon.
type Usage struct {
	CPU       time.Duration // user + system
	PeakRSSMB float64
}

const (
	startTimeout = 2 * time.Minute
	stopTimeout  = 20 * time.Second // gapd's own drain deadline is 10 s
)

// StartDaemon spawns bin serving the named suite graphs at the base scale,
// caching them in dir, and returns once a ping is answered OK, with how long
// that took from the spawn. dir must be fresh for the time to include graph
// generation.
func StartDaemon(bin, dir string, scale int, graphs []string) (*Daemon, time.Duration, error) {
	sock := filepath.Join(dir, "gapd.sock")
	// A unix socket path is limited to about 100 bytes, and a checkout can sit
	// anywhere: use the path relative to the working directory when shorter.
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, sock); err == nil && len(rel) < len(sock) {
			sock = rel
		}
	}
	d := &Daemon{Addr: sock, exited: make(chan error, 1)}
	d.cmd = exec.Command(bin,
		"-listen", "unix:"+sock,
		"-graphdir", dir,
		"-scale", strconv.Itoa(scale),
		"-graphs", strings.Join(graphs, ","),
		"-q")
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	for {
		if _, err := control(sock, "ping"); err == nil {
			return d, time.Since(start), nil
		}
		select {
		case err := <-d.exited:
			return nil, 0, fmt.Errorf("gapd exited before answering a ping: %v: %s", err, d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > startTimeout {
			d.cmd.Process.Kill() // error means it already exited
			<-d.exited
			return nil, 0, fmt.Errorf("gapd answered no ping within %v: %s", startTimeout, d.stderr.String())
		}
	}
}

// Stop asks the daemon to drain (SIGTERM), waits until the process has
// ended, killing it if the drain overruns, and returns its resource usage.
// An unclean exit is an error: gapd's exit code is the health of its drain.
func (d *Daemon) Stop() (Usage, error) {
	var u Usage
	var err error
	// Peak resident memory is read from /proc while the process lives: the
	// ru_maxrss that wait4 returns starts from the parent's at fork, so for a
	// daemon smaller than the harness it reports the harness.
	if status, rerr := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)); rerr == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				fmt.Sscan(rest, &kb) // stays 0 if the line has another shape
				u.PeakRSSMB = kb / 1024
			}
		}
	}
	if serr := d.cmd.Process.Signal(syscall.SIGTERM); serr != nil {
		err = fmt.Errorf("signalling gapd: %w", serr)
	}
	select {
	case werr := <-d.exited:
		if werr != nil && err == nil {
			err = fmt.Errorf("gapd drain: %v: %s", werr, d.stderr.String())
		}
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill() // error means it already exited
		<-d.exited
		err = fmt.Errorf("gapd did not drain within %v and was killed", stopTimeout)
	}
	if ps := d.cmd.ProcessState; ps != nil {
		u.CPU = ps.UserTime() + ps.SystemTime()
	}
	return u, err
}
