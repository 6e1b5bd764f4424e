package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"peertrack/internal/ctlapi"
)

// daemon is one managed trackd process. Its listen address is its
// network identity: restarting with the same listen/control/data paths
// is a restart-with-same-identity, not a new node.
type daemon struct {
	idx     int
	listen  string // P2P host:port
	control string // control API host:port
	data    string // snapshot path (restored on restart)
	logPath string

	cmd  *exec.Cmd
	logF *os.File
	c    *ctlapi.Client
}

// reservePorts binds n ephemeral loopback listeners simultaneously,
// records their ports, and releases them. The window between release
// and the daemons' own binds is a race in principle; on a quiet
// loopback it is not one in practice, and launch failures surface
// immediately via waitReady.
func reservePorts(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// newFleet allocates identities for n daemons under dir.
func newFleet(n int, dir string) ([]*daemon, error) {
	ports, err := reservePorts(2 * n)
	if err != nil {
		return nil, err
	}
	fleet := make([]*daemon, n)
	for i := range fleet {
		d := &daemon{
			idx:     i,
			listen:  ports[2*i],
			control: ports[2*i+1],
			data:    filepath.Join(dir, fmt.Sprintf("node-%d.snap", i)),
			logPath: filepath.Join(dir, fmt.Sprintf("node-%d.log", i)),
		}
		d.c = &ctlapi.Client{
			Base:         "http://" + d.control,
			Retries:      40,
			RetryBackoff: 50 * time.Millisecond,
		}
		fleet[i] = d
	}
	return fleet, nil
}

// start launches the daemon. join is the bootstrap P2P address ("" for
// the first node); extra appends scenario flags (e.g. -replicas 1).
func (d *daemon) start(bin, join string, netsize int, extra []string) error {
	if d.cmd != nil {
		return fmt.Errorf("node %d already running", d.idx)
	}
	args := []string{
		"-listen", d.listen,
		"-control", d.control,
		"-data", d.data,
		"-netsize", fmt.Sprint(netsize),
		"-stabilize-every", fleetCadences.Stabilize.String(),
		"-window", fleetCadences.Window.String(),
		"-gossip-every", fleetCadences.Gossip.String(),
		"-replica-sync-every", fleetCadences.ReplicaSync.String(),
		"-dial-timeout", "1s",
		"-rpc-attempts", "3",
		"-rpc-attempt-timeout", "500ms",
		"-rpc-budget", "2s",
		"-rpc-backoff", "25ms",
		"-breaker-threshold", "4",
		"-breaker-cooldown", "500ms",
	}
	if join != "" {
		args = append(args, "-join", join)
	}
	args = append(args, extra...)

	logF, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logF
	cmd.Stderr = logF
	if err := cmd.Start(); err != nil {
		logF.Close()
		return fmt.Errorf("start node %d: %w", d.idx, err)
	}
	d.cmd, d.logF = cmd, logF
	return nil
}

// waitReady polls the control API until the node answers /status.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := d.c.Status(); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("node %d not ready after %v: %v", d.idx, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// kill SIGKILLs the process: a crash, no state handoff, no Leave.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.logF.Close()
	d.cmd, d.logF = nil, nil
}

// pause SIGSTOPs the process: the listener stays bound but nothing is
// served — calls time out instead of being refused.
func (d *daemon) pause() error {
	return d.cmd.Process.Signal(syscall.SIGSTOP)
}

// resume SIGCONTs a paused process.
func (d *daemon) resume() error {
	return d.cmd.Process.Signal(syscall.SIGCONT)
}

// term asks for a clean shutdown and enforces the wall-clock budget.
func (d *daemon) term(budget time.Duration) error {
	if d.cmd == nil {
		return nil
	}
	defer func() {
		d.logF.Close()
		d.cmd, d.logF = nil, nil
	}()
	// http.DefaultTransport keeps a connection it dialled for a request
	// another one served first; net/http's Shutdown waits 5 s before it
	// takes one that never sent a request for idle.
	http.DefaultClient.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("node %d exited uncleanly: %w", d.idx, err)
		}
		return nil
	case <-time.After(budget):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("node %d missed the %v shutdown budget", d.idx, budget)
	}
}

// running reports whether the daemon has a live process.
func (d *daemon) running() bool { return d.cmd != nil }
