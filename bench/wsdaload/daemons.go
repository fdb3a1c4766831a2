package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// benchToken is the one tenant token the routed workload's gate knows.
const benchToken = "wsdaload-token"

// daemon is one running registryd or routerd.
type daemon struct {
	name string // log name: registryd, shard0, shard1, routerd
	bin  string // which binary it runs
	base string // http://127.0.0.1:PORT
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
}

// running holds every daemon not yet reaped, so any exit path — return,
// signal, fatal error — can kill them all.
var running = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// killAll stops every daemon still running and waits for each to end.
func killAll() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.set))
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin in its own process group with stderr in
// outDir/<workload>-<name>.log. Pdeathsig covers the one path defers and
// signal handlers cannot: the harness itself being killed.
func startDaemon(binDir, outDir, wl, name, bin string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(outDir, wl+"-"+name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(binDir, bin),
		append([]string{"-addr", addr, "-name", name, "-log-level", "warn"}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, bin: bin, base: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	running.Lock()
	running.set[d] = true
	running.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we signal is not news
		close(d.done)
	}()
	return d, nil
}

// stop ends the daemon's whole process group: SIGTERM for a graceful
// drain, SIGKILL if that takes longer than a second. It returns once the
// process has been reaped.
func (d *daemon) stop() {
	pgid := -d.cmd.Process.Pid
	select {
	case <-d.done: // already gone; its pid may belong to someone else by now
	default:
		_ = syscall.Kill(pgid, syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(time.Second):
			_ = syscall.Kill(pgid, syscall.SIGKILL)
			<-d.done
		}
	}
	running.Lock()
	delete(running.set, d)
	running.Unlock()
}

// waitReady polls /readyz until it answers 200: readiness, not a sleep.
func (d *daemon) waitReady(hc *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready (see its log)", d.name)
		default:
		}
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last error: %v)", d.name, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// topology is one workload's set of daemons.
type topology struct {
	daemons []*daemon
	edge    string // base URL the clients talk to
	token   string // bearer token for the edge ("" = ungated)
}

func (t *topology) stop() {
	// Edge first, so a router never sees its shards vanish under it.
	for i := len(t.daemons) - 1; i >= 0; i-- {
		t.daemons[i].stop()
	}
}

// boot starts the workload's daemons and waits until every one is ready.
// Daemons keep their default GOMAXPROCS and GOGC.
func boot(sp spec, binDir, outDir string, hc *http.Client) (*topology, error) {
	t := &topology{}
	fail := func(err error) (*topology, error) {
		t.stop()
		return nil, err
	}
	start := func(name, bin string, args ...string) (*daemon, error) {
		d, err := startDaemon(binDir, outDir, sp.name, name, bin, args...)
		if err == nil {
			t.daemons = append(t.daemons, d)
		}
		return d, err
	}
	if !sp.routed {
		d, err := start("registryd", "registryd")
		if err != nil {
			return fail(err)
		}
		t.edge = d.base
	} else {
		const shards = 2
		var peers []string
		for k := 0; k < shards; k++ {
			d, err := start(fmt.Sprintf("shard%d", k), "registryd", "-shard-of", fmt.Sprintf("%d/%d", k, shards))
			if err != nil {
				return fail(err)
			}
			peers = append(peers, d.base)
		}
		tenants := filepath.Join(outDir, sp.name+"-tenants.conf")
		if err := os.WriteFile(tenants, []byte("bench token="+benchToken+"\n"), 0o600); err != nil {
			return fail(err)
		}
		// The shards must be ready before the router's own /readyz, which
		// aggregates theirs, can be.
		for _, d := range t.daemons {
			if err := d.waitReady(hc, 10*time.Second); err != nil {
				return fail(err)
			}
		}
		d, err := start("routerd", "routerd", "-peers", strings.Join(peers, ","), "-tenants", tenants)
		if err != nil {
			return fail(err)
		}
		t.edge, t.token = d.base, benchToken
	}
	for _, d := range t.daemons {
		if err := d.waitReady(hc, 10*time.Second); err != nil {
			return fail(err)
		}
	}
	return t, nil
}

// buildDaemons compiles registryd and routerd from the checkout that
// holds this benchmark into binDir. The build is outside every clock.
func buildDaemons(repoRoot, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/registryd", "./cmd/routerd")
	cmd.Dir = repoRoot
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building registryd and routerd in %s: %w", repoRoot, err)
	}
	return nil
}
