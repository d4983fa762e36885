package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/service"
)

// The daemons run arbalestd's defaults, except that they keep at most
// retainJobs finished jobs so a long run does not fill the disk.
const retainJobs = 32

// daemon is one in-process arbalestd on a loopback listener: standalone
// (journaled jobs and streams) or a fleet coordinator with workers.
type daemon struct {
	svc     *service.Service
	coord   *dist.Coordinator
	srv     *httptest.Server
	stopWk  context.CancelFunc
	workers sync.WaitGroup
}

func startStandalone(dir string) (*daemon, error) {
	jnl, err := journal.Open(filepath.Join(dir, "spool-standalone"))
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Journal: jnl, MaxFinishedJobs: retainJobs})
	svc.Start()
	return &daemon{svc: svc, srv: httptest.NewServer(svc.Handler())}, nil
}

// startFleet runs the `arbalestd -role coordinator` topology plus two
// dist.Workers, all in this process over loopback HTTP.
func startFleet(dir string, nworkers int) (*daemon, error) {
	jnl, err := journal.Open(filepath.Join(dir, "spool-fleet"))
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Journal: jnl, MaxFinishedJobs: retainJobs, ExternalDispatch: true})
	svc.Start()
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Backend: svc, Registry: svc.Metrics().Registry(), Fleet: jnl.Fleet()})
	if err != nil {
		return nil, err
	}
	coord.Start()
	svc.SetFleetSource(coord)
	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/", coord.Handler())
	mux.Handle("GET /v1/fleet/status", svc.Handler())
	mux.Handle("/", svc.Handler())
	d := &daemon{svc: svc, coord: coord, srv: httptest.NewServer(mux)}
	ctx, cancel := context.WithCancel(context.Background())
	d.stopWk = cancel
	for i := 0; i < nworkers; i++ {
		w := dist.NewWorker(dist.WorkerConfig{ID: fmt.Sprintf("w%d", i), CoordinatorURL: d.srv.URL, PollWait: time.Second})
		d.workers.Add(1)
		go func() {
			defer d.workers.Done()
			_ = w.Run(ctx) // returns when ctx is canceled
		}()
	}
	// Jobs submitted before a worker registers would run inline.
	deadline := time.Now().Add(10 * time.Second)
	for live(coord) < nworkers {
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("fleet workers never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return d, nil
}

func live(c *dist.Coordinator) int {
	n := 0
	for _, w := range c.FleetSnapshot().Workers {
		if w.Live {
			n++
		}
	}
	return n
}

// stop tears down in arbalestd's order: listener, service, coordinator,
// then the workers, and waits for every goroutine it started.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.stopWk != nil {
		d.stopWk()
		d.workers.Wait()
	}
	d.srv.Close()
	_ = d.svc.Shutdown(ctx)
	if d.coord != nil {
		_ = d.coord.Shutdown(ctx)
	}
}

// newClient returns an HTTP client with at most clients connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
	}
}

// errRefused marks a 429 or 503 answer: the daemon shed the request.
var errRefused = errors.New("refused")

func do(c *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s %s: %d %s", errRefused, method, url, resp.StatusCode, bytes.TrimSpace(data))
	case resp.StatusCode/100 != 2:
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}
