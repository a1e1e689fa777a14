package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"segshare"
	"segshare/internal/audit"
	"segshare/internal/journal"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// Store roles, in the order the per-layer metrics report them.
const (
	roleContent = iota
	roleGroup
	roleDedup
	roleAudit
	numRoles
)

var roleNames = [numRoles]string{"content", "group", "dedup", "audit"}

// deployConfig is what a workload chooses; everything else stays at the
// segshare-server binary's flag defaults.
type deployConfig struct {
	features segshare.Features
	audit    bool
	// cacheBytes is ServerConfig.CacheBytes (the binary's -cache-kib×1024;
	// 0 keeps the default budget).
	cacheBytes int64
}

// deployment is one SeGShare server running in this process on loopback
// with the full TLS + HTTP stack. The bench owns one store wrapper per
// role and the listener wrapper, and reads the server's own counters.
type deployment struct {
	authority *segshare.CertAuthority
	platform  *segshare.Platform
	cfg       segshare.ServerConfig
	server    *segshare.Server
	reg       *obs.Registry
	stores    [numRoles]*tracedStore
	listener  *tracedListener
	addr      string
}

// serverConfig mirrors cmd/segshare-server's run() with every flag at its
// default, except the stores and what dc selects.
func serverConfig(dc deployConfig, caPEM []byte, reg *obs.Registry, stores [numRoles]*tracedStore) segshare.ServerConfig {
	cfg := segshare.ServerConfig{
		CACertPEM:    caPEM,
		ContentStore: stores[roleContent],
		GroupStore:   stores[roleGroup],
		Features:     dc.features,
		// -log info: request logs are formatted as on stderr, then dropped.
		Logger:     slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		CacheBytes: dc.cacheBytes,
		Obs:        reg,
		SamplePolicy: &obs.SamplePolicy{
			SlowNs:       (50 * time.Millisecond).Nanoseconds(),
			ErrorStatus:  500,
			ContentionNs: (10 * time.Millisecond).Nanoseconds(),
			KeepOneIn:    100,
		},
		Watchdog: segshare.WatchdogConfig{
			Enable:          true,
			Interval:        time.Second,
			RequestDeadline: 30 * time.Second,
			RecoveryOverrun: 30 * time.Second,
			ShardSkew:       100 * time.Millisecond,
		},
		HotGroups:  -1,
		Admission:  &segshare.AdmissionConfig{Enable: true},
		Resilience: &segshare.ResilientOptions{},
		SLO:        &obs.SLOConfig{Objective: 0.999, LatencyThreshold: 250 * time.Millisecond},
	}
	if dc.features.Dedup {
		cfg.DedupStore = stores[roleDedup]
	}
	if dc.audit {
		cfg.AuditStore = stores[roleAudit]
		cfg.Audit.Overflow = audit.OverflowDrop
	}
	return cfg
}

// newStores opens one memory backend per role, each behind a bench-owned
// wrapper.
func newStores(rec *recorder) [numRoles]*tracedStore {
	var out [numRoles]*tracedStore
	for role := range out {
		out[role] = &tracedStore{inner: store.NewMemory(), role: role, rec: rec}
	}
	return out
}

// deploy builds, provisions and starts a server.
func deploy(dc deployConfig, rec *recorder) (*deployment, error) {
	authority, err := segshare.NewCA("perfbench CA")
	if err != nil {
		return nil, err
	}
	platform, err := segshare.NewPlatform(segshare.PlatformConfig{})
	if err != nil {
		return nil, err
	}
	stores := newStores(rec)
	reg := obs.NewRegistry()
	cfg := serverConfig(dc, authority.CertificatePEM(), reg, stores)
	server, err := segshare.NewServer(platform, cfg)
	if err != nil {
		return nil, err
	}
	if err := segshare.Provision(authority, platform, server, cfg, []string{"localhost"}); err != nil {
		server.Close()
		return nil, err
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		server.Close()
		return nil, err
	}
	ln := &tracedListener{Listener: tcp, rec: rec}
	if err := server.Serve(ln); err != nil {
		tcp.Close()
		server.Close()
		return nil, err
	}
	return &deployment{
		authority: authority, platform: platform, cfg: cfg, server: server, reg: reg,
		stores: stores, listener: ln, addr: tcp.Addr().String(),
	}, nil
}

// newClient issues a certificate for user and connects a client.
func (d *deployment) newClient(user string) (*segshare.Client, error) {
	cred, err := d.authority.IssueClientCertificate(segshare.Identity{UserID: user}, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	return segshare.NewClient(segshare.ClientConfig{
		Addr:       d.addr,
		CACertPEM:  d.authority.CertificatePEM(),
		Credential: cred,
	})
}

// stop drains and closes the server the way the binary does on SIGTERM.
func (d *deployment) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := d.server.Drain(ctx)
	cerr := d.server.Close()
	if derr != nil {
		return fmt.Errorf("drain: %w", derr)
	}
	return cerr
}

// reopen starts a second server on the same stores and platform, as a
// restart of the binary on the same -data directory would. It is not
// served on the network; the restart check reads through Direct.
func (d *deployment) reopen() (*segshare.Server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	cfg := d.cfg
	cfg.Obs = reg
	srv, err := segshare.NewServer(d.platform, cfg)
	return srv, reg, err
}

// storedBytes sums TotalBytes over the content, group and dedup stores.
func (d *deployment) storedBytes() (int64, error) {
	var total int64
	for _, role := range []int{roleContent, roleGroup, roleDedup} {
		n, err := d.stores[role].inner.TotalBytes()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// tracedStore is the bench's store.Backend wrapper for one role. It sits
// below the server's own resilient and instrumented wrappers, so it sees
// exactly the calls that reach the backend.
type tracedStore struct {
	inner store.Backend
	role  int
	rec   *recorder

	ops, busyNs           atomic.Int64
	readBytes, writeBytes atomic.Int64
	journalPuts           atomic.Int64
}

var _ store.Backend = (*tracedStore)(nil)

func (s *tracedStore) done(start int64) {
	end := s.rec.now()
	s.ops.Add(1)
	s.busyNs.Add(end - start)
	s.rec.add(spanStore, s.role, start, end)
}

func (s *tracedStore) Put(name string, data []byte) error {
	start := s.rec.now()
	err := s.inner.Put(name, data)
	s.done(start)
	s.writeBytes.Add(int64(len(data)))
	if strings.HasPrefix(name, journal.ObjectPrefix) {
		s.journalPuts.Add(1)
	}
	return err
}

func (s *tracedStore) Get(name string) ([]byte, error) {
	start := s.rec.now()
	data, err := s.inner.Get(name)
	s.done(start)
	s.readBytes.Add(int64(len(data)))
	return data, err
}

func (s *tracedStore) Delete(name string) error {
	start := s.rec.now()
	err := s.inner.Delete(name)
	s.done(start)
	return err
}

func (s *tracedStore) Rename(oldName, newName string) error {
	start := s.rec.now()
	err := s.inner.Rename(oldName, newName)
	s.done(start)
	return err
}

func (s *tracedStore) Exists(name string) (bool, error) {
	start := s.rec.now()
	ok, err := s.inner.Exists(name)
	s.done(start)
	return ok, err
}

func (s *tracedStore) List() ([]string, error) {
	start := s.rec.now()
	names, err := s.inner.List()
	s.done(start)
	return names, err
}

func (s *tracedStore) TotalBytes() (int64, error) { return s.inner.TotalBytes() }

// Unwrap lets store.Innermost see through the wrapper.
func (s *tracedStore) Unwrap() store.Backend { return s.inner }

// tracedListener is the bench's net.Listener wrapper handed to
// Server.Serve: it counts accepted connections and times every read and
// write the server makes on them (below the enclave TLS terminator).
type tracedListener struct {
	net.Listener
	rec *recorder

	accepted              atomic.Int64
	calls                 atomic.Int64
	readBytes, writeBytes atomic.Int64
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	return &tracedConn{Conn: c, l: l}, nil
}

type tracedConn struct {
	net.Conn
	l *tracedListener
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.l.rec.now()
	n, err := c.Conn.Read(p)
	c.l.rec.add(spanConn, 0, start, c.l.rec.now())
	c.l.calls.Add(1)
	c.l.readBytes.Add(int64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.l.rec.now()
	n, err := c.Conn.Write(p)
	c.l.rec.add(spanConn, 1, start, c.l.rec.now())
	c.l.calls.Add(1)
	c.l.writeBytes.Add(int64(n))
	return n, err
}
