package main

import (
	"fmt"
	"time"

	"segshare/internal/cache"
)

// setup is one deployment with its corpus in place.
type setup struct {
	d       *deployment
	g       *generator
	o       *oracle
	stopped bool
	seconds float64
	// workingSet is the relation bytes the warm pass touched, estimated
	// from CacheStats, and budget the caches' total capacity.
	workingSet, budget int64
}

// newSetup deploys a server and writes the corpus through in-process
// sessions: groups with their pre-existing members, the directory tree
// with bob's group grants, and every file with inheritance on.
func newSetup(w *workload, seed uint64, rec *recorder) (*setup, error) {
	start := time.Now()
	s := &setup{g: newGenerator(w, seed), o: newOracle(w)}
	d, err := deploy(deployConfig{features: w.features, audit: w.audit, cacheBytes: w.cacheBytes}, rec)
	if err != nil {
		return nil, err
	}
	s.d = d
	if err := s.populate(); err != nil {
		s.teardown()
		return nil, fmt.Errorf("populate: %w", err)
	}
	if err := s.warm(); err != nil {
		s.teardown()
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	s.seconds = time.Since(start).Seconds()
	return s, nil
}

func (s *setup) populate() error {
	w := s.g.w
	alice := s.d.server.Direct("alice")
	for t := range w.teams {
		group := teamGroup(t)
		// The first AddUser creates the group, owned by alice.
		for j := range w.members[t] {
			if err := alice.AddUser(fillerUser(t, j), group); err != nil {
				return err
			}
		}
		if err := alice.AddUser("bob", group); err != nil {
			return err
		}
		if w.nested {
			if err := alice.Mkdir(fmt.Sprintf("/p%d/", t)); err != nil {
				return err
			}
		}
	}
	for leaf := range w.numLeaves() {
		dir := w.leafPath(leaf)
		if err := alice.Mkdir(dir); err != nil {
			return err
		}
		if err := alice.SetPermission(dir, teamGroup(leaf/w.leaves), "r"); err != nil {
			return err
		}
		if err := alice.Upload(dir+pinnedName, []byte("pinned "+dir)); err != nil {
			return err
		}
		if err := alice.SetInherit(dir+pinnedName, true); err != nil {
			return err
		}
	}
	for key := range w.numKeys() {
		ks := s.o.keys[key]
		data, sum := s.g.content(key, 0, -1)
		path := w.leafPath(s.o.leafOf(key)) + ks.name
		if err := alice.Upload(path, data); err != nil {
			return err
		}
		if err := alice.SetInherit(path, true); err != nil {
			return err
		}
		ks.exists, ks.hash = true, sum
	}
	return nil
}

// warm reads every file once as bob and lists every leaf, so the timed
// window starts with the relation caches in their steady state, and
// measures how much relation data that pass touched.
func (s *setup) warm() error {
	w := s.g.w
	bob := s.d.server.Direct("bob")
	before := s.d.server.CacheStats()
	for leaf := range w.numLeaves() {
		if _, err := bob.List(w.leafPath(leaf)); err != nil {
			return err
		}
	}
	for key := range w.numKeys() {
		path := w.leafPath(s.o.leafOf(key)) + s.o.keys[key].name
		if _, err := bob.Download(path); err != nil {
			return err
		}
	}
	s.workingSet, s.budget = workingSet(before, s.d.server.CacheStats())
	return nil
}

// workingSet estimates the relation bytes a pass touched from the cache
// counters around it: every miss inserts an entry, so the entries held
// plus those evicted during the pass, at the average entry cost, is the
// data the pass went through. budget is the caches' total capacity.
func workingSet(before, after map[string]cache.Stats) (ws, budget int64) {
	for kind, a := range after {
		budget += a.Capacity
		if a.Entries == 0 {
			continue
		}
		evicted := int64(a.Evictions - before[kind].Evictions)
		ws += (int64(a.Entries) + evicted) * a.Cost / int64(a.Entries)
	}
	return ws, budget
}

// teardown stops the server, once.
func (s *setup) teardown() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	return s.d.stop()
}
