package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"segshare/internal/obs"
	"segshare/internal/store"
)

// This file covers journaling by reference: large bodies are sealed once
// into staging objects before the intent commits and promoted onto their
// final names on apply (txn.go sealLarge/promote, DESIGN §11).

// stagedObjects lists the staging objects in a backend.
func stagedObjects(t *testing.T, b store.Backend) []string {
	t.Helper()
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		if strings.HasPrefix(name, stagePrefix) {
			out = append(out, name)
		}
	}
	return out
}

// TestLargePutJournaledByReference checks the journal record of a large
// PUT carries no body, the body reads back, and no staging object
// survives; a small PUT stays inline.
func TestLargePutJournaledByReference(t *testing.T) {
	f, reg := newOverloadFixture(t, nil)
	commitBytes := reg.Counter("segshare_journal_commit_bytes_total", "", nil)
	session := f.server.Direct("alice")

	before := commitBytes.Value()
	if err := session.Upload("/big.bin", crashLargeV1); err != nil {
		t.Fatal(err)
	}
	if got := commitBytes.Value() - before; got > 16<<10 {
		t.Fatalf("large PUT wrote %d journal bytes, want a by-reference record", got)
	}
	got, err := session.Download("/big.bin")
	if err != nil || !bytes.Equal(got, crashLargeV1) {
		t.Fatalf("Download = %d bytes, %v", len(got), err)
	}

	before = commitBytes.Value()
	small := bytes.Repeat([]byte("s"), 32<<10)
	if err := session.Upload("/small.bin", small); err != nil {
		t.Fatal(err)
	}
	if got := commitBytes.Value() - before; got < uint64(len(small)) {
		t.Fatalf("small PUT wrote %d journal bytes, want the body inline", got)
	}
	if left := stagedObjects(t, f.server.cfg.ContentStore); len(left) != 0 {
		t.Fatalf("staging objects survived: %v", left)
	}
	if err := f.server.Fsck(); err != nil {
		t.Fatalf("Fsck: %v", err)
	}
}

// killAfterCommit runs a by-reference put of body to /docs/big.bin and
// kills the process at its first promotion step: the intent is durable,
// the staging object written, the final object untouched.
func killAfterCommit(t *testing.T, fx *crashFixture, body []byte) string {
	t.Helper()
	// Mutations: 1 staging Put, 2 journal Put, 3 Delete of the final name.
	fx.plan.KillAtOp(3, errInjected)
	if _, err := fx.ac.PutFile("alice", fx.path("/docs/big.bin"), body); err == nil {
		t.Fatal("put survived the kill")
	}
	fx.plan.Revive()
	staged := stagedObjects(t, fx.content)
	if len(staged) != 1 || fx.fm.journal.PendingCount() != 1 {
		t.Fatalf("kill point missed: staged %v, pending %d", staged, fx.fm.journal.PendingCount())
	}
	return staged[0]
}

// TestStagedBodyTamperIsIntegrityError plays the host against a committed
// by-reference intent before its replay: swapping in an older valid
// ciphertext of the same file, or deleting the staging object, must stop
// recovery with ErrIntegrity instead of accepting an old version.
func TestStagedBodyTamperIsIntegrityError(t *testing.T) {
	opts := fmOptions{rollback: true, guard: GuardCounter}
	tests := []struct {
		name   string
		update bool
		tamper func(fx *crashFixture, stage string) error
	}{
		{
			name:   "swap-older-version",
			update: true,
			tamper: func(fx *crashFixture, stage string) error {
				old, err := fx.content.Get(fx.fm.storageName(fx.fm.content, "/docs/big.bin"))
				if err != nil {
					return err
				}
				return fx.content.Put(stage, old)
			},
		},
		{
			name:   "delete-on-update",
			update: true,
			tamper: func(fx *crashFixture, stage string) error { return fx.content.Delete(stage) },
		},
		{
			name:   "delete-on-create",
			tamper: func(fx *crashFixture, stage string) error { return fx.content.Delete(stage) },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fx := newCrashFixture(t, opts, true)
			seedCorpus(t, fx)
			body := crashLargeV1
			if tt.update {
				if _, err := fx.ac.PutFile("alice", fx.path("/docs/big.bin"), crashLargeV1); err != nil {
					t.Fatal(err)
				}
				body = crashLargeV2
			}
			stage := killAfterCommit(t, fx, body)
			if err := tt.tamper(fx, stage); err != nil {
				t.Fatal(err)
			}
			if err := fx.restart(); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("replay after tamper: %v, want ErrIntegrity", err)
			}
		})
	}

	// Control: the untouched staging object replays cleanly.
	fx := newCrashFixture(t, opts, true)
	seedCorpus(t, fx)
	killAfterCommit(t, fx, crashLargeV1)
	if err := fx.restart(); err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	if ok, data := fileState(t, fx, "/docs/big.bin"); !ok || !bytes.Equal(data, crashLargeV1) {
		t.Fatalf("clean replay lost the write (exists=%v)", ok)
	}
}

// TestFailedCommitDropsStaging fails the journal commit of a
// by-reference put once: the operation rolls back and deletes its
// staging object itself, with no restart in between.
func TestFailedCommitDropsStaging(t *testing.T) {
	fx := newCrashFixture(t, fmOptions{rollback: true, guard: GuardCounter}, true)
	seedCorpus(t, fx)
	// Mutations: 1 staging Put, 2 journal Put.
	fx.plan.FailAtOp(2, errInjected)
	if _, err := fx.ac.PutFile("alice", fx.path("/docs/big.bin"), crashLargeV1); !errors.Is(err, errInjected) {
		t.Fatalf("put: %v, want the injected commit fault", err)
	}
	if staged := stagedObjects(t, fx.content); len(staged) != 0 {
		t.Fatalf("failed commit left staging objects: %v", staged)
	}
	if err := fx.fm.validateAll(); err != nil {
		t.Fatalf("fsck after failed commit: %v", err)
	}
}

// TestFsckReportsOrphanedStaging injects a staging object no intent
// references into each store and expects Fsck to name it.
func TestFsckReportsOrphanedStaging(t *testing.T) {
	f := newHandlerFixture(t)
	for _, b := range []store.Backend{f.server.cfg.ContentStore, f.server.cfg.GroupStore} {
		name := stagePrefix + "00112233445566778899aabbccddeeff"
		if err := b.Put(name, []byte("leftover")); err != nil {
			t.Fatal(err)
		}
		err := f.server.Fsck()
		if !errors.Is(err, ErrIntegrity) || !strings.Contains(err.Error(), "orphaned staging") {
			t.Fatalf("Fsck with orphan: %v", err)
		}
		if err := b.Delete(name); err != nil {
			t.Fatal(err)
		}
		if err := f.server.Fsck(); err != nil {
			t.Fatalf("Fsck after removal: %v", err)
		}
	}
}

// gatedStore parks the first staging Put after it lands, until release
// is closed.
type gatedStore struct {
	store.Backend
	once    sync.Once
	landed  chan struct{}
	release chan struct{}
}

func (g *gatedStore) Put(name string, data []byte) error {
	err := g.Backend.Put(name, data)
	if err == nil && strings.HasPrefix(name, stagePrefix) {
		g.once.Do(func() {
			close(g.landed)
			<-g.release
		})
	}
	return err
}

// TestRecoveryWaitsForCommitWindow triggers a recovery pass while another
// mutation sits between staging its large body and committing the intent.
// The two run concurrently on separate views, bypassing the request lock
// plan: recovery must neither sweep the in-flight staging object nor
// replay the in-flight intent, so both operations succeed.
func TestRecoveryWaitsForCommitWindow(t *testing.T) {
	fx := newCrashFixture(t, fmOptions{}, true)
	seedCorpus(t, fx)
	gate := &gatedStore{Backend: fx.content, landed: make(chan struct{}), release: make(chan struct{})}
	fx.content = gate
	if err := fx.boot(); err != nil {
		t.Fatal(err)
	}

	large := make(chan error, 1)
	go func() {
		_, err := fx.ac.withStats(&obs.ReqStats{}).PutFile("alice", fx.path("/docs/big.bin"), crashLargeV1)
		large <- err
	}()
	<-gate.landed
	fx.fm.shared.journalDirty.Store(true)
	small := make(chan error, 1)
	go func() {
		_, err := fx.ac.withStats(&obs.ReqStats{}).PutFile("alice", fx.path("/docs/sub/d.txt"), crashContentC)
		small <- err
	}()
	// Give the recovering mutation time to reach the sweep if nothing
	// holds it back.
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	if err := <-large; err != nil {
		t.Fatalf("large put: %v", err)
	}
	if err := <-small; err != nil {
		t.Fatalf("put that ran recovery: %v", err)
	}
	if ok, data := fileState(t, fx, "/docs/big.bin"); !ok || !bytes.Equal(data, crashLargeV1) {
		t.Fatalf("large put lost (exists=%v)", ok)
	}
	if left := stagedObjects(t, fx.content); len(left) != 0 {
		t.Fatalf("staging objects survived: %v", left)
	}
	if err := fx.fm.validateAll(); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}
