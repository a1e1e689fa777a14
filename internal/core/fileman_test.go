package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"segshare/internal/acl"
	"segshare/internal/enclave"
	"segshare/internal/fspath"
	"segshare/internal/rollback"
	"segshare/internal/store"
)

// fmFixture bundles a fileManager with its adversarial backends and the
// enclave that guards it.
type fmFixture struct {
	fm         *fileManager
	contentAdv *store.Adversary
	groupAdv   *store.Adversary
	enclave    *enclave.Enclave
	platform   *enclave.Platform
	rootKey    []byte
}

type fmOptions struct {
	rollback  bool
	guard     GuardKind
	dedup     bool
	hidePaths bool
}

func newFMFixture(t *testing.T, opts fmOptions) *fmFixture {
	t.Helper()
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	contentAdv := store.NewAdversary(store.NewMemory())
	groupAdv := store.NewAdversary(store.NewMemory())

	var contentGuard, groupGuard rollback.RootGuard
	switch opts.guard {
	case GuardProtectedMemory:
		contentGuard = rollback.NewProtectedMemoryGuard(encl, "content-root")
		groupGuard = rollback.NewProtectedMemoryGuard(encl, "group-root")
	case GuardCounter:
		contentGuard = rollback.NewCounterGuard(encl, "content-root")
		groupGuard = rollback.NewCounterGuard(encl, "group-root")
	}

	rootKey := bytes.Repeat([]byte{7}, 32)
	fm, err := newFileManager(fmConfig{
		rootKey:      rootKey,
		contentStore: contentAdv,
		groupStore:   groupAdv,
		dedupStore:   store.NewMemory(),
		hidePaths:    opts.hidePaths,
		rollbackOn:   opts.rollback,
		dedupEnabled: opts.dedup,
		contentGuard: contentGuard,
		groupGuard:   groupGuard,
	})
	if err != nil {
		t.Fatalf("newFileManager: %v", err)
	}
	return &fmFixture{
		fm:         fm,
		contentAdv: contentAdv,
		groupAdv:   groupAdv,
		enclave:    encl,
		platform:   platform,
		rootKey:    rootKey,
	}
}

func mustPath(t *testing.T, s string) fspath.Path {
	t.Helper()
	p, err := fspath.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

func ownedACL(gid acl.GroupID) *acl.ACL {
	a := &acl.ACL{}
	a.AddOwner(gid)
	return a
}

// allOptionCombos enumerates the feature matrix the file manager must
// behave identically under.
func allOptionCombos() map[string]fmOptions {
	return map[string]fmOptions{
		"plain":            {},
		"rollback":         {rollback: true},
		"rollback+protmem": {rollback: true, guard: GuardProtectedMemory},
		"rollback+counter": {rollback: true, guard: GuardCounter},
		"dedup":            {dedup: true},
		"hidden":           {hidePaths: true},
		"everything":       {rollback: true, guard: GuardCounter, dedup: true, hidePaths: true},
	}
}

func TestFileManagerCRUDMatrix(t *testing.T) {
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			fx := newFMFixture(t, opts)
			fm := fx.fm

			// Create directory tree /docs/reports/.
			if err := fm.createDir(mustPath(t, "/docs/"), ownedACL(1)); err != nil {
				t.Fatalf("createDir /docs/: %v", err)
			}
			if err := fm.createDir(mustPath(t, "/docs/reports/"), ownedACL(1)); err != nil {
				t.Fatalf("createDir /docs/reports/: %v", err)
			}
			// Duplicate create fails.
			if err := fm.createDir(mustPath(t, "/docs/"), ownedACL(1)); !errors.Is(err, ErrExists) {
				t.Fatalf("duplicate createDir: %v", err)
			}

			// Create and read back a file.
			file := mustPath(t, "/docs/reports/q1.txt")
			created, err := fm.writeContent(file, []byte("quarter one"), ownedACL(1))
			if err != nil || !created {
				t.Fatalf("writeContent: created=%v err=%v", created, err)
			}
			got, err := fm.readContent(file)
			if err != nil || string(got) != "quarter one" {
				t.Fatalf("readContent: %q %v", got, err)
			}

			// Update in place.
			created, err = fm.writeContent(file, []byte("revised"), nil)
			if err != nil || created {
				t.Fatalf("update: created=%v err=%v", created, err)
			}
			got, err = fm.readContent(file)
			if err != nil || string(got) != "revised" {
				t.Fatalf("after update: %q %v", got, err)
			}

			// Listings.
			entries, err := fm.readDir(mustPath(t, "/docs/reports/"))
			if err != nil || len(entries) != 1 || entries[0].Name != "q1.txt" || entries[0].IsDir {
				t.Fatalf("readDir: %v %v", entries, err)
			}
			entries, err = fm.readDir(fspath.Root)
			if err != nil || len(entries) != 1 || entries[0].Name != "docs" || !entries[0].IsDir {
				t.Fatalf("readDir root: %v %v", entries, err)
			}

			// ACL round trip.
			a, err := fm.readACL(file)
			if err != nil || !a.IsOwner(1) {
				t.Fatalf("readACL: %+v %v", a, err)
			}
			a.SetPermission(42, acl.PermRead)
			if err := fm.writeACL(file, a); err != nil {
				t.Fatalf("writeACL: %v", err)
			}
			a2, err := fm.readACL(file)
			if err != nil {
				t.Fatalf("readACL 2: %v", err)
			}
			if p, ok := a2.PermissionFor(42); !ok || p != acl.PermRead {
				t.Fatalf("ACL update lost: %+v", a2)
			}

			// Move the file.
			dst := mustPath(t, "/docs/q1-final.txt")
			if err := fm.movePath(file, dst); err != nil {
				t.Fatalf("movePath: %v", err)
			}
			if ok, _ := fm.pathExists(file); ok {
				t.Fatal("source still exists after move")
			}
			got, err = fm.readContent(dst)
			if err != nil || string(got) != "revised" {
				t.Fatalf("read after move: %q %v", got, err)
			}
			movedACL, err := fm.readACL(dst)
			if err != nil {
				t.Fatalf("readACL after move: %v", err)
			}
			if p, ok := movedACL.PermissionFor(42); !ok || p != acl.PermRead {
				t.Fatal("ACL did not travel with the file")
			}

			// Remove.
			if err := fm.removePath(mustPath(t, "/docs/"), true); !errors.Is(err, ErrNotEmpty) {
				t.Fatalf("remove non-empty dir: %v", err)
			}
			if err := fm.removePath(dst, true); err != nil {
				t.Fatalf("remove file: %v", err)
			}
			if err := fm.removePath(mustPath(t, "/docs/reports/"), true); err != nil {
				t.Fatalf("remove empty dir: %v", err)
			}
			if _, err := fm.readContent(dst); !errors.Is(err, ErrNotFound) {
				t.Fatalf("read removed: %v", err)
			}
		})
	}
}

func TestFileManagerDirectoryMove(t *testing.T) {
	for _, name := range []string{"plain", "everything"} {
		t.Run(name, func(t *testing.T) {
			fx := newFMFixture(t, allOptionCombos()[name])
			fm := fx.fm
			for _, dir := range []string{"/a/", "/a/b/", "/dst/"} {
				if err := fm.createDir(mustPath(t, dir), ownedACL(1)); err != nil {
					t.Fatalf("createDir %s: %v", dir, err)
				}
			}
			if _, err := fm.writeContent(mustPath(t, "/a/f1"), []byte("one"), ownedACL(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := fm.writeContent(mustPath(t, "/a/b/f2"), []byte("two"), ownedACL(1)); err != nil {
				t.Fatal(err)
			}

			if err := fm.movePath(mustPath(t, "/a/"), mustPath(t, "/dst/a/")); err != nil {
				t.Fatalf("move dir: %v", err)
			}
			got, err := fm.readContent(mustPath(t, "/dst/a/b/f2"))
			if err != nil || string(got) != "two" {
				t.Fatalf("nested file after move: %q %v", got, err)
			}
			if ok, _ := fm.pathExists(mustPath(t, "/a/")); ok {
				t.Fatal("source dir still exists")
			}

			// Moving a directory into itself is rejected.
			if err := fm.movePath(mustPath(t, "/dst/"), mustPath(t, "/dst/a/x/")); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("move into self: %v", err)
			}
		})
	}
}

func TestFileManagerGroupFiles(t *testing.T) {
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			fx := newFMFixture(t, opts)
			fm := fx.fm

			if _, err := fm.readMemberList("alice"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("absent member list: %v", err)
			}
			ml := &acl.MemberList{}
			ml.Add(3)
			ml.Add(1)
			if err := fm.writeMemberList("alice", ml); err != nil {
				t.Fatalf("writeMemberList: %v", err)
			}
			got, err := fm.readMemberList("alice")
			if err != nil || len(got.Groups) != 2 {
				t.Fatalf("readMemberList: %v %v", got, err)
			}
			ml.Add(9)
			if err := fm.writeMemberList("alice", ml); err != nil {
				t.Fatalf("update member list: %v", err)
			}

			gl, err := fm.readGroupList()
			if err != nil || len(gl.Groups) != 0 {
				t.Fatalf("empty group list: %v %v", gl, err)
			}
			if _, err := gl.Create("team"); err != nil {
				t.Fatal(err)
			}
			if err := fm.writeGroupList(gl); err != nil {
				t.Fatalf("writeGroupList: %v", err)
			}
			gl2, err := fm.readGroupList()
			if err != nil {
				t.Fatalf("readGroupList: %v", err)
			}
			if _, ok := gl2.ByName("team"); !ok {
				t.Fatal("group lost")
			}
		})
	}
}

func TestFileManagerPersistsAcrossRestart(t *testing.T) {
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	content := store.NewMemory()
	group := store.NewMemory()

	build := func() *fileManager {
		encl, err := platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
		if err != nil {
			t.Fatal(err)
		}
		rootKey, _, err := loadOrCreateRootKey(encl, group)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := newFileManager(fmConfig{
			rootKey:      rootKey,
			contentStore: content,
			groupStore:   group,
			rollbackOn:   true,
			contentGuard: rollback.NewProtectedMemoryGuard(encl, "content-root"),
			groupGuard:   rollback.NewProtectedMemoryGuard(encl, "group-root"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}

	fm1 := build()
	if _, err := fm1.writeContent(mustPath(t, "/persisted.txt"), []byte("survives"), ownedACL(1)); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh enclave instance with the same measurement on
	// the same platform unseals the same root key.
	fm2 := build()
	got, err := fm2.readContent(mustPath(t, "/persisted.txt"))
	if err != nil || string(got) != "survives" {
		t.Fatalf("after restart: %q %v", got, err)
	}
}

func TestTamperedContentDetected(t *testing.T) {
	for _, withRollback := range []bool{false, true} {
		t.Run(fmt.Sprintf("rollback=%v", withRollback), func(t *testing.T) {
			fx := newFMFixture(t, fmOptions{rollback: withRollback})
			fm := fx.fm
			file := mustPath(t, "/secret.txt")
			if _, err := fm.writeContent(file, []byte("confidential"), ownedACL(1)); err != nil {
				t.Fatal(err)
			}
			if err := fx.contentAdv.FlipBit("/secret.txt", 100); err != nil {
				t.Fatal(err)
			}
			if _, err := fm.readContent(file); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("want ErrIntegrity, got %v", err)
			}
		})
	}
}

func TestSwappedFilesDetected(t *testing.T) {
	fx := newFMFixture(t, fmOptions{})
	fm := fx.fm
	if _, err := fm.writeContent(mustPath(t, "/a.txt"), []byte("aaa"), ownedACL(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.writeContent(mustPath(t, "/b.txt"), []byte("bbb"), ownedACL(1)); err != nil {
		t.Fatal(err)
	}
	// Swap the two ciphertexts: the per-file key and AAD must catch it
	// even without the rollback tree.
	aBlob, err := fx.contentAdv.Get("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	bBlob, err := fx.contentAdv.Get("/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.contentAdv.Put("/a.txt", bBlob); err != nil {
		t.Fatal(err)
	}
	if err := fx.contentAdv.Put("/b.txt", aBlob); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.readContent(mustPath(t, "/a.txt")); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("swap a: %v", err)
	}
	if _, err := fm.readContent(mustPath(t, "/b.txt")); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("swap b: %v", err)
	}
}

func TestIndividualFileRollbackDetected(t *testing.T) {
	fx := newFMFixture(t, fmOptions{rollback: true})
	fm := fx.fm
	file := mustPath(t, "/versioned.txt")

	if _, err := fm.writeContent(file, []byte("version-1"), ownedACL(1)); err != nil {
		t.Fatal(err)
	}
	if err := fx.contentAdv.RememberObject("/versioned.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.writeContent(file, []byte("version-2"), nil); err != nil {
		t.Fatal(err)
	}
	// Roll the single file back to version 1: decryption succeeds, but
	// the parent's bucket hash no longer matches (paper §V-D).
	if err := fx.contentAdv.RollbackObject("/versioned.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.readContent(file); !errors.Is(err, ErrRollback) {
		t.Fatalf("want ErrRollback, got %v", err)
	}
}

func TestMemberListRollbackDetected(t *testing.T) {
	// The paper's motivating attack: an old member list would restore
	// revoked access (§V-D).
	fx := newFMFixture(t, fmOptions{rollback: true})
	fm := fx.fm

	ml := &acl.MemberList{}
	ml.Add(7)
	if err := fm.writeMemberList("bob", ml); err != nil {
		t.Fatal(err)
	}
	name := memberListName("bob")
	if err := fx.groupAdv.RememberObject(name); err != nil {
		t.Fatal(err)
	}
	// Revoke group 7.
	ml.Remove(7)
	if err := fm.writeMemberList("bob", ml); err != nil {
		t.Fatal(err)
	}
	// Adversary restores the pre-revocation member list.
	if err := fx.groupAdv.RollbackObject(name); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.readMemberList("bob"); !errors.Is(err, ErrRollback) {
		t.Fatalf("want ErrRollback, got %v", err)
	}
}

func TestWholeStoreRollbackDetected(t *testing.T) {
	for _, guard := range []GuardKind{GuardProtectedMemory, GuardCounter} {
		t.Run(fmt.Sprintf("guard=%d", guard), func(t *testing.T) {
			fx := newFMFixture(t, fmOptions{rollback: true, guard: guard})
			fm := fx.fm
			file := mustPath(t, "/state.txt")
			if _, err := fm.writeContent(file, []byte("old"), ownedACL(1)); err != nil {
				t.Fatal(err)
			}
			// Snapshot the ENTIRE content store (root file included), make
			// an update, then roll the whole store back — internally
			// consistent, but stale (§V-E).
			fx.contentAdv.SnapshotStore()
			if _, err := fm.writeContent(file, []byte("new"), nil); err != nil {
				t.Fatal(err)
			}
			fx.contentAdv.RollbackStore()
			if _, err := fm.readContent(file); !errors.Is(err, ErrRollback) {
				t.Fatalf("want ErrRollback, got %v", err)
			}
		})
	}
}

func TestWholeStoreRollbackUndetectedWithoutGuard(t *testing.T) {
	// Sanity check of the threat model: with per-file protection only,
	// a full-store rollback is internally consistent and goes unnoticed —
	// exactly why §V-E exists.
	fx := newFMFixture(t, fmOptions{rollback: true})
	fm := fx.fm
	file := mustPath(t, "/state.txt")
	if _, err := fm.writeContent(file, []byte("old"), ownedACL(1)); err != nil {
		t.Fatal(err)
	}
	fx.contentAdv.SnapshotStore()
	if _, err := fm.writeContent(file, []byte("new"), nil); err != nil {
		t.Fatal(err)
	}
	fx.contentAdv.RollbackStore()
	got, err := fm.readContent(file)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "old" {
		t.Fatalf("got %q", got)
	}
}

func TestDedupSharedStorage(t *testing.T) {
	fx := newFMFixture(t, fmOptions{dedup: true})
	fm := fx.fm
	content := bytes.Repeat([]byte("dedup me "), 4096)

	if _, err := fm.writeContent(mustPath(t, "/copy1"), content, ownedACL(1)); err != nil {
		t.Fatal(err)
	}
	size1, err := fm.dedup.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.writeContent(mustPath(t, "/copy2"), content, ownedACL(2)); err != nil {
		t.Fatal(err)
	}
	size2, err := fm.dedup.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size2-size1 > 2048 {
		t.Fatalf("second copy consumed %d extra bytes", size2-size1)
	}
	got, err := fm.readContent(mustPath(t, "/copy2"))
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read copy2: %v", err)
	}

	// Removing one copy keeps the object; removing both frees it.
	if err := fm.removePath(mustPath(t, "/copy1"), true); err != nil {
		t.Fatal(err)
	}
	if got, err := fm.readContent(mustPath(t, "/copy2")); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("copy2 after removing copy1: %v", err)
	}
	if err := fm.removePath(mustPath(t, "/copy2"), true); err != nil {
		t.Fatal(err)
	}
	size3, err := fm.dedup.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size3 >= size1 {
		t.Fatalf("dedup object not freed: %d >= %d", size3, size1)
	}
}

func TestHidePathsHidesStructure(t *testing.T) {
	fx := newFMFixture(t, fmOptions{hidePaths: true})
	fm := fx.fm
	if err := fm.createDir(mustPath(t, "/secret-project/"), ownedACL(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.writeContent(mustPath(t, "/secret-project/plans.txt"), []byte("x"), ownedACL(1)); err != nil {
		t.Fatal(err)
	}
	names, err := fx.contentAdv.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if bytes.Contains([]byte(name), []byte("secret")) || bytes.Contains([]byte(name), []byte("plans")) {
			t.Fatalf("storage name leaks path: %q", name)
		}
		if bytes.ContainsRune([]byte(name), '/') {
			t.Fatalf("storage names not flat: %q", name)
		}
	}
	// Listing still works via directory bodies.
	entries, err := fm.readDir(mustPath(t, "/secret-project/"))
	if err != nil || len(entries) != 1 || entries[0].Name != "plans.txt" {
		t.Fatalf("listing under hiding: %v %v", entries, err)
	}
}

// TestNoPlaintextLeaksToStores uploads recognizable plaintext through a
// fully-featured file manager and scans every byte of every untrusted
// store for fragments of it — content, paths, names, group names, and
// user IDs must never appear (objective S1).
func TestNoPlaintextLeaksToStores(t *testing.T) {
	fx := newFMFixture(t, allOptionCombos()["everything"])
	fm := fx.fm
	ac := &accessControl{fm: fm}

	secrets := [][]byte{
		[]byte("TOPSECRET-CONTENT-MARKER"),
		[]byte("classified-dir"),
		[]byte("classified-file"),
		[]byte("secret-team-name"),
		[]byte("agent-alice"),
	}
	if err := ac.PutDir("agent-alice", mustPath(t, "/classified-dir/")); err != nil {
		t.Fatal(err)
	}
	content := append([]byte("TOPSECRET-CONTENT-MARKER "), bytes.Repeat([]byte("x"), 5000)...)
	if _, err := ac.PutFile("agent-alice", mustPath(t, "/classified-dir/classified-file"), content); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddUser("agent-alice", "agent-bob", "secret-team-name"); err != nil {
		t.Fatal(err)
	}

	scan := func(name string, backend store.Backend) {
		t.Helper()
		names, err := backend.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range names {
			for _, secret := range secrets {
				if bytes.Contains([]byte(obj), secret) {
					t.Errorf("%s store: object name %q leaks %q", name, obj, secret)
				}
			}
			data, err := backend.Get(obj)
			if err != nil {
				t.Fatal(err)
			}
			for _, secret := range secrets {
				if bytes.Contains(data, secret) {
					t.Errorf("%s store: object %q content leaks %q", name, obj, secret)
				}
			}
		}
	}
	scan("content", fx.contentAdv)
	scan("group", fx.groupAdv)
}

func TestHidePathsHidesGroupStoreNames(t *testing.T) {
	fx := newFMFixture(t, fmOptions{hidePaths: true})
	ml := &acl.MemberList{}
	ml.Add(1)
	if err := fx.fm.writeMemberList("very-identifiable-user", ml); err != nil {
		t.Fatal(err)
	}
	names, err := fx.groupAdv.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if bytes.Contains([]byte(name), []byte("identifiable")) {
			t.Fatalf("group store name leaks user id: %q", name)
		}
	}
}

// TestReadHeaderHonorsCancellation checks the header-only read used by
// sibling-bucket validation stops at a cancelled request context, like
// every other store read of a request view.
func TestReadHeaderHonorsCancellation(t *testing.T) {
	fx := newFMFixture(t, fmOptions{rollback: true})
	if _, err := fx.fm.readHeader(fx.fm.content, "/"); err != nil {
		t.Fatalf("readHeader: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	view := fx.fm.withRequest(nil, ctx)
	if _, err := view.readHeader(view.content, "/"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("readHeader on a cancelled view: %v, want ErrCanceled", err)
	}
}
